"""Reconciliation: diff a :class:`DeploymentSpec` against a live engine.

:func:`plan` computes the minimal ordered action list that converges one
:class:`~repro.core.engine.HostingEngine` onto a spec's desired state;
:func:`apply` executes it transactionally.  The reconcile model:

* **Idempotent** — planning a spec against a device it already describes
  yields an empty plan; ``apply`` on an empty plan is a no-op.
* **Minimal** — a live container whose ``image_hash`` equals the spec
  image's hash is left untouched.  Editing one image in the spec plans
  exactly one :class:`Replace`, which hot-swaps through
  :meth:`~repro.core.engine.HostingEngine.replace` (the SUIT update
  effect: same container name, same hook, new content hash).  Hashes are
  compared, never Python object identity — a spec rebuilt from JSON or
  from an equal program converges to zero actions.
* **Scoped ownership** — the spec owns exactly the containers of the
  tenants it declares, plus untenanted containers on hooks it declares
  or attaches to.  Owned containers absent from the spec are detached;
  anything outside that scope (other tenants, other hooks) is never
  touched, so several specs — or a spec plus manual operator attaches —
  can coexist on one device.
* **Transactional** — ``apply`` keeps an undo log; if an action raises
  :class:`~repro.core.errors.AttachError` (contract rejected, image
  fails verification, ...), every action already executed is reverted in
  reverse order and the error re-raised, leaving the device in its
  pre-apply state.
* **Policy-aware** — per-tenant hook-policy overrides declared by the
  spec (:attr:`~repro.deploy.spec.AttachmentSpec.tenant_policies`) are
  diffed into :class:`SetTenantPolicy` actions; slots whose ceiling
  changed are re-installed so their containers are re-granted under the
  new policy, and only the spec's own tenants' overrides are ever set
  or cleared.

The virtual clock is charged exactly as by hand-written attach sequences:
``apply`` adds no modelled cost of its own, so a device built through a
spec is cycle-identical to the same device built imperatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Union
from weakref import WeakKeyDictionary

from repro.core.errors import AttachError
from repro.core.hooks import Hook, HookMode
from repro.core.policy import ContainerContract, HookPolicy
from repro.deploy.spec import (
    DeploymentSpec,
    DesiredInstance,
    ImageSpec,
    SpecError,
)
from repro.memo import Memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine


# -- actions ------------------------------------------------------------------


@dataclass(frozen=True)
class CreateTenant:
    tenant: str

    def describe(self) -> str:
        return f"create-tenant {self.tenant}"


@dataclass(frozen=True)
class RegisterHook:
    hook: str
    mode: HookMode

    def describe(self) -> str:
        return f"register-hook  {self.hook} ({self.mode.value})"


@dataclass(frozen=True)
class SetTenantPolicy:
    """Reconcile one tenant's privilege ceiling on one hook.

    ``policy=None`` clears the override (the tenant falls back to the
    hook's base policy).  Ordered before installs so re-granted slots
    attach under the new ceiling.
    """

    hook: str
    tenant: str
    policy: HookPolicy | None

    def describe(self) -> str:
        action = "clear" if self.policy is None else "set"
        return f"tenant-policy  {action} {self.tenant} on {self.hook}"


@dataclass(frozen=True)
class Install:
    name: str
    hook: str
    tenant: str | None
    image: ImageSpec
    contract: ContainerContract
    period_us: float | None = None

    def describe(self) -> str:
        period = (f" every {self.period_us:.0f} us"
                  if self.period_us is not None else "")
        return (f"install        {self.name} <- "
                f"{self.image.image_hash[:12]} on {self.hook}{period}")


@dataclass(frozen=True)
class Replace:
    name: str
    hook: str
    image: ImageSpec

    def describe(self) -> str:
        return (f"replace        {self.name} <- "
                f"{self.image.image_hash[:12]} on {self.hook}")


@dataclass(frozen=True)
class Detach:
    name: str
    hook: str

    def describe(self) -> str:
        return f"detach         {self.name} from {self.hook}"


Action = Union[CreateTenant, RegisterHook, SetTenantPolicy, Install,
               Replace, Detach]


@dataclass
class DeploymentPlan:
    """The ordered action list converging one engine onto one spec."""

    spec: DeploymentSpec
    actions: list[Action]

    @property
    def empty(self) -> bool:
        return not self.actions

    def describe(self) -> str:
        if self.empty:
            return "(converged — no actions)"
        return "\n".join(action.describe() for action in self.actions)


# -- planning -----------------------------------------------------------------


def _live_tenant(container: "FemtoContainer") -> str | None:
    return container.tenant.name if container.tenant is not None else None


class _Slot(NamedTuple):
    """One desired (hook, name) slot with the actions that fill it."""

    instance: DesiredInstance
    install: Install
    replace: Replace


class _PlanView(NamedTuple):
    """Everything :func:`plan` derives from the spec alone.

    Device-independent, so a fleet that plans one spec object on every
    device derives it once: validation, the flattened slots (with their
    frozen :class:`Install` and :class:`Replace` actions, shared by every
    device's plan) and the merged tenant policies.
    """

    tenants: frozenset[str]
    declared_hooks: frozenset[str]
    #: Hooks the attachments target, deduplicated in spec order.
    attached_hooks: tuple[str, ...]
    #: Declared and attached hooks, sorted (the policy diff's order).
    spec_hooks: tuple[str, ...]
    policies: dict[str, dict[str, HookPolicy]]
    slots: tuple[_Slot, ...]


#: Plan views keyed by ``id(spec)``; each entry holds its spec, so the
#: id cannot be reused while it lives.  A fleet publish plans the one
#: spec object its release cache decoded on every device, so a memo this
#: small covers any publish.  Sound because a spec is immutable (see
#: :class:`DeploymentSpec`); an invalid one raises :class:`SpecError` on
#: every :func:`plan`.
_views = Memo(16)


def _plan_view(spec: DeploymentSpec) -> _PlanView:
    return _views.get_or_derive(
        id(spec), lambda: (spec, _derive_view(spec)))[1]


def _derive_view(spec: DeploymentSpec) -> _PlanView:
    spec.validate()
    declared_hooks = frozenset(hook.name for hook in spec.hooks)
    attached_hooks = tuple(dict.fromkeys(a.hook for a in spec.attachments))
    return _PlanView(
        tenants=frozenset(spec.tenants),
        declared_hooks=declared_hooks,
        attached_hooks=attached_hooks,
        spec_hooks=tuple(sorted(declared_hooks.union(attached_hooks))),
        policies=spec.hook_tenant_policies(),
        slots=tuple(
            _Slot(instance,
                  Install(name=instance.name, hook=instance.hook,
                          tenant=instance.tenant, image=instance.image,
                          contract=instance.contract,
                          period_us=instance.period_us),
                  Replace(instance.name, instance.hook, instance.image))
            for instance in spec.desired_instances()),
    )


def plan(engine: "HostingEngine", spec: DeploymentSpec) -> DeploymentPlan:
    """Diff ``spec`` against ``engine`` into an ordered action list."""
    view = _plan_view(spec)
    actions: list[Action] = []

    for tenant in spec.tenants:
        if tenant not in engine.tenants:
            actions.append(CreateTenant(tenant))

    for hook_spec in spec.hooks:
        live = engine.hooks.get(hook_spec.name)
        if live is None:
            actions.append(RegisterHook(hook_spec.name, hook_spec.mode))
        elif live.mode is not hook_spec.mode:
            raise SpecError(
                f"hook {hook_spec.name!r} is compiled as {live.mode.value} "
                f"but the spec wants {hook_spec.mode.value} — hook modes "
                "are fixed in firmware and cannot be reconciled"
            )
    for hook_name in view.attached_hooks:
        if hook_name not in engine.hooks \
                and hook_name not in view.declared_hooks:
            raise SpecError(
                f"attachment targets hook {hook_name!r}, which is "
                "neither compiled into this firmware nor declared in the "
                "spec's hooks"
            )

    # Per-tenant privilege ceilings on the spec's hooks (the §11 Hook
    # extension).  The spec owns the overrides of exactly the tenants it
    # declares: an owned tenant's live override absent from the spec is
    # cleared, other tenants' overrides are never touched.  A changed
    # ceiling re-installs the tenant's slots on that hook below, so the
    # running containers are re-granted under the new policy.
    policy_actions: list[Action] = []
    policy_changed: set[tuple[str, str]] = set()
    for hook_name in view.spec_hooks:
        live_hook = engine.hooks.get(hook_name)
        live_policies = (live_hook.tenant_policies
                         if live_hook is not None else {})
        wanted = view.policies.get(hook_name, {})
        for tenant in spec.tenants:
            if live_policies.get(tenant) != wanted.get(tenant):
                policy_actions.append(SetTenantPolicy(hook_name, tenant,
                                                      wanted.get(tenant)))
                policy_changed.add((hook_name, tenant))

    # The containers this spec owns (see the module docstring's scope rule).
    owned: dict[tuple[str, str], "FemtoContainer"] = {}
    for hook in engine.hooks.values():
        for container in hook.containers:
            tenant_name = _live_tenant(container)
            managed = (tenant_name in view.tenants
                       if tenant_name is not None
                       else hook.name in view.spec_hooks)
            if managed:
                owned[(hook.name, container.name)] = container

    # Slots granted under a changed ceiling detach *before* the policy
    # flips, installs come after: a failing apply then unwinds in the
    # only safe order (restore the old ceiling first, then re-attach the
    # old containers under it).
    pre_detach: list[Action] = []
    converge: list[Action] = []
    for instance, install, replace in view.slots:
        key = (instance.hook, instance.name)
        container = owned.pop(key, None)
        if container is None:
            converge.append(install)
        elif (instance.hook, instance.tenant) in policy_changed:
            pre_detach.append(Detach(instance.name, instance.hook))
            converge.append(install)
        elif (_live_tenant(container) != instance.tenant
              or (container.contract is not instance.contract
                  and container.contract != instance.contract)):
            # Tenancy or contract drift cannot hot-swap: re-install
            # (the attach re-runs the grant intersection).  Most slots
            # hold the one shared DEFAULT_CONTRACT: identity settles them.
            converge.append(Detach(instance.name, instance.hook))
            converge.append(install)
        elif container.image_hash != instance.image.image_hash:
            converge.append(replace)
        # else: converged — the slot already holds this exact image.

    actions.extend(pre_detach)
    actions.extend(policy_actions)
    actions.extend(converge)
    for hook_name, name in sorted(owned):
        actions.append(Detach(name, hook_name))

    return DeploymentPlan(spec=spec, actions=actions)


# -- applying -----------------------------------------------------------------


@dataclass
class ApplyResult:
    """What one transactional apply did to the device."""

    plan: DeploymentPlan
    #: (hook, name) -> container installed or replaced by this apply,
    #: in action order.
    containers: dict[tuple[str, str], "FemtoContainer"] = field(
        default_factory=dict)
    #: Cancel functions for periodic firings armed by this apply.
    timers: dict[tuple[str, str], Callable[[], None]] = field(
        default_factory=dict)
    tenants_created: list[str] = field(default_factory=list)
    detached: list[tuple[str, str]] = field(default_factory=list)
    #: Virtual cycles the whole apply charged (verify + install costs).
    cycles_charged: int = 0

    @property
    def attached(self) -> list["FemtoContainer"]:
        """Containers this apply put on hooks, in action order."""
        return list(self.containers.values())


def _find_container(engine: "HostingEngine", hook_name: str,
                    name: str) -> "FemtoContainer":
    for container in engine.hooks[hook_name].containers:
        if container.name == name:
            return container
    raise AttachError(
        f"plan is stale: no container {name!r} on hook {hook_name!r}"
    )


def _put_back(engine: "HostingEngine", current: "FemtoContainer",
              previous: "FemtoContainer") -> None:
    """Undo a replace: ``previous`` itself (its runs, faults and local
    store) takes ``current``'s slot again, at the same hook position."""
    hook = current.hook
    position = hook.containers.index(current)
    engine.detach(current)
    engine.attach(previous, hook.name, position)


#: Periodic firings armed by past applies, per engine, keyed like plan
#: actions by (hook, name).  Lets a later apply's Detach cancel the
#: cadence its slot's Install armed (the spec owns the timer exactly as
#: long as it owns the container).
_ARMED_TIMERS: "WeakKeyDictionary[object, dict[tuple[str, str], Callable[[], None]]]" \
    = WeakKeyDictionary()


def apply(engine: "HostingEngine", deployment: DeploymentPlan) -> ApplyResult:
    """Execute a plan transactionally (rollback on any failure).

    Actions run in plan order; each pushes an inverse onto an undo log.
    A failing action — an :class:`AttachError`, a plan gone stale
    between plan() and apply(), even a malformed image that only
    explodes at decode time — reverts everything already done, in
    reverse order, and re-raises, so a rejected spec never leaves a
    half-deployed device.  Rollback re-attaches the original container
    objects at their original hook positions, through the normal verify
    path, so it charges the virtual clock like any install (a real
    device would pay it too).

    Detaching a slot also cancels the periodic firing its install armed;
    the cancellation is deferred until the whole plan succeeded, so
    rollback never has to re-arm a timer.  (Changing *only* ``period_us``
    on an otherwise-converged slot is not detected by ``plan`` — re-arm
    by detaching the slot in one spec revision and re-adding it in the
    next, or cancel via the install's returned handle.)
    """
    result = ApplyResult(plan=deployment)
    # Looked up only by an action that arms or retires a cadence: a plan
    # of replaces pays no weak reference and no dict for it.
    armed = None
    undo: list[Callable[[], None]] = []
    deferred_cancels: list[Callable[[], None]] = []
    clock = engine.kernel.clock
    cycles_before = clock.cycles
    try:
        for action in deployment.actions:
            if isinstance(action, CreateTenant):
                engine.create_tenant(action.tenant)
                result.tenants_created.append(action.tenant)
                undo.append(lambda name=action.tenant:
                            engine.tenants.pop(name, None))
            elif isinstance(action, RegisterHook):
                hook = engine.register_hook(Hook(action.hook,
                                                 mode=action.mode))

                def _unregister(h: Hook = hook) -> None:
                    engine.hooks.pop(h.name, None)
                    engine.hooks_by_uuid.pop(h.uuid_key, None)

                undo.append(_unregister)
            elif isinstance(action, SetTenantPolicy):
                hook = engine.hooks[action.hook]
                previous = hook.tenant_policies.get(action.tenant)
                if action.policy is None:
                    hook.tenant_policies.pop(action.tenant, None)
                else:
                    hook.tenant_policies[action.tenant] = action.policy

                def _restore(h: Hook = hook, tenant: str = action.tenant,
                             old: HookPolicy | None = previous) -> None:
                    if old is None:
                        h.tenant_policies.pop(tenant, None)
                    else:
                        h.tenant_policies[tenant] = old

                undo.append(_restore)
            elif isinstance(action, Install):
                tenant = (engine.tenants[action.tenant]
                          if action.tenant is not None else None)
                container = engine.load(
                    action.image.instantiate(action.name),
                    tenant=tenant, contract=action.contract,
                    name=action.name,
                )
                engine.attach(container, action.hook)
                undo.append(lambda c=container: engine.detach(c))
                key = (action.hook, action.name)
                result.containers[key] = container
                if action.period_us is not None:
                    # A stale cadence can survive on this key when the
                    # slot's container was fault-detached by the engine
                    # (not by a plan): one slot owns one cadence, so
                    # retire it before arming the new one.
                    if armed is None:
                        armed = _ARMED_TIMERS.setdefault(engine, {})
                    stale = armed.pop(key, None)
                    if stale is not None:
                        stale()
                    # attach_periodic sees the container already attached
                    # and only arms the firing (the §8.3 sensor pattern).
                    cancel = engine.attach_periodic(
                        container, action.period_us, action.hook)
                    result.timers[key] = cancel
                    armed[key] = cancel

                    def _disarm(k=key, c=cancel) -> None:
                        c()
                        if armed.get(k) is c:
                            del armed[k]

                    undo.append(_disarm)
            elif isinstance(action, Replace):
                old = _find_container(engine, action.hook, action.name)
                fresh = engine.replace(
                    old, action.image.instantiate(action.name))
                undo.append(lambda c=fresh, o=old:
                            _put_back(engine, c, o))
                result.containers[(action.hook, action.name)] = fresh
            elif isinstance(action, Detach):
                container = _find_container(engine, action.hook, action.name)
                position = engine.hooks[action.hook].containers.index(
                    container)
                engine.detach(container)
                undo.append(lambda c=container, h=action.hook, p=position:
                            engine.attach(c, h, p))
                result.detached.append((action.hook, action.name))
                # Pop the slot's armed cadence *now* (a later Install in
                # this same plan may re-arm the same key) but cancel it
                # only once the whole plan succeeded; rollback re-attaches
                # the container, so it restores the registry entry.
                if armed is None:
                    armed = _ARMED_TIMERS.setdefault(engine, {})
                cancel = armed.pop((action.hook, action.name), None)
                if cancel is not None:
                    deferred_cancels.append(cancel)
                    undo.append(
                        lambda k=(action.hook, action.name), c=cancel:
                        armed.__setitem__(k, c))
            else:  # pragma: no cover - exhaustiveness guard
                raise TypeError(f"unknown plan action {action!r}")
    except Exception:
        for revert in reversed(undo):
            revert()
        raise
    for cancel in deferred_cancels:
        cancel()
    result.cycles_charged = clock.cycles - cycles_before
    return result


def apply_spec(engine: "HostingEngine", spec: DeploymentSpec) -> ApplyResult:
    """Convenience: ``apply(engine, plan(engine, spec))``."""
    return apply(engine, plan(engine, spec))
