"""The Femto-Container hosting engine (paper §5, §7, Fig 3).

The engine is the middleware core: it owns the firmware's launchpad hooks,
verifies and attaches container images, instantiates their VMs with the
granted privileges, fires hooks when RTOS events occur, contains faults,
and keeps the memory accounting the evaluation reports.

Fault isolation contract: **no exception from hosted bytecode ever
propagates out of** :meth:`HostingEngine.execute` — a faulting container is
recorded and, when a fault threshold is exceeded, detached; the RTOS and
other containers keep running.  The property-based tests drive adversarial
bytecode through this path and assert the kernel never observes a fault.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.container import (
    ContainerRun,
    ContainerState,
    FaultRecord,
    FemtoContainer,
    RunFacts,
    VM_CLASSES,
)
from repro.core.errors import AttachError, EngineError, UnknownHookError
from repro.core.hooks import (
    FC_HOOK_COAP,
    FC_HOOK_SCHED,
    FC_HOOK_SENSOR_READ,
    FC_HOOK_TIMER,
    Hook,
    HookMode,
)
from repro.core.kvstore import KeyValueStore
from repro.core.policy import (
    DEFAULT_CONTRACT,
    ContainerContract,
    GrantedPolicy,
    HookPolicy,
    grant,
)
from repro.core.syscalls import DEFAULT_HELPERS, CoapResponseContext
from repro.core.tenant import Tenant
from repro.memo import Memo
from repro.rtos.kernel import Kernel
from repro.rtos.saul import SaulRegistry
from repro.rtos.thread import Wait
from repro.runtimes.base import container_runtime
from repro.vm.errors import VMFault
from repro.vm.memory import Permission
from repro.vm.program import Program
from repro.vm.supervisor import ContainerSupervisor, SupervisorConfig
from repro.vm.verifier import VerifierConfig
from repro.vm.interpreter import ExecutionStats, VMConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.board import Board
    from repro.runtimes.base import ContainerRuntime


#: The scheduler launchpad's ceiling: it may read, never rewrite, the
#: pids it is handed.  One frozen value for every device's firmware.
_SCHED_POLICY = HookPolicy(context_writable=False)

#: ``(hook policy, contract, helper ids, runtime, board, implementation)``
#: -> the granted policy, the verifier and VM configs derived from it and
#: the :class:`RunFacts` its containers' runs share.  All are frozen
#: values that depend on the key alone (the facts' cost profile is the
#: board's or runtime's one shared profile, and holds no registry), so
#: every attach of one slot shape on every device shares them; a changed
#: ceiling, contract, helper set or board is a new key, and a
#: :class:`~repro.core.policy.PolicyError` is never stored.
_LIMITS = Memo(256)


@dataclass
class HookFiring:
    """Result of one hook activation."""

    hook: Hook
    runs: list[ContainerRun] = field(default_factory=list)
    dispatch_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.dispatch_cycles + sum(run.cycles for run in self.runs)

    @property
    def results(self) -> list[int | None]:
        return [run.value for run in self.runs]

    @property
    def effective_results(self) -> list[int]:
        """Fig 3 semantics: the control-flow values the firmware consumes.

        An empty hook — or a faulted container — contributes the hook's
        default result ("Bypass with Default Result"), so firmware logic
        downstream of the launchpad always has a well-defined input.
        """
        if not self.runs:
            return [self.hook.default_result]
        return [
            run.value if run.ok and run.value is not None
            else self.hook.default_result
            for run in self.runs
        ]


class HostingEngine:
    """One device's Femto-Container middleware instance."""

    def __init__(
        self,
        kernel: Kernel,
        implementation: str = "femto-containers",
        saul: SaulRegistry | None = None,
        supervisor: SupervisorConfig | None = None,
    ) -> None:
        if implementation not in VM_CLASSES:
            raise EngineError(
                f"unknown VM implementation {implementation!r}; "
                f"choose from {sorted(VM_CLASSES)}"
            )
        self.kernel = kernel
        self.board: "Board" = kernel.board
        self.implementation = implementation
        self.saul = saul if saul is not None else SaulRegistry()
        #: The firmware's helper table, shared with every other engine
        #: until this one registers a helper of its own.
        self.helpers = DEFAULT_HELPERS.share()
        self.global_store = KeyValueStore(name="global", scope="global")
        self.tenants: dict[str, Tenant] = {}
        self.hooks: dict[str, Hook] = {}
        self.hooks_by_uuid: dict[str, Hook] = {}
        self.trace_log: list[str] = []
        #: Device-lifetime fault counter: every contained fault, including
        #: faults of containers since detached or replaced.  This is the
        #: monotonic signal fleet-level canary gating reads — a container
        #: object's own ``fault_count`` dies with the container, this
        #: number survives hot-swaps and fault-detaches.
        self.fault_total: int = 0
        #: Execution context (valid while a container runs).
        self.current_container: FemtoContainer | None = None
        self.current_pdu: CoapResponseContext | None = None
        #: Crash-loop/overrun watchdog (``supervisor=None``: the default
        #: :class:`~repro.vm.supervisor.SupervisorConfig` policy).
        self.supervisor = ContainerSupervisor(self, supervisor)
        self._register_default_hooks()

    # -- firmware-provided hooks ------------------------------------------------

    def _register_default_hooks(self) -> None:
        """The launchpads this firmware build ships with (§7)."""
        self.register_hook(Hook(FC_HOOK_SCHED, mode=HookMode.SYNC,
                                policy=_SCHED_POLICY))
        self.register_hook(Hook(FC_HOOK_TIMER, mode=HookMode.THREAD))
        self.register_hook(Hook(FC_HOOK_COAP, mode=HookMode.THREAD))
        self.register_hook(Hook(FC_HOOK_SENSOR_READ, mode=HookMode.THREAD))

    def register_hook(self, hook: Hook) -> Hook:
        """Compile a launchpad into the firmware (needs a firmware update
        on a real device — done at engine construction here)."""
        if hook.name in self.hooks:
            raise EngineError(f"hook {hook.name!r} already registered")
        self.hooks[hook.name] = hook
        self.hooks_by_uuid[hook.uuid_key] = hook
        if hook.name == FC_HOOK_SCHED:
            self.kernel.scheduler.sched_hook = self._sched_launchpad
        return hook

    def hook(self, name: str) -> Hook:
        try:
            return self.hooks[name]
        except KeyError:
            raise UnknownHookError(
                f"hook {name!r} is not compiled into this firmware"
            ) from None

    def hook_by_uuid(self, uuid_str: str) -> Hook:
        try:
            return self.hooks_by_uuid[str(uuid_str)]
        except KeyError:
            raise UnknownHookError(
                f"no hook with storage-location UUID {uuid_str}"
            ) from None

    # -- tenants ---------------------------------------------------------------

    def create_tenant(self, name: str) -> Tenant:
        if name in self.tenants:
            raise EngineError(f"tenant {name!r} already exists")
        tenant = Tenant(name=name)
        self.tenants[name] = tenant
        return tenant

    # -- container lifecycle ------------------------------------------------------

    def load(
        self,
        program: Program,
        tenant: Tenant | None = None,
        contract: ContainerContract | None = None,
        name: str | None = None,
    ) -> FemtoContainer:
        """Store an application image in RAM (not yet attached)."""
        return FemtoContainer(
            name=name or program.name,
            program=program,
            tenant=tenant,
            contract=contract or DEFAULT_CONTRACT,
        )

    def attach(self, container: FemtoContainer, hook_name: str,
               position: int | None = None) -> FemtoContainer:
        """Verify ``container`` under the hook's policy and attach it.

        This is the paper's install step: pre-flight checking happens here,
        once, and its cost is charged to the virtual clock.  Attaching a
        JIT container additionally charges the §11 transpilation cost.
        The container joins the end of the hook's run order, or takes
        index ``position`` in it (how :meth:`replace`, a probation
        re-attach and a rolled-back plan keep a slot where it was).

        The *virtual* clock always pays the full verify+install price —
        that is the device model the evaluation reports.  The *host* does
        lookups only: the slot shape's limits and the :class:`RunFacts`
        its runs share (:data:`_LIMITS`), and the image's shared
        :class:`~repro.vm.imagecache.InstancePrototype` with the grant
        layout checked against it
        (:func:`~repro.runtimes.base.preflight`).  The instance itself
        (stack, registers, ``.data``, grant regions) is cloned at the
        container's first use (:attr:`FemtoContainer.vm`), so a container
        replaced before it ever runs never builds one.
        """
        hook = self.hook(hook_name)
        if container.hook is not None:
            raise AttachError(
                f"container {container.name!r} is already attached to "
                f"{container.hook.name!r}"
            )
        tenant_name = container.tenant.name if container.tenant else None
        runtime = container_runtime(container.program.runtime)
        try:
            granted, verifier_config, vm_config, facts = self._limits(
                hook.policy_for(tenant_name), container.contract, runtime)
            prototype = runtime.attach(self, container, verifier_config,
                                       vm_config, granted.memory_grants)
        except Exception as exc:
            raise self._rejected(container, exc) from exc

        container._vm = None
        container._clone = (self, prototype, vm_config)
        container.facts = facts
        container.runtime = runtime
        container.granted = granted
        container.hook = hook
        container.state = ContainerState.ATTACHED
        if position is None:
            hook.containers.append(container)
        else:
            hook.containers.insert(position, container)
        if container.tenant is not None:
            container.tenant.adopt(container)
        if hook.mode is HookMode.THREAD:
            self._spawn_worker(container)
        self.supervisor.notify_attach(container, hook.name)
        return container

    def _limits(
        self, policy: HookPolicy, contract: ContainerContract,
        runtime: "ContainerRuntime",
    ) -> tuple[GrantedPolicy, VerifierConfig, VMConfig, RunFacts]:
        """The grant, the verifier and VM limits and the :class:`RunFacts`
        of one slot shape, derived once per key of :data:`_LIMITS`."""
        return _LIMITS.get_or_derive(
            (policy, contract, self.helpers.ids(), runtime, self.board,
             self.implementation),
            lambda: self._derive_limits(policy, contract, runtime))

    def _derive_limits(
        self, policy: HookPolicy, contract: ContainerContract,
        runtime: "ContainerRuntime",
    ) -> tuple[GrantedPolicy, VerifierConfig, VMConfig, RunFacts]:
        granted = grant(policy, contract)
        verifier_config = VerifierConfig(
            max_instructions=granted.max_instructions,
            allowed_helpers=(
                granted.allowed_helpers
                if granted.allowed_helpers is not None
                else self.helpers.ids()
            ),
        )
        vm_config = VMConfig(branch_limit=granted.branch_limit,
                             stack_size=granted.stack_size)
        return (
            granted, verifier_config, vm_config,
            RunFacts(
                context_perms=(Permission.READ_WRITE
                               if granted.context_writable
                               else Permission.READ),
                cost=runtime.cost_profile(self.board, self.implementation),
                setup_cycles=self.board.vm_setup_cycles,
            ),
        )

    @staticmethod
    def _rejected(container: FemtoContainer, exc: Exception) -> AttachError:
        """An image the pre-flight refused is dropped from the device:
        it leaves its tenant (a later successful attach re-adopts it)."""
        if container.tenant is not None:
            container.tenant.release(container)
        return AttachError(f"container {container.name!r} rejected: {exc}")

    def detach(self, container: FemtoContainer) -> None:
        """Remove ``container`` from its hook and release it from its
        tenant: past this call only the caller (a rollback log, a
        quarantine record) keeps it alive, and :meth:`attach` re-adopts
        it if it ever comes back."""
        hook = container.hook
        if hook is None:
            return
        hook.containers.remove(container)
        container.hook = None
        container.state = ContainerState.DETACHED
        if container.tenant is not None:
            container.tenant.release(container)
        # Thread-mode containers own a worker thread: tell it to exit so a
        # detach (or hot replace) never leaks a blocked zombie thread.
        if container.event_queue is not None:
            container.event_queue.post_new("detach")  # type: ignore[attr-defined]

    def replace(self, old: FemtoContainer, new_program: Program) -> FemtoContainer:
        """Hot-swap a container's application (the SUIT update effect).

        The replacement keeps the old container's *name* and its place
        in the hook's run order: the deployed slot is the stable
        identity operators (and the declarative deployment reconciler)
        track across updates — only the image content changes.
        """
        hook = old.hook
        if hook is None:
            raise AttachError("cannot replace a detached container")
        position = hook.containers.index(old)
        self.detach(old)
        fresh = self.load(new_program, tenant=old.tenant,
                          contract=old.contract, name=old.name)
        try:
            return self.attach(fresh, hook.name, position)
        except Exception:
            # Failure-atomic: a replacement whose image is rejected must
            # not leave the slot empty.  The rejection already released
            # the never-attached ``fresh`` from the tenant; re-attach the
            # old container itself, at its old position (re-verified, so
            # the clock is charged like any install; a real device
            # restoring its old image pays it too).
            self.attach(old, hook.name, position)
            raise

    def _spawn_worker(self, container: FemtoContainer) -> None:
        """Worker thread for THREAD-mode hooks (one thread per instance)."""
        queue = self.kernel.new_event_queue(f"{container.name}-events")
        container.event_queue = queue  # type: ignore[attr-defined]

        def worker(thread):
            while True:
                event = yield Wait(queue)
                if event.kind == "detach":
                    return
                context, pdu, done = event.payload
                run = self.execute(container, context, pdu=pdu)
                if done is not None:
                    done(run)

        container.worker = self.kernel.create_thread(
            name=f"fc/{container.name}",
            body=worker,
            priority=9,
            stack_size=container.granted.stack_size + 512,
        )

    # -- execution ------------------------------------------------------------------

    def _sched_launchpad(self, previous_pid: int, next_pid: int) -> None:
        """Listing 1: the hook compiled into the scheduler's hot path."""
        context = struct.pack("<QQ", previous_pid, next_pid)
        self.fire_hook(FC_HOOK_SCHED, context)

    def fire_hook(
        self,
        hook_name: str,
        context: bytes = b"",
        pdu: CoapResponseContext | None = None,
        done=None,
    ) -> HookFiring:
        """Fire a launchpad: run (or wake) every attached container.

        Charges the empty-hook dispatch cost even when nothing is attached
        (the pad's existence costs ~100 ticks; Table 4).
        """
        hook = self.hook(hook_name)
        hook.fires += 1
        self.kernel.clock.charge(self.board.hook_dispatch_cycles)
        firing = HookFiring(hook=hook,
                            dispatch_cycles=self.board.hook_dispatch_cycles)
        containers = hook.containers
        if hook.mode is HookMode.SYNC:
            # Hot path (the scheduler launchpad fires on every context
            # switch): iterate the attach list in place, no per-fire
            # snapshot.  The only mutation a synchronous run can cause is
            # the fault-detach of the very container that just ran
            # (helpers cannot attach or detach), so an index walk that
            # re-checks its slot after each run is exactly as safe as a
            # copy — and allocation-free.
            runs = firing.runs
            index = 0
            while index < len(containers):
                container = containers[index]
                runs.append(self.execute(container, context, pdu=pdu))
                if index < len(containers) and containers[index] is container:
                    index += 1
                # else: the run fault-detached `container`; its removal
                # shifted the next container into this slot.
        else:
            # Posting to worker queues never mutates the attach list.
            for container in containers:
                container.event_queue.post_new(  # type: ignore[attr-defined]
                    "fire", (context, pdu, done)
                )
        return firing

    def execute(
        self,
        container: FemtoContainer,
        context: bytes = b"",
        pdu: CoapResponseContext | None = None,
    ) -> ContainerRun:
        """Run one container once, containing any fault (Fig 3 flow).

        An empty ``context`` maps none for the run: r1 is 0 (see
        :meth:`~repro.vm.interpreter.Interpreter.run`).
        """
        vm = container._vm
        if vm is None:
            vm = container.vm  # the first use clones the instance
            if vm is None:
                raise EngineError(
                    f"container {container.name!r} is not attached")
        # Everything this run shares with the container's other runs was
        # derived at attach (RunFacts): the context permissions, the cost
        # profile and the setup charge.  The save/restore of the
        # execution context is two plain attribute swaps.
        facts = container.facts
        clock = self.kernel.clock
        previous_container = self.current_container
        previous_pdu = self.current_pdu
        self.current_container = container
        self.current_pdu = pdu
        clock.charge(facts.setup_cycles)
        fault: FaultRecord | None = None
        value: int | None = None
        try:
            result = vm.run(context, facts.context_perms)
            value = result.value
            stats = result.stats
        except VMFault as exc:
            # The fault is *contained*: record it, never re-raise; the
            # run is charged the counts it carries out of the VM.
            fault = FaultRecord(
                kind=type(exc).__name__,
                message=str(exc),
                at_cycles=clock.cycles,
                pc=exc.pc,
            )
            stats = exc.stats if exc.stats is not None else ExecutionStats()
        finally:
            self.current_container = previous_container
            self.current_pdu = previous_pdu
            if pdu is not None:
                # Unmap the PDU buffer: the grant lasts one execution.
                # (AccessList.remove also invalidates its MRU region cache.)
                vm.access_list.remove(pdu.region)

        # One tally lookup records the run and prices it (a repeat of a
        # count vector reuses its price while profile and registry hold).
        execution_cycles = container.record_run(stats, fault, self.helpers)
        clock.charge(execution_cycles)
        cycles = facts.setup_cycles + execution_cycles
        run = ContainerRun(container, value, stats, cycles,
                           cycles / self.board.mhz, fault)
        if fault is not None:
            self.fault_total += 1
        if pdu is not None and value is not None:
            pdu.payload_length = max(
                0, min(int(value) - pdu.header_length, pdu.payload_capacity)
            )
        self.supervisor.observe(container, run)
        return run

    # -- periodic (timer hook) convenience ----------------------------------------

    def attach_periodic(
        self,
        container: FemtoContainer,
        period_us: float,
        hook_name: str = FC_HOOK_TIMER,
    ):
        """Attach to the timer hook and fire it every ``period_us``.

        Returns a cancel function.  This is the §8.3 sensor-reader pattern:
        a timer event periodically launches the container.
        """
        if container.hook is None:
            self.attach(container, hook_name)

        def fire() -> None:
            self.fire_hook(hook_name, struct.pack("<QQ", 0, 0))

        return self.kernel.timers.set_periodic(fire, period_us)

    # -- accounting --------------------------------------------------------------------

    def containers(self) -> list[FemtoContainer]:
        seen: list[FemtoContainer] = []
        for hook in self.hooks.values():
            seen.extend(hook.containers)
        return seen

    def slots(self) -> Iterator[tuple[FemtoContainer, str]]:
        """Every ``(container, hook name)`` on the device: the attached
        containers in hook order, then those the supervisor holds out of
        service (quarantined or permanent), with the hook each left."""
        for hook in self.hooks.values():
            for container in hook.containers:
                yield container, hook.name
        yield from self.supervisor.detained.items()

    def store_ram_bytes(self) -> int:
        """RAM of all key-value stores plus housekeeping (§10.3's 340 B)."""
        from repro.core.tenant import TENANT_STRUCT_BYTES

        total = self.global_store.ram_bytes
        total += sum(
            TENANT_STRUCT_BYTES + t.store.ram_bytes
            for t in self.tenants.values()
        )
        total += sum(c.local_store_bytes for c in self.containers())
        return total

    def total_ram_bytes(self) -> int:
        """Engine-attributable RAM: instances + images + stores (§10.3)."""
        return self.store_ram_bytes() + sum(
            c.vm.ram_bytes + c.program.image_size
            for c in self.containers()
            if c.vm is not None
        )
