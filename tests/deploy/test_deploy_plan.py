"""Reconciler semantics: idempotent plans, minimal diffs, transactional
apply, and cycle-identity with hand-wired imperative deployment."""

from __future__ import annotations

import pytest

from repro.core import (
    AttachError,
    FC_HOOK_FANOUT,
    FC_HOOK_TIMER,
    Hook,
    HookMode,
    HostingEngine,
)
from repro.core.policy import ContainerContract
from repro.deploy import (
    AttachmentSpec,
    CreateTenant,
    Detach,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    Install,
    RegisterHook,
    Replace,
    SpecError,
    apply,
    apply_spec,
    fanout_spec,
    plan,
)
from repro.rtos import Kernel, nrf52840
from repro.vm import Program, assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads import thread_counter_program

RETURN_7 = "mov r0, 7\n    exit"
RETURN_8 = "mov r0, 8\n    exit"
#: Writes to the read-only frame register — rejected by the verifier.
UNVERIFIABLE = "mov r10, 1\n    exit"
#: Verifies clean, faults on every run (unmapped load).
FAULTING = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def two_container_spec(second_source: str = RETURN_8,
                       contract: ContainerContract | None = None
                       ) -> DeploymentSpec:
    extra = {} if contract is None else {"contract": contract}
    return DeploymentSpec(
        name="pair",
        tenants=("alice", "bob"),
        images={
            "seven": ImageSpec.from_program(assemble(RETURN_7)),
            "eight": ImageSpec.from_program(assemble(second_source)),
        },
        attachments=(
            AttachmentSpec(image="seven", hook=FC_HOOK_TIMER,
                           tenant="alice", name="first", **extra),
            AttachmentSpec(image="eight", hook=FC_HOOK_TIMER,
                           tenant="bob", name="second", **extra),
        ),
    )


@pytest.fixture
def contract_eq_calls(monkeypatch) -> list:
    """Every ``ContainerContract.__eq__`` call made from here on."""
    calls = []
    eq = ContainerContract.__eq__

    def counting(self, other):
        calls.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(ContainerContract, "__eq__", counting)
    return calls


class TestContractDrift:
    def test_converged_default_slots_compare_no_contract(
            self, engine, contract_eq_calls):
        spec = two_container_spec()
        apply_spec(engine, spec)
        contract_eq_calls.clear()
        assert plan(engine, spec).empty
        assert contract_eq_calls == []  # one shared DEFAULT_CONTRACT

    def test_equal_but_distinct_contract_converges(self, engine,
                                                   contract_eq_calls):
        apply_spec(engine, two_container_spec(
            contract=ContainerContract(branch_limit=500)))
        contract_eq_calls.clear()
        again = two_container_spec(
            contract=ContainerContract(branch_limit=500))
        assert plan(engine, again).empty
        assert contract_eq_calls  # settled by value, not identity

    def test_changed_contract_reinstalls(self, engine):
        apply_spec(engine, two_container_spec(
            contract=ContainerContract(branch_limit=500)))
        changed = two_container_spec(
            contract=ContainerContract(branch_limit=501))
        kinds = [type(action) for action in plan(engine, changed).actions]
        assert kinds == [Detach, Install, Detach, Install]


class TestPlanning:
    def test_plan_against_empty_engine(self, engine):
        deployment = plan(engine, two_container_spec())
        kinds = [type(action) for action in deployment.actions]
        assert kinds == [CreateTenant, CreateTenant, Install, Install]

    def test_plan_is_idempotent(self, engine):
        spec = two_container_spec()
        apply_spec(engine, spec)
        assert plan(engine, spec).empty
        # ... and a spec rebuilt from scratch (fresh Program objects,
        # fresh ImageSpec bytes) still converges: hashes, not identity.
        assert plan(engine, two_container_spec()).empty

    def test_apply_empty_plan_is_noop(self, engine):
        spec = two_container_spec()
        apply_spec(engine, spec)
        cycles = engine.kernel.clock.cycles
        result = apply_spec(engine, spec)
        assert result.plan.empty and not result.containers
        assert engine.kernel.clock.cycles == cycles

    def test_edited_image_plans_exactly_one_replace(self, engine):
        apply_spec(engine, two_container_spec())
        edited = two_container_spec(second_source="mov r0, 99\n    exit")
        deployment = plan(engine, edited)
        assert [type(a) for a in deployment.actions] == [Replace]
        action = deployment.actions[0]
        assert action.name == "second" and action.hook == FC_HOOK_TIMER

    def test_replace_applies_and_converges(self, engine):
        apply_spec(engine, two_container_spec())
        edited = two_container_spec(second_source="mov r0, 99\n    exit")
        result = apply_spec(engine, edited)
        swapped = result.containers[(FC_HOOK_TIMER, "second")]
        assert swapped.name == "second"  # the slot identity survives
        assert engine.execute(swapped).value == 99
        assert plan(engine, edited).empty

    def test_removed_attachment_plans_detach(self, engine):
        spec = two_container_spec()
        apply_spec(engine, spec)
        shrunk = DeploymentSpec(
            name=spec.name, tenants=spec.tenants, images=dict(spec.images),
            attachments=spec.attachments[:1],
        )
        deployment = plan(engine, shrunk)
        assert [type(a) for a in deployment.actions] == [Detach]
        apply(engine, deployment)
        assert [c.name for c in engine.containers()] == ["first"]
        assert plan(engine, shrunk).empty

    def test_unmanaged_containers_are_never_touched(self, engine):
        # A container under a tenant the spec does not declare is out of
        # scope: the reconciler must leave it alone.
        other = engine.create_tenant("carol")
        manual = engine.load(assemble(RETURN_7), tenant=other, name="manual")
        engine.attach(manual, FC_HOOK_TIMER)
        spec = two_container_spec()
        apply_spec(engine, spec)
        assert plan(engine, spec).empty
        assert manual.hook is not None

    def test_tenant_drift_replans_the_slot(self, engine):
        spec = two_container_spec()
        apply_spec(engine, spec)
        moved = DeploymentSpec(
            name=spec.name, tenants=spec.tenants, images=dict(spec.images),
            attachments=(
                spec.attachments[0],
                AttachmentSpec(image="eight", hook=FC_HOOK_TIMER,
                               tenant="alice", name="second"),
            ),
        )
        deployment = plan(engine, moved)
        assert [type(a) for a in deployment.actions] == [Detach, Install]
        apply(engine, deployment)
        second = next(c for c in engine.containers() if c.name == "second")
        assert second.tenant.name == "alice"
        assert plan(engine, moved).empty

    def test_missing_hook_is_a_spec_error(self, engine):
        spec = DeploymentSpec(
            images={"seven": ImageSpec.from_program(assemble(RETURN_7))},
            attachments=(AttachmentSpec(image="seven",
                                        hook="fc.hook.ghost"),),
        )
        with pytest.raises(SpecError, match="neither compiled"):
            plan(engine, spec)

    def test_hook_mode_conflict_is_a_spec_error(self, engine):
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.THREAD))
        with pytest.raises(SpecError, match="fixed in firmware"):
            plan(engine, fanout_spec(tenants=1, instances_per_tenant=1))

    def test_declared_hook_registered_once(self, engine):
        spec = fanout_spec(tenants=1, instances_per_tenant=2)
        deployment = plan(engine, spec)
        registers = [a for a in deployment.actions
                     if isinstance(a, RegisterHook)]
        assert len(registers) == 1
        apply(engine, deployment)
        assert engine.hooks[FC_HOOK_FANOUT].mode is HookMode.SYNC
        assert plan(engine, spec).empty


class TestTransactionalApply:
    def poisoned_spec(self, tenant: str = "alice") -> DeploymentSpec:
        """First install is fine; the second fails verification."""
        return DeploymentSpec(
            name="poisoned",
            tenants=(tenant,),
            images={
                "good": ImageSpec.from_program(assemble(RETURN_7)),
                "bad": ImageSpec.from_program(assemble(UNVERIFIABLE)),
            },
            attachments=(
                AttachmentSpec(image="good", hook=FC_HOOK_TIMER,
                               tenant=tenant, name="good"),
                AttachmentSpec(image="bad", hook=FC_HOOK_TIMER,
                               tenant=tenant, name="bad"),
            ),
        )

    def test_failed_apply_rolls_back_everything(self, engine):
        with pytest.raises(AttachError):
            apply_spec(engine, self.poisoned_spec())
        assert engine.containers() == []
        assert "alice" not in engine.tenants

    def test_failed_apply_preserves_preexisting_state(self, engine):
        base = two_container_spec()
        apply_spec(engine, base)
        before = [c.name for c in engine.containers()]
        with pytest.raises(AttachError):
            apply_spec(engine, self.poisoned_spec(tenant="mallory"))
        assert [c.name for c in engine.containers()] == before
        assert "mallory" not in engine.tenants  # rollback removed it
        # The device still converges on the original spec.
        assert plan(engine, base).empty

    def test_failed_apply_rolls_back_replace(self, engine):
        spec = two_container_spec()
        apply_spec(engine, spec)
        # One valid replace followed by a failing install: the replace
        # must be reverted to the original image.
        poisoned = DeploymentSpec(
            name=spec.name, tenants=spec.tenants,
            images={
                "seven": ImageSpec.from_program(assemble("mov r0, 70\n    exit")),
                "eight": dict(spec.images)["eight"],
                "bad": ImageSpec.from_program(assemble(UNVERIFIABLE)),
            },
            attachments=spec.attachments + (
                AttachmentSpec(image="bad", hook=FC_HOOK_TIMER,
                               tenant="bob", name="bad"),),
        )
        hook = engine.hooks[FC_HOOK_TIMER]
        before = list(hook.containers)
        with pytest.raises(AttachError):
            apply_spec(engine, poisoned)
        first = next(c for c in engine.containers() if c.name == "first")
        assert engine.execute(first).value == 7
        assert plan(engine, spec).empty
        # The original containers themselves are back, in their order.
        assert hook.containers == before

        # One SYNC hook, slots fa and fb, fired once: fa faulted and
        # holds local state.  Replacing fa succeeds, then fb's replace
        # is rejected by the verifier (its own failure path restores
        # fb), and the rollback undoes fa's replace.
        sync = DeploymentSpec(
            name="sync", tenants=("alice",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images={"fa": ImageSpec.from_program(assemble(FAULTING)),
                    "fb": ImageSpec.from_program(assemble(RETURN_8))},
            attachments=tuple(
                AttachmentSpec(image=slot, hook=FC_HOOK_FANOUT,
                               tenant="alice", name=slot)
                for slot in ("fa", "fb")),
        )
        apply_spec(engine, sync)
        fanout = engine.hooks[FC_HOOK_FANOUT]
        fa, fb = fanout.containers
        engine.fire_hook(FC_HOOK_FANOUT)
        fa.local_store.store(1, 42)
        assert (fa.runs, len(fa.faults)) == (1, 1)
        rejected_fb = DeploymentSpec(
            name="sync", tenants=("alice",),
            hooks=sync.hooks,
            images={"fa": ImageSpec.from_program(assemble(RETURN_7)),
                    "fb": ImageSpec.from_program(
                        assemble("mov r0, 1\n    div r0, 0\n    exit"))},
            attachments=sync.attachments,
        )
        assert [type(a) for a in plan(engine, rejected_fb).actions] == [
            Replace, Replace]
        with pytest.raises(AttachError):
            apply_spec(engine, rejected_fb)
        assert fanout.containers == [fa, fb]
        assert fanout.containers[0] is fa and fanout.containers[1] is fb
        assert fa.runs == 1
        assert fa.local_store.fetch(1) == 42
        assert [fault.kind for fault in fa.faults] == ["MemoryFault"]
        assert plan(engine, sync).empty
        # A completed replace keeps the slot's position too.
        swapped = apply_spec(engine, DeploymentSpec(
            name="sync", tenants=("alice",), hooks=sync.hooks,
            images={"fa": ImageSpec.from_program(assemble(RETURN_7)),
                    "fb": sync.images["fb"]},
            attachments=sync.attachments,
        )).containers[(FC_HOOK_FANOUT, "fa")]
        assert fanout.containers == [swapped, fb]
        assert [run.value for run in
                engine.fire_hook(FC_HOOK_FANOUT).runs] == [7, 8]

    def periodic_spec(self, *ticker_names: str) -> DeploymentSpec:
        return DeploymentSpec(
            name="periodic",
            tenants=("alice",),
            images={"seven": ImageSpec.from_program(assemble(RETURN_7))},
            attachments=tuple(AttachmentSpec(
                image="seven", hook=FC_HOOK_TIMER, tenant="alice",
                name=name, period_us=1000.0) for name in ticker_names),
        )

    def test_periodic_attachment_arms_and_cancels(self, engine, kernel):
        result = apply_spec(engine, self.periodic_spec("ticker"))
        ticker = result.containers[(FC_HOOK_TIMER, "ticker")]
        kernel.run(until_us=5500)
        assert ticker.runs == 5
        result.timers[(FC_HOOK_TIMER, "ticker")]()
        kernel.run(until_us=10_000)
        assert ticker.runs == 5

    def test_detach_cancels_the_periodic_firing_it_owned(self, engine,
                                                        kernel):
        """Reconciling a periodic slot away also disarms its cadence —
        otherwise the hook would keep firing (and charging dispatch
        cycles) forever with nothing attached."""
        apply_spec(engine, self.periodic_spec("ticker"))
        fires_spec = self.periodic_spec()  # no attachments any more
        result = apply_spec(engine, fires_spec)
        assert result.detached == [(FC_HOOK_TIMER, "ticker")]
        before = engine.hooks[FC_HOOK_TIMER].fires
        kernel.run(until_us=10_000)
        assert engine.hooks[FC_HOOK_TIMER].fires == before

    def test_drift_reinstall_of_periodic_slot_swaps_the_cadence(
            self, engine, kernel):
        """Detach+Install of the same periodic slot in one plan (tenant
        drift) must cancel the *old* cadence and keep the new one — not
        the other way round, and with no ghost timer left behind."""
        apply_spec(engine, self.periodic_spec("ticker"))
        drifted = DeploymentSpec(
            name="periodic",
            tenants=("alice", "eve"),
            images={"seven": ImageSpec.from_program(assemble(RETURN_7))},
            attachments=(AttachmentSpec(
                image="seven", hook=FC_HOOK_TIMER, tenant="eve",
                name="ticker", period_us=1000.0),),
        )
        result = apply_spec(engine, drifted)
        assert [type(a) for a in result.plan.actions] \
            == [CreateTenant, Detach, Install]
        ticker = result.containers[(FC_HOOK_TIMER, "ticker")]
        kernel.run(until_us=kernel.now_us + 3500)
        assert ticker.runs == 3  # the new install's cadence is live

        # Reconciling the slot away (the spec still declares both
        # tenants, so it owns eve's container) silences the hook
        # completely: no ghost timer from any earlier apply keeps firing.
        removed = DeploymentSpec(name="periodic", tenants=("alice", "eve"),
                                 images=dict(drifted.images))
        result = apply_spec(engine, removed)
        assert result.detached == [(FC_HOOK_TIMER, "ticker")]
        fires = engine.hooks[FC_HOOK_TIMER].fires
        kernel.run(until_us=kernel.now_us + 10_000)
        assert engine.hooks[FC_HOOK_TIMER].fires == fires

    def test_undecodable_image_rolls_back_too(self, engine):
        """A failure that is not an EngineError (here: EncodingError from
        decoding a truncated image at install time) must also trigger the
        transactional rollback."""
        from repro.vm.errors import EncodingError

        spec = DeploymentSpec(
            name="truncated",
            tenants=("alice",),
            images={"torn": ImageSpec(name="torn", text=b"\x95\x00\x00")},
            attachments=(AttachmentSpec(image="torn", hook=FC_HOOK_TIMER,
                                        tenant="alice", name="torn"),),
        )
        with pytest.raises(EncodingError):
            apply_spec(engine, spec)
        assert "alice" not in engine.tenants
        assert engine.containers() == []

    def test_stale_plan_engine_error_still_rolls_back(self, engine):
        """A plan that goes stale between plan() and apply() (here: the
        tenant it wants to create appears in the meantime) raises an
        EngineError — and must roll back like any AttachError."""
        from repro.core import EngineError

        spec = two_container_spec()
        deployment = plan(engine, spec)
        engine.create_tenant("bob")  # overlapping actor wins the race
        with pytest.raises(EngineError):
            apply(engine, deployment)
        assert engine.containers() == []
        assert "alice" not in engine.tenants  # create-tenant rolled back
        # Re-planning against the now-current state converges cleanly.
        apply_spec(engine, spec)
        assert plan(engine, spec).empty


class TestImperativeEquivalence:
    """A spec-built device must be indistinguishable — virtual clock
    included — from the same device built by hand-wired engine calls."""

    def test_fanout_cycles_match_hand_wiring(self):
        spec = fanout_spec(tenants=2, instances_per_tenant=3)
        IMAGE_CACHE.clear()
        declarative = HostingEngine(Kernel(nrf52840()), implementation="jit")
        apply_spec(declarative, spec)

        IMAGE_CACHE.clear()
        imperative = HostingEngine(Kernel(nrf52840()), implementation="jit")
        imperative.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        image = thread_counter_program()
        raw = image.to_bytes()
        for tenant_index in range(2):
            tenant = imperative.create_tenant(f"tenant-{tenant_index}")
            for instance_index in range(3):
                fresh = Program.from_bytes(raw, rodata=image.rodata,
                                           data=image.data)
                container = imperative.load(
                    fresh, tenant=tenant,
                    name=f"fc-{tenant_index}-{instance_index}")
                imperative.attach(container, FC_HOOK_FANOUT)

        assert declarative.kernel.clock.cycles \
            == imperative.kernel.clock.cycles
        assert [c.name for c in declarative.containers()] \
            == [c.name for c in imperative.containers()]

        for fire in range(4):
            declarative.fire_hook(FC_HOOK_FANOUT)
            imperative.fire_hook(FC_HOOK_FANOUT)
        assert declarative.kernel.clock.cycles \
            == imperative.kernel.clock.cycles
        assert declarative.global_store.snapshot() \
            == imperative.global_store.snapshot()
