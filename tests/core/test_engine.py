"""Hosting-engine behaviour: lifecycle, hooks, fault containment, accounting."""

from __future__ import annotations

import struct

import pytest

from repro.core import (
    AttachError,
    ContainerContract,
    ContainerState,
    EngineError,
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    Hook,
    HookMode,
    HookPolicy,
    HostingEngine,
    UnknownHookError,
)
from repro.core.container import VM_CLASSES
from repro.deploy import ImageSpec
from repro.rtos import Kernel, Sleep
from repro.vm import assemble
from repro.vm.helpers import BPF_FETCH_GLOBAL
from repro.workloads import thread_counter_program

RETURN_7 = "mov r0, 7\n    exit"
CRASHER = "lddw r1, 0xbad0000\n    ldxdw r0, [r1]\n    exit"


class TestLifecycle:
    def test_load_attach_execute(self, engine):
        container = engine.load(assemble(RETURN_7))
        engine.attach(container, FC_HOOK_TIMER)
        assert container.state is ContainerState.ATTACHED
        run = engine.execute(container)
        assert run.ok and run.value == 7

    def test_detach(self, engine):
        container = engine.load(assemble(RETURN_7))
        engine.attach(container, FC_HOOK_TIMER)
        engine.detach(container)
        assert container.state is ContainerState.DETACHED
        assert not engine.hook(FC_HOOK_TIMER).containers

    def test_double_attach_rejected(self, engine):
        container = engine.load(assemble(RETURN_7))
        engine.attach(container, FC_HOOK_TIMER)
        with pytest.raises(AttachError, match="already attached"):
            engine.attach(container, FC_HOOK_SCHED)

    def test_unknown_hook_rejected(self, engine):
        container = engine.load(assemble(RETURN_7))
        with pytest.raises(UnknownHookError):
            engine.attach(container, "fc.hook.nonexistent")

    @pytest.mark.parametrize("spec", [
        ImageSpec.from_program(assemble(RETURN_7, name="r7")),
        ImageSpec.from_wasm("module pages=1\nfunc main params=1 locals=0\n"
                            "    i32.const 7\n    return\nend\n", name="r7"),
        ImageSpec.from_script("return 7;", name="r7"),
    ], ids=lambda spec: spec.runtime)
    def test_execute_before_attach_raises(self, engine, spec):
        """Only ``attach`` binds a runtime, so a loaded-only container of
        any runtime is refused instead of being run."""
        container = engine.load(spec.instantiate(), name=spec.name)
        with pytest.raises(EngineError, match="not attached"):
            engine.execute(container)
        assert container.runtime is None

    def test_attach_runs_preflight(self, engine):
        bad = engine.load(assemble("ja +2\n    exit\n    exit"))
        with pytest.raises(AttachError, match="rejected"):
            engine.attach(bad, FC_HOOK_TIMER)

    def test_helper_contract_enforced_at_attach(self, engine):
        uses_kv = engine.load(
            assemble("mov r1, 1\n    mov r2, 2\n    call bpf_store_global\n    exit"),
            contract=ContainerContract(helpers=frozenset({BPF_FETCH_GLOBAL})),
        )
        with pytest.raises(AttachError):
            engine.attach(uses_kv, FC_HOOK_TIMER)

    def test_replace_hot_swaps(self, engine):
        old = engine.load(assemble(RETURN_7))
        engine.attach(old, FC_HOOK_TIMER)
        new = engine.replace(old, assemble("mov r0, 8\n    exit"))
        assert old.state is ContainerState.DETACHED
        assert engine.execute(new).value == 8
        assert engine.hook(FC_HOOK_TIMER).containers == [new]

    def test_replace_preserves_container_name(self, engine):
        """Hot swap keeps the deployed slot's name: the container is the
        stable identity operators track; only the image content changes.
        (Regression: replace used to silently rename the container to the
        new program's name.)"""
        old = engine.load(assemble(RETURN_7), name="slot-a")
        engine.attach(old, FC_HOOK_TIMER)
        new_program = assemble("mov r0, 8\n    exit")
        new_program.name = "v2-image"
        new = engine.replace(old, new_program)
        assert new.name == "slot-a"
        assert new.program is new_program
        assert [c.name for c in engine.hook(FC_HOOK_TIMER).containers] \
            == ["slot-a"]

    def test_replace_with_rejected_image_restores_old_container(self, engine):
        """Replace is failure-atomic: a new image the verifier rejects
        must not leave the slot empty (regression: the old container
        stayed detached)."""
        old = engine.load(assemble(RETURN_7), name="slot-a")
        engine.attach(old, FC_HOOK_TIMER)
        with pytest.raises(AttachError, match="rejected"):
            engine.replace(old, assemble("mov r10, 1\n    exit"))
        assert engine.hook(FC_HOOK_TIMER).containers == [old]
        assert old.state is ContainerState.ATTACHED
        assert engine.execute(old).value == 7

    def test_fault_total_survives_detach_and_replace(self, engine):
        """The device-lifetime fault counter outlives the containers that
        faulted — the signal canary gating reads."""
        faulty = engine.load(
            assemble("lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"))
        engine.attach(faulty, FC_HOOK_TIMER)
        assert engine.fault_total == 0
        engine.execute(faulty)
        engine.execute(faulty)
        assert engine.fault_total == 2
        assert {(hook, container.name): container.fault_count
                for container, hook in engine.slots()} \
            == {(FC_HOOK_TIMER, "app"): 2}
        engine.replace(faulty, assemble(RETURN_7))
        assert engine.fault_total == 2  # survives the hot swap

    def test_all_implementations_attach_and_run(self, kernel):
        for implementation in VM_CLASSES:
            engine = HostingEngine(Kernel(kernel.board), implementation=implementation)
            container = engine.load(assemble(RETURN_7))
            engine.attach(container, FC_HOOK_TIMER)
            assert engine.execute(container).value == 7


class TestFaultContainment:
    def test_fault_is_recorded_not_raised(self, engine):
        container = engine.load(assemble(CRASHER))
        engine.attach(container, FC_HOOK_TIMER)
        run = engine.execute(container)
        assert not run.ok
        assert run.fault.kind == "MemoryFault"
        assert container.fault_count == 1

    @pytest.mark.parametrize("implementation", sorted(VM_CLASSES))
    def test_fault_record_names_the_faulting_load(self, kernel,
                                                  implementation):
        engine = HostingEngine(Kernel(kernel.board),
                               implementation=implementation)
        container = engine.load(assemble(CRASHER))
        engine.attach(container, FC_HOOK_TIMER)
        fault = engine.execute(container).fault
        assert fault.pc == 2  # the ldxdw, after the two-slot lddw
        assert fault.message == ("[pc=2] read of 8 B at 0x0bad0000 "
                                 "outside all granted regions")

    def test_faulting_container_detached_after_threshold(self, engine):
        container = engine.load(assemble(CRASHER))
        engine.attach(container, FC_HOOK_TIMER)
        for _ in range(engine.supervisor.config.fault_streak):
            engine.execute(container)
        assert container.state is ContainerState.DETACHED

    def test_other_containers_unaffected_by_fault(self, engine):
        bad = engine.load(assemble(CRASHER), name="bad")
        good = engine.load(assemble(RETURN_7), name="good")
        engine.attach(bad, FC_HOOK_SCHED)
        engine.attach(good, FC_HOOK_SCHED)
        firing = engine.fire_hook(FC_HOOK_SCHED, struct.pack("<QQ", 0, 1))
        assert [run.ok for run in firing.runs] == [False, True]
        assert firing.runs[1].value == 7

    def test_faulted_run_still_charges_cycles(self, engine):
        container = engine.load(assemble(CRASHER))
        engine.attach(container, FC_HOOK_TIMER)
        run = engine.execute(container)
        assert run.cycles > 0


class TestHooks:
    def test_fire_empty_hook_charges_dispatch_only(self, engine, kernel):
        before = kernel.clock.cycles
        firing = engine.fire_hook(FC_HOOK_SCHED, struct.pack("<QQ", 0, 0))
        assert not firing.runs
        assert kernel.clock.cycles - before == kernel.board.hook_dispatch_cycles

    def test_multiple_containers_same_hook_run_in_order(self, engine):
        first = engine.load(assemble("mov r0, 1\n    exit"), name="one")
        second = engine.load(assemble("mov r0, 2\n    exit"), name="two")
        engine.attach(first, FC_HOOK_SCHED)
        engine.attach(second, FC_HOOK_SCHED)
        firing = engine.fire_hook(FC_HOOK_SCHED, struct.pack("<QQ", 0, 1))
        assert firing.results == [1, 2]

    def test_hook_uuid_lookup(self, engine):
        hook = engine.hook(FC_HOOK_SCHED)
        assert engine.hook_by_uuid(str(hook.uuid)) is hook
        with pytest.raises(UnknownHookError):
            engine.hook_by_uuid("00000000-0000-0000-0000-000000000000")

    def test_custom_hook_registration(self, engine):
        hook = engine.register_hook(Hook("fc.hook.custom", mode=HookMode.SYNC,
                                         policy=HookPolicy()))
        container = engine.load(assemble(RETURN_7))
        engine.attach(container, "fc.hook.custom")
        assert engine.fire_hook("fc.hook.custom").results == [7]
        assert hook.fires == 1

    def test_sched_hook_fires_on_real_context_switches(self, engine, kernel):
        container = engine.load(thread_counter_program())
        engine.attach(container, FC_HOOK_SCHED)

        def worker(thread):
            for _ in range(3):
                thread.charge(500)
                yield Sleep(100)

        t1 = kernel.create_thread("w1", worker, priority=5)
        t2 = kernel.create_thread("w2", worker, priority=5)
        kernel.run_until_idle()
        counters = engine.global_store.snapshot()
        assert counters[t1.pid] == t1.activations
        assert counters[t2.pid] == t2.activations

    def test_thread_mode_hook_runs_in_worker(self, engine, kernel):
        container = engine.load(assemble(RETURN_7))
        engine.attach(container, FC_HOOK_TIMER)
        assert container.worker is not None
        results = []
        engine.fire_hook(FC_HOOK_TIMER, b"\x00" * 8,
                         done=lambda run: results.append(run.value))
        kernel.run_until_idle()
        assert results == [7]

    def test_attach_periodic_runs_repeatedly(self, engine, kernel):
        container = engine.load(assemble(RETURN_7))
        cancel = engine.attach_periodic(container, period_us=1000)
        kernel.run(until_us=5500)
        cancel()
        first_batch = container.runs
        assert first_batch >= 4
        kernel.run(until_us=10_000)
        assert container.runs == first_batch  # cancelled


class TestAccounting:
    def test_container_ram_includes_image_and_store(self, engine):
        container = engine.load(assemble(RETURN_7))
        engine.attach(container, FC_HOOK_TIMER)
        expected = (container.vm.ram_bytes + container.program.image_size
                    + container.local_store.ram_bytes)
        assert container.ram_bytes == expected

    def test_engine_ram_aggregates(self, engine):
        tenant = engine.create_tenant("A")
        one = engine.load(assemble(RETURN_7), tenant=tenant, name="c1")
        two = engine.load(assemble(RETURN_7), tenant=tenant, name="c2")
        engine.attach(one, FC_HOOK_TIMER)
        engine.attach(two, FC_HOOK_SCHED)
        total = engine.total_ram_bytes()
        assert total > 2 * 624

    def test_trace_helper_collects_output(self, engine):
        program = assemble(
            "lddwr r1, 0\n    mov r2, 42\n    call bpf_printf\n    exit",
            rodata=b"value=%d\x00",
        )
        container = engine.load(program)
        engine.attach(container, FC_HOOK_TIMER)
        engine.execute(container)
        assert engine.trace_log == ["value=42"]


class TestTenantMembership:
    """A tenant's containers are its live ones (§10.3 RAM accounting)."""

    def test_replaces_keep_modelled_ram_flat(self, engine):
        tenant = engine.create_tenant("A")
        slot = engine.load(assemble(RETURN_7), tenant=tenant, name="slot")
        other = engine.load(assemble(RETURN_7), tenant=tenant, name="other")
        engine.attach(slot, FC_HOOK_TIMER)
        engine.attach(other, FC_HOOK_SCHED)
        tenant_ram = tenant.ram_bytes
        engine_ram = engine.total_ram_bytes()
        for value in range(8, 13):  # equal-size images, new content
            slot = engine.replace(slot, assemble(f"mov r0, {value}\n    exit"))
            assert tenant.ram_bytes == tenant_ram
            assert engine.total_ram_bytes() == engine_ram
        assert len(tenant.containers) == 2
        assert set(tenant.containers) == {slot, other}

    def test_rejected_replace_leaves_membership_unchanged(self, engine):
        tenant = engine.create_tenant("A")
        slot = engine.load(assemble(RETURN_7), tenant=tenant, name="slot")
        other = engine.load(assemble(RETURN_7), tenant=tenant, name="other")
        engine.attach(slot, FC_HOOK_TIMER)
        engine.attach(other, FC_HOOK_SCHED)
        tenant_ram = tenant.ram_bytes
        with pytest.raises(AttachError, match="rejected"):
            engine.replace(slot, assemble("mov r10, 1\n    exit"))
        assert len(tenant.containers) == 2
        assert set(tenant.containers) == {slot, other}
        assert tenant.ram_bytes == tenant_ram

    def test_detach_releases_and_attach_readopts(self, engine):
        tenant = engine.create_tenant("A")
        container = engine.load(assemble(RETURN_7), tenant=tenant)
        assert tenant.containers == [container]
        engine.attach(container, FC_HOOK_TIMER)
        engine.detach(container)
        assert tenant.containers == []
        engine.attach(container, FC_HOOK_TIMER)
        assert tenant.containers == [container]

    def test_rejected_attach_drops_the_image(self, engine):
        tenant = engine.create_tenant("A")
        container = engine.load(assemble("mov r10, 1\n    exit"),
                                tenant=tenant)
        with pytest.raises(AttachError, match="rejected"):
            engine.attach(container, FC_HOOK_TIMER)
        assert tenant.containers == []
