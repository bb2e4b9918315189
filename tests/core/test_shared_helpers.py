"""One helper table for every device: a helper reaches only its own engine.

Like the bpfapi linked into every device's firmware, the default helpers
are built once per process (:data:`~repro.core.syscalls.DEFAULT_HELPERS`)
and every engine's registry shares that table.  A helper is a plain
function of the calling VM and finds its device as ``vm.services``,
which every attach path sets to the attaching engine.  These tests hold
that the sharing leaks nothing: stores, the trace log and SAUL reads
stay per device, a :meth:`~repro.vm.helpers.HelperRegistry.register`
stays on its own engine, a VM no engine attached reaches no engine, and
each way a container gets (re-)attached leaves its VM pointing at the
engine that attached it.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DEFAULT_HELPERS,
    FC_HOOK_FANOUT,
    FC_HOOK_TIMER,
    HostingEngine,
)
from repro.core.container import VM_CLASSES
from repro.core.errors import AttachError
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    apply,
    plan,
)
from repro.rtos import SENSE_TEMP, Kernel, Phydat, SaulDevice
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.errors import HelperFault
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.supervisor import SupervisorConfig

#: Reads SAUL device 1 and writes the reading to the global (key 1),
#: tenant (key 2) and local (key 3) stores and, as ``v=<reading>``, to
#: the trace log; returns the reading.
PROBE = """
    mov r1, 1
    mov r2, r10
    add r2, 8
    call bpf_saul_reg_read
    ldxh r6, [r10+8]
    mov r1, 1
    mov r2, r6
    call bpf_store_global
    mov r1, 2
    mov r2, r6
    call bpf_store_tenant
    mov r1, 3
    mov r2, r6
    call bpf_store_local
    stw [r10+32], 0x64253d76
    stb [r10+36], 0
    mov r1, r10
    add r1, 32
    mov r2, r6
    call bpf_printf
    mov r0, r6
    exit
"""

STORE_GLOBAL = "mov r1, 1\n    mov r2, 9\n    call bpf_store_global\n    exit"
RETURN_7 = "mov r0, 7\n    exit"
RETURN_8 = "mov r0, 8\n    exit"
#: Rejected by the verifier (division by an immediate zero).
UNVERIFIABLE = "mov r0, 1\n    div r0, 0\n    exit"
CRASHER = "lddw r1, 0xbad0000\n    ldxdw r0, [r1]\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def _probe_spec() -> DeploymentSpec:
    return DeploymentSpec(
        name="probe",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"probe": ImageSpec.from_program(assemble(PROBE))},
        attachments=(AttachmentSpec(image="probe", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="probe"),),
    )


def _sensor(reading: int) -> SaulDevice:
    return SaulDevice("probe-temp", SENSE_TEMP,
                      lambda: Phydat((reading,), unit="C", scale=-2))


def _state(engine: HostingEngine) -> tuple:
    """What the probe can have written on ``engine``."""
    (container,) = engine.containers()
    return (engine.global_store.fetch(1),
            engine.tenants["ops"].store.fetch(2),
            container.local_store.fetch(3),
            list(engine.trace_log))


class TestPerDeviceState:
    def test_fleet_devices_running_one_image_keep_their_own_state(self):
        fleet = Fleet(2)
        for device, reading in zip(fleet.devices, (101, 202)):
            device.engine.saul.register(_sensor(reading))
        fleet.apply(_probe_spec())
        one, two = (device.engine for device in fleet.devices)
        # One image, one helper table: everything but the state is shared.
        (first,), (second,) = one.containers(), two.containers()
        assert first.vm.prototype is second.vm.prototype
        assert one.helpers.table is two.helpers.table is DEFAULT_HELPERS.table
        # One slot shape's limits and prices, shared by both devices.
        assert first.facts is second.facts
        assert first.facts.cost is one.board.cost_profile(one.implementation)

        assert one.fire_hook(FC_HOOK_FANOUT).results == [101]
        assert _state(one) == (101, 101, 101, ["v=101"])
        assert _state(two) == (0, 0, 0, [])
        sensor_two = two.saul.find_nth(0)
        assert sensor_two.reads == 0

        assert two.fire_hook(FC_HOOK_FANOUT).results == [202]
        assert _state(two) == (202, 202, 202, ["v=202"])
        assert _state(one) == (101, 101, 101, ["v=101"])
        assert (one.saul.find_nth(0).reads, sensor_two.reads) == (1, 1)


class TestRegisterStaysOnItsEngine:
    def test_register_copies_the_shared_table_first(self):
        one, two = HostingEngine(Kernel()), HostingEngine(Kernel())
        assert one.helpers is not two.helpers
        ids = DEFAULT_HELPERS.ids()
        default_fetch = DEFAULT_HELPERS.table[0x13]

        one.helpers.register(0x7E, lambda vm, *args: 5, cost_key="kv")
        # Override a default helper too: the other engine keeps the
        # shared one.
        one.helpers.register(0x13, lambda vm, *args: 0, cost_key="kv")

        assert 0x7E in one.helpers and one.helpers.ids() == ids | {0x7E}
        assert one.helpers.table is not DEFAULT_HELPERS.table
        assert 0x7E not in two.helpers and 0x7E not in DEFAULT_HELPERS
        assert two.helpers.table is DEFAULT_HELPERS.table
        assert two.helpers.ids() is ids
        assert DEFAULT_HELPERS.table[0x13] is default_fetch
        assert two.helpers.table[0x13] is default_fetch

        call_7e = "call 0x7e\n    exit"
        assert one.execute(one.attach(one.load(assemble(call_7e)),
                                      FC_HOOK_TIMER)).value == 5
        with pytest.raises(AttachError):  # the verifier knows no 0x7e here
            two.attach(two.load(assemble(call_7e)), FC_HOOK_TIMER)

    def test_a_second_register_does_not_copy_again(self):
        engine = HostingEngine(Kernel())
        engine.helpers.register(0x7E, lambda vm, *args: 1)
        table = engine.helpers.table
        engine.helpers.register(0x7F, lambda vm, *args: 2)
        assert engine.helpers.table is table
        assert {0x7E, 0x7F} <= engine.helpers.ids()


class TestStandaloneVm:
    @pytest.mark.parametrize("implementation", sorted(VM_CLASSES))
    @pytest.mark.parametrize("source,message", [
        (STORE_GLOBAL, "outside a container execution"),
        ("call bpf_now_ms\n    exit", "outside a hosting engine"),
    ])
    def test_helper_without_an_engine_faults(self, implementation, source,
                                             message):
        vm = VM_CLASSES[implementation](assemble(source),
                                        helpers=DEFAULT_HELPERS)
        assert vm.services is None
        with pytest.raises(HelperFault, match=message):
            vm.run()

    @pytest.mark.parametrize("implementation", sorted(VM_CLASSES))
    def test_reaches_no_engine_even_mid_execution(self, implementation):
        """A standalone VM run from inside another engine's container
        (a helper that runs it) still reaches no engine: not the one
        executing, whose current container is set."""
        engine = HostingEngine(Kernel(), implementation=implementation)
        standalone = VM_CLASSES[implementation](assemble(STORE_GLOBAL),
                                                helpers=engine.helpers)
        faults = []

        def run_standalone(vm, *args):
            assert vm.services is engine
            try:
                standalone.run()
            except HelperFault as exc:
                faults.append(str(exc))
            return 1

        engine.helpers.register(0x7E, run_standalone)
        host = engine.attach(engine.load(assemble("call 0x7e\n    exit")),
                             FC_HOOK_TIMER)
        assert engine.execute(host).value == 1
        assert faults == [
            "[pc=2] helper called outside a container execution"]
        assert engine.global_store.fetch(1) == 0
        assert engine.global_store.stores == 0


class TestEveryAttachPathSetsServices:
    def test_attach_sets_the_attaching_engine(self):
        one, two = HostingEngine(Kernel()), HostingEngine(Kernel())
        first = one.attach(one.load(assemble(RETURN_7)), FC_HOOK_TIMER)
        second = two.attach(two.load(assemble(RETURN_7)), FC_HOOK_TIMER)
        assert first.vm.services is one
        assert second.vm.services is two

    def test_replace_and_its_failure_path(self):
        engine = HostingEngine(Kernel())
        old = engine.attach(engine.load(assemble(RETURN_7)), FC_HOOK_TIMER)
        fresh = engine.replace(old, assemble(RETURN_8))
        assert fresh.vm.services is engine
        # A rejected replacement re-attaches the old container: its VM
        # is rebuilt and points at the engine again.
        before = fresh.vm
        with pytest.raises(AttachError):
            engine.replace(fresh, assemble(UNVERIFIABLE))
        assert fresh.vm is not before and fresh.vm.services is engine

    def test_probation_reattach(self):
        engine = HostingEngine(Kernel(), supervisor=SupervisorConfig(
            fault_streak=1, probation_base_us=1_000.0))
        container = engine.attach(engine.load(assemble(CRASHER)),
                                  FC_HOOK_TIMER)
        before = container.vm
        engine.execute(container)
        assert container.hook is None  # quarantined
        engine.kernel.run(until_us=engine.kernel.now_us + 2_000.0)
        assert container.hook is not None
        assert container.vm is not before
        assert container.vm.services is engine

    def test_apply_rollback_puts_back_with_services(self):
        engine = HostingEngine(Kernel())
        images = {"fa": ImageSpec.from_program(assemble(RETURN_7)),
                  "fb": ImageSpec.from_program(assemble(RETURN_8))}
        spec = DeploymentSpec(
            name="sync", tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images=images,
            attachments=tuple(
                AttachmentSpec(image=slot, hook=FC_HOOK_FANOUT,
                               tenant="ops", name=slot)
                for slot in ("fa", "fb")),
        )
        apply(engine, plan(engine, spec))
        fa, fb = engine.hooks[FC_HOOK_FANOUT].containers
        before = fa.vm
        # fa's replace succeeds, fb's is rejected: the rollback puts fa
        # itself back (``_put_back``), re-attached.
        return_9 = assemble("mov r0, 9\n    exit")
        rejected = DeploymentSpec(
            name="sync", tenants=("ops",), hooks=spec.hooks,
            images={"fa": ImageSpec.from_program(return_9),
                    "fb": ImageSpec.from_program(assemble(UNVERIFIABLE))},
            attachments=spec.attachments,
        )
        with pytest.raises(AttachError):
            apply(engine, plan(engine, rejected))
        assert engine.hooks[FC_HOOK_FANOUT].containers == [fa, fb]
        assert fa.vm is not before
        assert fa.vm.services is engine and fb.vm.services is engine

    def test_reboot_rebuilds_onto_the_new_engine(self):
        publisher = build_fleet_publisher(devices=2)
        result = publisher.publish(_probe_spec())
        assert result.ok, result.reason
        victim = publisher.fleet.devices[1]
        old_engine = victim.engine
        publisher.crash_device(victim)
        publisher.reboot_device(victim)
        assert victim.engine is not old_engine
        containers = victim.engine.containers()
        assert [container.name for container in containers] == ["probe"]
        assert all(container.vm.services is victim.engine
                   for container in containers)
        # The bystander's containers still point at its own engine.
        bystander = publisher.fleet.devices[0]
        assert all(container.vm.services is bystander.engine
                   for container in bystander.engine.containers())
