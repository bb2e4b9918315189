"""Fleet rollouts and cross-board image-cache sharing.

The process-wide IMAGE_CACHE is keyed by content hash only, so a fleet of
*different* board models attaching the same image must share one verify
report and one JIT template — while every board's own virtual clock is
still charged its full modelled verify+install cost (the cache is a host
wall-clock effect, never a device-semantics change).
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, FC_HOOK_TIMER, HostingEngine
from repro.deploy import Fleet, fanout_spec
from repro.rtos import Kernel, esp32_wroom32, gd32vf103, nrf52840
from repro.vm import Program
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads import thread_counter_program


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def expected_jit_attach_cycles(engine: HostingEngine) -> int:
    """Full modelled verify+install cost of every attach on ``engine``."""
    board = engine.kernel.board
    total = 0
    for container in engine.containers():
        total += len(container.program.slots) * board.verify_cycles_per_slot
        total += (container.vm.install_instruction_count
                  * board.jit_install_cycles_per_slot)
    return total


class TestCrossBoardSharing:
    def test_two_boards_share_one_report_and_one_template(self):
        raw = thread_counter_program().to_bytes()
        engines = [
            HostingEngine(Kernel(nrf52840()), implementation="jit"),
            HostingEngine(Kernel(esp32_wroom32()), implementation="jit"),
        ]
        containers = []
        for engine in engines:
            program = Program.from_bytes(raw, name="counter")
            container = engine.load(program, name="counter")
            engine.attach(container, FC_HOOK_TIMER)
            containers.append(container)

        # One image -> one cached verdict, one compiled template, shared
        # across board models.
        stats = IMAGE_CACHE.stats()
        assert stats["report_entries"] == 1
        assert stats["template_entries"] == 1
        assert containers[0].vm.template is containers[1].vm.template

        # ...but each board's virtual clock paid its own full price.
        for engine in engines:
            assert engine.kernel.clock.cycles \
                == expected_jit_attach_cycles(engine)

    def test_second_board_attach_is_pure_cache_hits(self):
        raw = thread_counter_program().to_bytes()
        first = HostingEngine(Kernel(nrf52840()), implementation="jit")
        container = first.load(Program.from_bytes(raw), name="c0")
        first.attach(container, FC_HOOK_TIMER)

        misses_before = IMAGE_CACHE.misses
        second = HostingEngine(Kernel(gd32vf103()), implementation="jit")
        container = second.load(Program.from_bytes(raw), name="c1")
        second.attach(container, FC_HOOK_TIMER)
        assert IMAGE_CACHE.misses == misses_before
        assert second.kernel.clock.cycles \
            == expected_jit_attach_cycles(second)


class TestFleetApply:
    def test_heterogeneous_fleet_converges_every_device(self):
        fleet = Fleet([nrf52840(), esp32_wroom32(), gd32vf103()],
                      implementation="jit")
        spec = fanout_spec(tenants=2, instances_per_tenant=3)
        rollout = fleet.apply(spec)

        for device in fleet.devices:
            assert len(device.engine.containers()) == 6
            assert sorted(device.engine.tenants) == ["tenant-0", "tenant-1"]
        # One image across three board models: one verdict, one template.
        stats = IMAGE_CACHE.stats()
        assert stats["report_entries"] == 1
        assert stats["template_entries"] == 1
        # Devices 2..N attach through pure cache hits.
        for row in rollout.rows()[1:]:
            assert row.cache_misses == 0
            assert row.cache_hits > 0
        # Each device's clock carries its own full modelled install cost.
        for device in fleet.devices:
            assert device.kernel.clock.cycles \
                == expected_jit_attach_cycles(device.engine)

    def test_rollout_is_idempotent_fleet_wide(self):
        fleet = Fleet(2, implementation="jit")
        spec = fanout_spec(tenants=1, instances_per_tenant=2)
        fleet.apply(spec)
        again = fleet.apply(spec)
        assert all(r.actions == 0 for r in again.rows())
        assert again.cycles_per_device() == [0, 0]

    def test_identical_boards_charge_identical_cycles(self):
        fleet = Fleet(4, implementation="jit")
        rollout = fleet.apply(fanout_spec(tenants=2, instances_per_tenant=2))
        cycles = rollout.cycles_per_device()
        assert len(set(cycles)) == 1 and cycles[0] > 0

    def test_fleet_accounting(self):
        fleet = Fleet(3, implementation="jit")
        fleet.apply(fanout_spec(tenants=1, instances_per_tenant=2))
        assert len(fleet.containers()) == 6
        assert fleet.total_ram_bytes() == sum(
            device.engine.total_ram_bytes() for device in fleet.devices)
        runs = fleet.fire_all(FC_HOOK_FANOUT)
        assert runs == 6
        for container in fleet.containers():
            assert container.runs == 1

    def test_fire_all_leaves_identical_stores_per_device(self):
        fleet = Fleet(3, implementation="jit")
        fleet.apply(fanout_spec(tenants=1, instances_per_tenant=2))
        import struct

        context = struct.pack("<QQ", 0, 5)
        fleet.fire_all(FC_HOOK_FANOUT, context)
        snapshots = [dict(device.engine.global_store.snapshot())
                     for device in fleet.devices]
        assert snapshots[0] and all(s == snapshots[0] for s in snapshots)


class TestMembership:
    @pytest.mark.parametrize("boards", [0, []], ids=["count", "list"])
    def test_a_fleet_needs_at_least_one_device(self, boards):
        with pytest.raises(ValueError, match="at least one device"):
            Fleet(boards)

    def test_devices_view_is_cached_until_membership_changes(self):
        fleet = Fleet(3)
        view = fleet.devices
        assert fleet.devices is view
        fleet.add_device()
        grown = fleet.devices
        assert grown is not view
        assert [device.name for device in grown] \
            == ["dev0", "dev1", "dev2", "dev3"]
        fleet.evict("dev0")
        assert [device.name for device in fleet.devices] \
            == ["dev1", "dev2", "dev3"]
        assert len(fleet) == 3

    def test_lookup_by_name_and_wiring_index(self):
        fleet = Fleet(3)
        assert fleet.device("dev1") is fleet.devices[1]
        assert fleet.index_of("dev2") == 2
        with pytest.raises(ValueError, match="already registered"):
            fleet.add_device(name="dev1")
        for lookup in (fleet.device, fleet.index_of, fleet.evict):
            with pytest.raises(KeyError, match="no fleet device"):
                lookup("dev9")

    def test_wiring_indices_are_never_reused(self):
        fleet = Fleet(2)
        fleet.evict("dev1")
        assert fleet.add_device().name == "dev2"
        assert fleet.index_of("dev2") == 2
        named = fleet.add_device(name="spare")
        assert fleet.index_of("spare") == named.index == 3
