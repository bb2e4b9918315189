"""Sharded co-run invariants: wall-clock-only, bit-identical modelling.

The shard executor partitions device kernels across co-run shards for
wall-clock throughput.  Modelled state must not notice: per-device
virtual clocks and charged cycles are pinned identical between the
single-loop (``shards=1``) and sharded executions, shard assignment is
deterministic, and the publish-scoped release cache (a wall-clock-only
decode memo) never changes a device's cycle bill.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    ShardExecutor,
    auto_shard_count,
)
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(source: str, name: str = "release") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


def modelled_state(options: PublishOptions, devices: int = 8,
                   seed: int = 11) -> tuple[dict, dict, bool]:
    """(per-device cycles charged, per-device final clock, ok)."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices, seed=seed)
    result = publisher.publish(make_spec(GOOD, "v1"), options)
    charged = {row.device.name: row.cycles_charged for row in result.rows()}
    clocks = {device.name: device.kernel.clock.cycles
              for device in publisher.fleet.devices}
    return charged, clocks, result.ok


def named(count: int) -> list:
    from types import SimpleNamespace

    return [SimpleNamespace(name=f"dev{i}") for i in range(count)]


class TestShardExecutor:
    def test_assignment_is_deterministic_round_robin(self):
        executor = ShardExecutor(named(10), shards=3)
        assert executor.assignment() == {
            "dev0": 0, "dev3": 0, "dev6": 0, "dev9": 0,
            "dev1": 1, "dev4": 1, "dev7": 1,
            "dev2": 2, "dev5": 2, "dev8": 2,
        }

    def test_one_shard_reproduces_the_flat_loop_order(self):
        devices = named(5)
        executor = ShardExecutor(devices, shards=1)
        assert list(executor.iter_pending()) == devices

    def test_converged_shards_are_skipped(self):
        executor = ShardExecutor(named(6), shards=3)
        for name in ("dev0", "dev3"):  # all of shard 0
            executor.discard(name)
        assert [device.name for device in executor.iter_pending()] \
            == ["dev1", "dev4", "dev2", "dev5"]

    def test_auto_sizing_scales_and_clamps(self):
        assert auto_shard_count(1) == 1
        assert auto_shard_count(64) == 1
        assert auto_shard_count(65) == 2
        assert auto_shard_count(1024) == 16
        assert auto_shard_count(100_000) == 16  # clamped
        # shards never exceed devices
        assert ShardExecutor(named(2), shards=None).shard_count <= 2


class TestModelledCyclesInvariant:
    def test_sharding_never_changes_cycles_or_clocks(self):
        """shards=1 vs shards=4 vs auto: same per-device cycle bill and
        final virtual clock — sharding is wall-clock-only."""
        flat = modelled_state(PublishOptions(shards=1))
        sharded = modelled_state(PublishOptions(shards=4))
        auto = modelled_state(PublishOptions(shards=None))
        assert flat[2] and sharded[2] and auto[2]
        assert flat[0] == sharded[0] == auto[0]
        assert flat[1] == sharded[1] == auto[1]

    def test_release_cache_is_wall_clock_only(self):
        """Sharing one decoded release across workers must not change
        any device's charged cycles: decode memoization is a host-side
        (wall-clock) effect, like the image cache."""
        cold = modelled_state(PublishOptions(share_release=False))
        shared = modelled_state(PublishOptions(share_release=True))
        assert cold[2] and shared[2]
        assert cold[0] == shared[0]
        assert cold[1] == shared[1]

    def test_multicast_cycles_are_shard_independent(self):
        """The scale profile changes the *protocol* (one broadcast, no
        per-device fetch), so its cycle bill differs from unicast — but
        it must still be identical across shard counts."""
        one = modelled_state(PublishOptions.scale(shards=1))
        many = modelled_state(PublishOptions.scale(shards=4))
        assert one[2] and many[2]
        assert one[0] == many[0]
        assert one[1] == many[1]

    def test_identical_runs_are_bit_identical(self):
        """Same seed, same options, fresh rigs: the whole modelled
        outcome replays — the property seeded chaos sweeps rely on."""
        first = modelled_state(PublishOptions.scale(), devices=12, seed=23)
        second = modelled_state(PublishOptions.scale(), devices=12, seed=23)
        assert first == second
