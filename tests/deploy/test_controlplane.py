"""The maintainer's lifecycle: membership, publishing, status rows.

:class:`~repro.deploy.Fleet` owns device membership (add, look up and
evict by name, wiring indices never reused), and
:class:`~repro.deploy.FleetPublisher` owns the radio lifecycle on top
of it: adding a wired device at runtime, evicting one, publishing, and
streaming typed per-device status rows.  These tests also pin the one
fleet result (every entry point returns a ``FleetResult`` of
``DeviceRow`` rows, with one ``ok`` rule on both transports) and
``PublishOptions`` as the only way to configure a publish.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    DeviceRow,
    FleetResult,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"
BETTER = "mov r0, 8\n    exit"
#: Verifies clean, faults at runtime on an unmapped load.
POISON = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"


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


class TestRegistry:
    def test_fleet_and_publisher_share_one_membership(self):
        publisher = build_fleet_publisher(devices=3)
        fleet = publisher.fleet
        assert [d.name for d in fleet.devices] == ["dev0", "dev1", "dev2"]
        assert fleet.device("dev1") is fleet.devices[1]

    def test_register_at_runtime_joins_publishes(self):
        publisher = build_fleet_publisher(devices=2)
        late = publisher.add_device()
        assert late.name == "dev2" and len(publisher.fleet) == 3
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale())
        assert result.ok
        assert {row.device.name for row in result.rows()} \
            == {"dev0", "dev1", "dev2"}

    def test_duplicate_name_is_rejected(self):
        publisher = build_fleet_publisher(devices=2)
        with pytest.raises(ValueError, match="already registered"):
            publisher.add_device(name="dev1")

    def test_evicted_device_leaves_the_air(self):
        publisher = build_fleet_publisher(devices=3)
        gone = publisher.evict_device("dev1")
        assert gone.name == "dev1" and len(publisher.fleet) == 2
        with pytest.raises(KeyError, match="no fleet device"):
            publisher.fleet.device("dev1")
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale())
        assert result.ok
        assert {row.device.name for row in result.rows()} == {"dev0", "dev2"}

    def test_retired_indices_are_never_reused(self):
        """A device registered after an eviction must not inherit the
        dead device's radio address (in-flight frames!)."""
        publisher = build_fleet_publisher(devices=3)
        publisher.evict_device("dev2")
        replacement = publisher.add_device()
        assert replacement.name == "dev3"
        assert publisher.fleet.device("dev3").index == 3

    def test_evict_unknown_device_raises(self):
        publisher = build_fleet_publisher(devices=2)
        with pytest.raises(KeyError, match="no fleet device"):
            publisher.evict_device("dev9")


class TestReleases:
    def test_bare_publishes_sign_successive_sequences(self):
        publisher = build_fleet_publisher(devices=2)
        spec_one, spec_two = make_spec(GOOD, "v1"), make_spec(BETTER, "v2")
        one = publisher.publish(spec_one, PublishOptions.scale())
        two = publisher.publish(spec_two, PublishOptions.scale())
        assert one.ok and two.ok
        assert (one.sequence_number, two.sequence_number) == (1, 2)
        assert one.spec is spec_one and two.spec is spec_two
        assert one.payload_bytes > 0 and two.payload_bytes > 0

    def test_bare_publish_follows_a_chosen_sequence(self):
        publisher = build_fleet_publisher(devices=2)
        publisher.publish(make_spec(GOOD, "v1"),
                          PublishOptions.scale(sequence_number=5))
        result = publisher.publish(make_spec(BETTER, "v2"),
                                   PublishOptions.scale())
        assert result.ok
        assert result.sequence_number == 6
        assert all(row.sequence == 6 and row.spec == "v2"
                   for row in publisher.status())

    def test_scale_profile_multicasts(self):
        publisher = build_fleet_publisher(devices=4)
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale())
        assert result.ok and result.multicast

    def test_publishing_under_a_chosen_sequence(self):
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(
            make_spec(GOOD, "v1"), PublishOptions.scale(sequence_number=5))
        assert result.ok
        assert result.sequence_number == 5
        assert all(row.sequence == result.sequence_number
                   for row in publisher.status())

    def test_canary_is_staged_and_health_gated(self):
        publisher = build_fleet_publisher(devices=4)
        publisher.publish(make_spec(GOOD, "v1"), PublishOptions.scale())
        result = publisher.publish(
            make_spec(BETTER, "v2"),
            PublishOptions.scale(canary_count=1, bake_us=200_000.0))
        assert result.ok and result.promoted
        roles = [row.role for row in result.rows()]
        assert roles.count("canary") == 1
        assert roles.count("control") == 3


class TestStatusRows:
    def test_streams_one_typed_row_per_device(self):
        publisher = build_fleet_publisher(devices=3)
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale())
        rows = list(publisher.status())
        assert [row.name for row in rows] == ["dev0", "dev1", "dev2"]
        assert [row.index for row in rows] == [0, 1, 2]
        for row in rows:
            assert row.board == "nrf52840"
            assert row.sequence == result.sequence_number
            assert row.spec == "v1"
            assert row.reboots == 0 and not row.halted
            assert row.cycles > 0
            assert row.radio_uj > 0.0

    def test_unpublished_fleet_reports_zero_sequence(self):
        publisher = build_fleet_publisher(devices=2)
        for row in publisher.status():
            assert row.sequence == 0 and row.spec is None


class TestResultProtocol:
    def test_all_five_entry_points_return_one_fleet_result(self):
        publisher = build_fleet_publisher(devices=3)
        results = [
            publisher.publish(make_spec(GOOD, "v1"), PublishOptions.scale()),
            publisher.publish(make_spec(BETTER, "v2"),
                              PublishOptions.scale(canary_count=1,
                                                   bake_us=200_000.0)),
            publisher.publish(make_spec(GOOD, "v3")),
            publisher.fleet.apply(make_spec(GOOD, "v1")),
            publisher.fleet.canary_rollout(make_spec(BETTER, "v2"),
                                           canary_count=1,
                                           bake_us=200_000.0),
        ]
        for result in results:
            assert type(result) is FleetResult
            assert result.ok is True
            assert result.wall_s >= 0.0
            assert result.rows()
            assert all(type(row) is DeviceRow for row in result.rows())

    def test_direct_and_radio_canaries_share_one_result_shape(self):
        publisher = build_fleet_publisher(devices=3)
        publisher.publish(make_spec(GOOD, "v1"), PublishOptions.scale())
        published = publisher.publish(
            make_spec(BETTER, "v2"),
            PublishOptions.scale(canary_count=1, bake_us=200_000.0))
        staged = publisher.fleet.canary_rollout(make_spec(GOOD, "v3"),
                                                canary_count=1,
                                                bake_us=200_000.0)
        for result in (published, staged):
            assert type(result) is FleetResult
            assert result.promoted and result.ok
            assert result.canary_names == ["dev0"]
            assert result.rows() \
                == result.canary + result.control + result.rollback
            assert len(result.control) == 2 and result.rollback == []
            assert result.bake_us == 200_000.0
        assert staged.baseline is published.spec

        applied = publisher.fleet.apply(make_spec(GOOD, "v1"))
        assert type(applied) is FleetResult
        assert applied.control == applied.rows()

    @pytest.mark.parametrize("transport", ["direct", "radio"])
    def test_rolled_back_canary_is_not_ok(self, transport):
        """One ``ok`` rule on both transports: a health-gated canary
        that rolled back is not ok, over the radio as in process."""
        publisher = build_fleet_publisher(devices=4, seed=3)
        base = make_spec(GOOD, "base")
        poisoned = make_spec(POISON, "poisoned")
        if transport == "direct":
            publisher.fleet.apply(base)
            result = publisher.fleet.canary_rollout(
                poisoned, canary_count=1, bake_us=500_000.0, bake_fires=3)
        else:
            publisher.publish(base, PublishOptions.scale())
            result = publisher.publish(
                poisoned, PublishOptions.scale(canary_count=1,
                                               bake_us=500_000.0,
                                               bake_fires=3))
        assert result.rolled_back
        assert not result.promoted
        assert result.ok is False

    def test_results_are_always_truthy(self):
        """``if result:`` must not silently flip on empty row lists."""
        publisher = build_fleet_publisher(devices=2)
        result = publisher.publish(make_spec(GOOD, "v1"),
                                   PublishOptions.scale())
        assert bool(result)


class TestPublishOptions:
    def test_defaults_are_the_legacy_behavior(self):
        options = PublishOptions()
        assert not options.multicast
        assert options.legacy() == options

    def test_legacy_and_scale_differ_only_in_multicast(self):
        """The two profiles are one protocol choice apart: every other
        knob keeps its default in both."""
        legacy, scale = PublishOptions.legacy(), PublishOptions.scale()
        differing = [knob.name for knob in fields(PublishOptions)
                     if getattr(legacy, knob.name) != getattr(scale,
                                                              knob.name)]
        assert differing == ["multicast"]
        assert scale.multicast and not legacy.multicast

    @pytest.mark.parametrize("knob", ["shards", "share_release",
                                      "inline_payload", "window_us",
                                      "leisure_us", "bake_hooks"])
    def test_wall_clock_knobs_are_gone(self, knob):
        """Co-run layout, decode sharing, payload inlining, the window
        slice, the ack leisure and the baked hooks are fixed, not
        per-publish knobs."""
        with pytest.raises(TypeError):
            PublishOptions(**{knob: 1})

    def test_keyword_knobs_are_not_accepted(self):
        publisher = build_fleet_publisher(devices=2)
        with pytest.raises(TypeError):
            publisher.publish(make_spec(GOOD, "v1"), max_windows=2000)
        assert publisher.sequence == 0  # nothing was signed

    def test_explicit_sequence_number_replay_is_refused(self):
        publisher = build_fleet_publisher(devices=2)
        first = publisher.publish(make_spec(GOOD, "v1"))
        replay = publisher.publish(
            make_spec(GOOD, "v1"),
            PublishOptions(sequence_number=first.sequence_number))
        assert not replay.ok  # anti-rollback refuses the replay
        assert replay.sequence_number == first.sequence_number
