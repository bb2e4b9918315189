"""The staged rollout, independent of any transport.

:class:`~repro.deploy.StagedRollout` owns the canary skeleton both
:meth:`Fleet.canary_rollout` and a canary :meth:`FleetPublisher.publish`
run.  These tests drive it through a scripted transport, so each phase
decision — who converges, who is reverted, to which baseline, in how
many groups — is pinned without a radio or a real apply in the way.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.deploy import (
    DeploymentSpec,
    Fleet,
    HealthGate,
    StagedResult,
    StagedRollout,
)


class ScriptedTransport:
    """Converges every device except the ``refuse`` set; logs calls."""

    def __init__(self, refuse=(), revert_failure: str = "") -> None:
        self.refuse = set(refuse)
        self.revert_failure = revert_failure
        self.calls: list[tuple] = []

    def converge(self, devices, spec, role):
        self.calls.append((role, [device.name for device in devices]))
        rows = [SimpleNamespace(device=device, wall_s=0.0,
                                ok=device.name not in self.refuse)
                for device in devices]
        refused = [row.device.name for row in rows if not row.ok]
        return rows, f"{role} refused by {refused}" if refused else ""

    def revert(self, groups):
        self.calls.append(("revert", [(baseline.name,
                                       [device.name for device in devices])
                                      for baseline, devices in groups]))
        rows = [SimpleNamespace(device=device, wall_s=0.0, ok=True)
                for _, devices in groups for device in devices]
        return rows, self.revert_failure


class AlwaysSick(HealthGate):
    def breaches(self, device, *args, **kwargs):
        return ["sick"]


def stage(fleet, transport, canary_count=2, **knobs):
    staged = StagedRollout(fleet, transport, canary_count,
                           bake_us=1_000.0, **knobs)
    return staged.run(StagedResult(spec=DeploymentSpec(name="v2")))


@pytest.fixture
def fleet():
    fleet = Fleet(4)
    fleet.current_spec = DeploymentSpec(name="base")
    return fleet


class TestPhases:
    def test_healthy_bake_promotes_the_rest(self, fleet):
        transport = ScriptedTransport()
        result = stage(fleet, transport)
        assert transport.calls == [("canary", ["dev0", "dev1"]),
                                   ("control", ["dev2", "dev3"])]
        assert result.promoted and not result.rolled_back
        assert result.canary_names == ["dev0", "dev1"]
        assert [row.device.name for row in result.control] \
            == ["dev2", "dev3"]
        assert result.fault_deltas == {"dev0": 0, "dev1": 0}
        assert fleet.current_spec is result.spec

    def test_breached_gate_reverts_every_canary(self, fleet):
        base = fleet.current_spec
        transport = ScriptedTransport()
        result = stage(fleet, transport, health_gate=AlwaysSick())
        assert transport.calls[-1] == ("revert",
                                       [("base", ["dev0", "dev1"])])
        assert result.rolled_back and not result.promoted
        assert result.reason == "health gate: dev0: sick; dev1: sick"
        assert result.control == []
        assert fleet.current_spec is base

    def test_canary_refusal_reverts_only_accepting_canaries(self, fleet):
        transport = ScriptedTransport(refuse={"dev1"})
        result = stage(fleet, transport)
        assert transport.calls == [("canary", ["dev0", "dev1"]),
                                   ("revert", [("base", ["dev0"])])]
        assert result.reason == "canary refused by ['dev1']"
        assert result.fault_deltas == {}  # never baked

    def test_refusal_by_every_canary_sends_no_revert(self, fleet):
        transport = ScriptedTransport(refuse={"dev0", "dev1"})
        result = stage(fleet, transport)
        assert [call[0] for call in transport.calls] == ["canary"]
        assert result.rolled_back and result.rollback == []
        assert result.reason.endswith("; devices unchanged")

    def test_promotion_refusal_reverts_the_accepting_fleet(self, fleet):
        transport = ScriptedTransport(refuse={"dev3"})
        result = stage(fleet, transport)
        assert transport.calls[-1] == ("revert",
                                       [("base", ["dev0", "dev1", "dev2"])])
        assert result.control == []  # the undo is in ``rollback``
        assert len(result.rollback) == 3
        assert not result.promoted and result.rolled_back

    def test_revert_failure_is_appended_to_the_reason(self, fleet):
        transport = ScriptedTransport(revert_failure="rollback failed on x")
        result = stage(fleet, transport, health_gate=AlwaysSick())
        assert result.reason.endswith("; rollback failed on x")


class TestBaselines:
    def test_groups_follow_each_devices_own_prior_spec(self, fleet):
        mode_b = DeploymentSpec(name="mode-b")
        fleet.devices[1].current_spec = mode_b
        fleet.devices[2].current_spec = fleet.current_spec
        transport = ScriptedTransport()
        stage(fleet, transport, canary_count=3, health_gate=AlwaysSick())
        # One group per distinct baseline, in first-seen fleet order.
        assert transport.calls[-1] == ("revert", [
            ("base", ["dev0", "dev2"]), ("mode-b", ["dev1"])])

    def test_explicit_baseline_overrides_every_device(self, fleet):
        fleet.devices[1].current_spec = DeploymentSpec(name="mode-b")
        safe = DeploymentSpec(name="safe")
        transport = ScriptedTransport()
        result = stage(fleet, transport, health_gate=AlwaysSick(),
                       baseline=safe)
        assert transport.calls[-1] == ("revert",
                                       [("safe", ["dev0", "dev1"])])
        assert result.baseline is safe

    def test_never_deployed_fleet_reverts_to_an_empty_scope(self):
        fleet = Fleet(2)
        transport = ScriptedTransport()
        result = stage(fleet, transport, canary_count=1,
                       health_gate=AlwaysSick())
        assert result.baseline.name == "v2-rollback"
        assert transport.calls[-1] == ("revert",
                                       [("v2-rollback", ["dev0"])])


@pytest.mark.parametrize("count", [0, 5])
def test_canary_count_outside_the_fleet_is_rejected(fleet, count):
    with pytest.raises(ValueError, match="canary_count"):
        StagedRollout(fleet, ScriptedTransport(), count)
