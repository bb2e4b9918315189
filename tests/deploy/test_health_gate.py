"""Canary health beyond faults: cycle budgets and store divergence.

The :class:`~repro.deploy.HealthGate` extends the PR 4 fault-only gate:
a canary whose new image never faults can still be unhealthy — it may
burn far more modelled cycles per run than budgeted, or corrupt
device-wide state in the global key-value store.  Both must roll the
canaries back exactly like a fault; a canary that passes every check
must still promote.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HealthGate,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

#: Writes value ``v`` under global key 42 each run (a device-wide
#: "status register" every device of the fleet must agree on).
STORE = """
    mov r1, 42
    mov r2, {value}
    call bpf_store_global
    mov r0, 0
    exit
"""

#: Burns ~{count} loop iterations of modelled cycles per run.
SPIN = """
    mov r6, {count}
loop:
    sub r6, 1
    jne r6, 0, loop
    mov r0, 0
    exit
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(name: str, source: str) -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker"),),
    )


def converge_fleet(fleet: Fleet, spec: DeploymentSpec, fires: int) -> None:
    """Apply ``spec`` everywhere and run it so every device has state."""
    fleet.apply(spec)
    for _ in range(fires):
        fleet.fire_all(FC_HOOK_FANOUT, b"")


class TestCycleBudget:
    @pytest.mark.parametrize("transport", ["direct", "radio"])
    def test_cycle_budget_breach_rolls_back(self, transport):
        """A 100x cycle regression that never faults rolls back, in
        process and over the radio, and the controls keep the base."""
        base = make_spec("base", SPIN.format(count=4))
        hungry = make_spec("v2", SPIN.format(count=400))
        gate = HealthGate(cycle_budgets={"worker": 100})
        if transport == "direct":
            fleet = Fleet(3)
            fleet.apply(base)
            rollout = fleet.canary_rollout(
                hungry, canary_count=1, bake_us=100_000.0, bake_fires=2,
                health_gate=gate,
            )
        else:
            publisher = build_fleet_publisher(devices=3)
            fleet = publisher.fleet
            publisher.publish(base)
            rollout = publisher.publish(hungry, PublishOptions(
                canary_count=1, bake_us=100_000.0, bake_fires=2,
                health_gate=gate))
            # The controls never even saw the regressed sequence.
            assert all(
                device.radio.worker.storage.highest_sequence(publisher.slot)
                < rollout.sequence_number
                for device in fleet.devices[1:])
        assert rollout.rolled_back and not rollout.promoted
        assert "cycles/run" in rollout.reason
        assert rollout.fault_deltas == {"dev0": 0}  # no fault, still bad
        assert all(plan(device.engine, base).empty
                   for device in fleet.devices)

    def test_generous_budget_promotes(self):
        fleet = Fleet(3)
        fleet.apply(make_spec("base", SPIN.format(count=4)))
        release = make_spec("v2", SPIN.format(count=400))
        rollout = fleet.canary_rollout(
            release, canary_count=1, bake_us=100_000.0, bake_fires=2,
            health_gate=HealthGate(cycle_budgets={"worker": 10_000_000}),
        )
        assert rollout.promoted
        assert all(plan(device.engine, release).empty
                   for device in fleet.devices)

    def test_budget_for_unknown_slot_is_ignored(self):
        fleet = Fleet(2)
        fleet.apply(make_spec("base", SPIN.format(count=4)))
        rollout = fleet.canary_rollout(
            make_spec("v2", SPIN.format(count=8)), canary_count=1,
            bake_us=50_000.0, bake_fires=1,
            health_gate=HealthGate(cycle_budgets={"no-such-slot": 1}),
        )
        assert rollout.promoted

    def test_slot_that_never_ran_passes(self):
        """A budgeted slot with zero bake runs has nothing to judge."""
        fleet = Fleet(2)
        fleet.apply(make_spec("base", SPIN.format(count=4)))
        rollout = fleet.canary_rollout(
            make_spec("v2", SPIN.format(count=400)), canary_count=1,
            bake_us=50_000.0, bake_fires=0,
            health_gate=HealthGate(cycle_budgets={"worker": 1}),
        )
        assert rollout.promoted


class TestStoreDivergence:
    def test_store_divergence_rolls_back(self):
        """The new image flips a device-wide status key the controls
        still hold at the baseline value: unhealthy without any fault."""
        fleet = Fleet(3)
        base = make_spec("base", STORE.format(value=7))
        converge_fleet(fleet, base, fires=1)
        rollout = fleet.canary_rollout(
            make_spec("v2", STORE.format(value=9)), canary_count=1,
            bake_us=50_000.0, bake_fires=1,
            health_gate=HealthGate(store_keys=(42,)),
        )
        assert rollout.rolled_back and not rollout.promoted
        assert "store key 42 diverged" in rollout.reason
        assert rollout.fault_deltas == {"dev0": 0}
        assert plan(fleet.devices[0].engine, base).empty
        # Control devices still hold the baseline value, untouched.
        for device in fleet.devices[1:]:
            assert device.engine.global_store.snapshot()[42] == 7

    def test_agreeing_stores_promote(self):
        """A rewrite that keeps the status key stable passes the gate."""
        fleet = Fleet(3)
        converge_fleet(fleet, make_spec("base", STORE.format(value=7)),
                       fires=1)
        same_value = make_spec(
            "v2", "    mov r3, 0\n" + STORE.format(value=7).lstrip("\n"))
        rollout = fleet.canary_rollout(
            same_value, canary_count=1, bake_us=50_000.0, bake_fires=1,
            health_gate=HealthGate(store_keys=(42,)),
        )
        assert rollout.promoted, rollout.reason

    def test_all_canary_fleet_skips_store_check(self):
        """With no control devices there is nothing to diverge from."""
        fleet = Fleet(2)
        converge_fleet(fleet, make_spec("base", STORE.format(value=7)),
                       fires=1)
        rollout = fleet.canary_rollout(
            make_spec("v2", STORE.format(value=9)), canary_count=2,
            bake_us=50_000.0, bake_fires=1,
            health_gate=HealthGate(store_keys=(42,)),
        )
        assert rollout.promoted


class TestGateComposition:
    def test_default_gate_still_faults_only(self):
        """No explicit gate: behavior identical to PR 4 (fault == bad)."""
        poison = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"
        fleet = Fleet(2)
        base = make_spec("base", SPIN.format(count=4))
        fleet.apply(base)
        rollout = fleet.canary_rollout(make_spec("v2", poison),
                                       canary_count=1,
                                       bake_us=50_000.0, bake_fires=1)
        assert rollout.rolled_back
        assert "faults during bake" in rollout.reason

    def test_max_fault_delta_tolerance(self):
        """A gate may tolerate a bounded number of contained faults."""
        poison = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"
        fleet = Fleet(2)
        fleet.apply(make_spec("base", SPIN.format(count=4)))
        rollout = fleet.canary_rollout(
            make_spec("v2", poison), canary_count=1,
            bake_us=50_000.0, bake_fires=2,
            health_gate=HealthGate(max_fault_delta=5),
        )
        assert rollout.promoted
        assert rollout.fault_deltas["dev0"] == 2

    def test_breaches_reported_per_canary(self):
        fleet = Fleet(3)
        converge_fleet(fleet, make_spec("base", STORE.format(value=7)),
                       fires=1)
        rollout = fleet.canary_rollout(
            make_spec("v2", STORE.format(value=9)), canary_count=2,
            bake_us=50_000.0, bake_fires=1,
            health_gate=HealthGate(store_keys=(42,)),
        )
        assert rollout.rolled_back
        assert set(rollout.health) == {"dev0", "dev1"}
        assert all(problems for problems in rollout.health.values())


#: First run pays a ~19k-cycle lazy init (global key 99 unset), steady
#: state is ~430 cycles: healthy, but the whole-bake average is not.
SPIKY_START = """
    mov r1, 99
    mov r2, r10
    add r2, 4
    call bpf_fetch_global
    ldxw r6, [r10+4]
    jne r6, 0, fast
    mov r6, 2000
warm:
    sub r6, 1
    jne r6, 0, warm
    mov r1, 99
    mov r2, 1
    call bpf_store_global
fast:
    mov r0, 0
    exit
"""

#: Every run spins 200 iterations *more* than the last (run counter in
#: global key 98): cheap early runs dilute the whole-bake average while
#: the steady state drifts past any sane budget.
DEGRADING = """
    mov r1, 98
    mov r2, r10
    add r2, 4
    call bpf_fetch_global
    ldxw r6, [r10+4]
    add r6, 1
    mov r1, 98
    mov r2, r6
    call bpf_store_global
    mov r7, r6
    mul r7, 200
spin:
    sub r7, 1
    jne r7, 0, spin
    mov r0, 0
    exit
"""


def periodic_spec(name: str, source: str) -> DeploymentSpec:
    """Like :func:`make_spec` but self-driving (period 20 ms), so bake
    runs spread across the sliding window's sample slices."""
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker",
                                    period_us=20_000.0),),
    )


class TestSlidingWindow:
    """``HealthGate.window_runs``: judge the trailing bake window, not
    the whole-bake average."""

    BASE = "mov r0, 0\n    exit"

    def _rollout(self, source: str, gate: HealthGate):
        fleet = Fleet(2)
        fleet.apply(periodic_spec("base", self.BASE))
        return fleet.canary_rollout(
            periodic_spec("v2", source), canary_count=1,
            bake_us=640_000.0, bake_fires=0, health_gate=gate,
        )

    def test_spiky_start_passes_the_window_gate(self):
        """Regression: an expensive first run (lazy init) must not fail
        a canary whose steady state is comfortably within budget."""
        rollout = self._rollout(
            SPIKY_START,
            HealthGate(cycle_budgets={"worker": 600}, window_runs=4))
        assert rollout.promoted, rollout.reason

    def test_same_spiky_start_fails_the_whole_bake_gate(self):
        """The scenario the window exists for: whole-bake averaging
        blames the steady state for the one-off init cost."""
        rollout = self._rollout(
            SPIKY_START, HealthGate(cycle_budgets={"worker": 600}))
        assert rollout.rolled_back
        assert "cycles/run" in rollout.reason

    def test_degrading_canary_caught_by_the_window(self):
        """The dual failure: cheap early runs dilute the whole-bake
        average below budget, but the trailing window sees the drift."""
        rollout = self._rollout(
            DEGRADING,
            HealthGate(cycle_budgets={"worker": 40_000}, window_runs=4))
        assert rollout.rolled_back
        assert "trailing 4-run window" in rollout.reason

    def test_same_degrading_canary_slips_past_whole_bake_totals(self):
        rollout = self._rollout(
            DEGRADING, HealthGate(cycle_budgets={"worker": 40_000}))
        assert rollout.promoted, rollout.reason


class TestWindowVerdictUnit:
    """``breaches`` with a synthetic sample history (no fleet needed)."""

    SLOT = ("fc.hook.fanout", "worker")

    def _container(self, runs: int, cycles: int):
        from types import SimpleNamespace

        return SimpleNamespace(runs=runs, total_cycles=cycles)

    def _history(self, *samples):
        return [{self.SLOT: sample} for sample in samples]

    def test_trailing_window_breach_reported(self):
        gate = HealthGate(cycle_budgets={"worker": 100}, window_runs=4)
        history = self._history(
            (0, 0), (4, 200), (8, 400), (12, 2400))  # last 4 runs: 500/run
        problems = gate.breaches(
            device=None,
            before={self.SLOT: (self._container(12, 2400), 0, 0)},
            fault_delta=0, controls=(), history=history)
        assert problems == ["worker burned 500 cycles/run over the "
                            "trailing 4-run window (budget 100)"]

    def test_early_spike_outside_the_window_is_forgiven(self):
        gate = HealthGate(cycle_budgets={"worker": 100}, window_runs=4)
        history = self._history(
            (0, 0), (1, 20_000), (5, 20_200), (9, 20_400))
        problems = gate.breaches(
            device=None,
            before={self.SLOT: (self._container(9, 20_400), 0, 0)},
            fault_delta=0, controls=(), history=history)
        assert problems == []

    def test_too_few_runs_falls_back_to_whole_bake_totals(self):
        gate = HealthGate(cycle_budgets={"worker": 100}, window_runs=50)
        container = self._container(2, 20_000)  # 10k/run: over budget
        problems = gate.breaches(
            device=None,
            before={self.SLOT: (container, 0, 0)},
            fault_delta=0, controls=(),
            history=self._history((0, 0), (1, 10_000), (2, 20_000)))
        assert problems == ["worker burned 10000 cycles/run (budget 100)"]

    def test_no_window_keeps_the_classic_rule(self):
        gate = HealthGate(cycle_budgets={"worker": 100})
        container = self._container(2, 20_000)
        problems = gate.breaches(
            device=None,
            before={self.SLOT: (container, 0, 0)},
            fault_delta=0, controls=(), history=None)
        assert problems == ["worker burned 10000 cycles/run (budget 100)"]
