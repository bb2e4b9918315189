"""Staged (canary) rollout: one implementation for every transport.

A staged rollout converges a canary subset onto a spec, bakes each
canary on its own virtual clock, judges it against a
:class:`HealthGate`, and then either promotes the spec to the rest of
the fleet or reverts every device it touched to that device's *own*
prior spec.  That skeleton is the same whether a spec reaches a device
by a direct plan/apply (:meth:`~repro.deploy.fleet.Fleet.canary_rollout`)
or over the radio (:meth:`~repro.deploy.publish.FleetPublisher.publish`
with ``canary_count``), so :class:`StagedRollout` implements it once
over a two-method :class:`RolloutTransport`:

* ``converge(devices, spec, role)`` moves ``devices`` onto ``spec`` and
  returns the rows of the devices it reached plus a refusal reason
  (``""`` when every device converged).  A refusing device is unchanged
  — the transactional apply and the update worker's pipeline both
  guarantee that — so only devices whose row is ``ok`` need a revert;
* ``revert(groups)`` moves each ``(baseline, devices)`` group back onto
  its baseline, best effort, and never raises.  Devices sharing a
  baseline share one group, which over the radio means one signed
  envelope under one fresh sequence number per distinct baseline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from repro.rtos.thread import ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.fleet import Fleet, FleetDevice
    from repro.deploy.results import FleetResult
    from repro.deploy.spec import DeploymentSpec


@dataclass(frozen=True)
class HealthGate:
    """Pluggable canary health policy, checked after the bake.

    The default gate rolls the canaries back on any contained fault
    during the bake.  Beyond faults, a gate can hold canaries to
    **modelled-cycle budgets** (a container whose new image suddenly
    burns more cycles per run than the budget allows is unhealthy even
    if it never faults) and to **KV-store agreement** with the control
    devices (a new image that corrupts device-wide state in the global
    store is caught by comparing the listed keys against a control
    device still running the baseline).

    All checks read simulator-observable state only — the gate never
    fires hooks or advances any clock itself.
    """

    #: Contained faults tolerated per canary during the bake.
    max_fault_delta: int = 0
    #: Container name -> max modelled cycles per run during the bake.
    #: A budget for a name no canary hosts is simply never checked.
    cycle_budgets: Mapping[str, int] = field(default_factory=dict)
    #: Global-store keys that must agree between each canary and every
    #: control device (empty: no store check; no controls: skipped).
    store_keys: tuple[int, ...] = ()
    #: Judge cycle budgets over a *sliding* bake window instead of the
    #: whole-bake total: the tightest trailing window holding at least
    #: this many runs must meet the budget.  A container with an
    #: expensive first run (cache warm-up, lazy init) then stays healthy
    #: as long as its steady state does; a container that *degrades*
    #: mid-bake is caught even when early cheap runs would have diluted
    #: the whole-bake average.  ``None`` keeps the whole-bake rule.
    window_runs: int | None = None

    def breaches(
        self,
        device: FleetDevice,
        before: Mapping,
        fault_delta: int,
        controls: Sequence[FleetDevice],
        history: Sequence[Mapping] | None = None,
    ) -> list[str]:
        """Health violations of one baked canary (empty when healthy).

        ``before`` maps each container of the canary's
        :meth:`~repro.core.engine.HostingEngine.slots` to its
        ``(runs, total_cycles)`` after the canary converged on the spec
        but before the bake; budgets are looked up by container name, so
        same-named containers are each held to theirs.  ``history``
        (used with :attr:`window_runs`) is a series of per-container
        ``(runs, cycles)`` samples taken during the bake, oldest first,
        as built by :meth:`StagedRollout.bake_and_gate`.
        """
        problems: list[str] = []
        if fault_delta > self.max_fault_delta:
            problems.append(f"+{fault_delta} faults during bake")
        for container, (runs0, cycles0) in before.items():
            budget = self.cycle_budgets.get(container.name)
            if budget is None:
                continue
            if (self.window_runs is not None and history
                    and len(history) >= 2):
                judged, problem = self._window_verdict(
                    container, budget, history)
                if judged:
                    if problem:
                        problems.append(problem)
                    continue
                # Too few runs for a full window: fall back to totals.
            # The baseline is keyed by the container object, so one that
            # fault-detached mid-bake is still accounted.
            runs = container.runs - runs0
            cycles = container.total_cycles - cycles0
            if runs > 0 and cycles > budget * runs:
                problems.append(
                    f"{container.name} burned {cycles // runs} cycles/run "
                    f"(budget {budget})"
                )
        if self.store_keys and controls:
            canary_store = device.engine.global_store.snapshot()
            for control in controls:
                control_store = control.engine.global_store.snapshot()
                for key in self.store_keys:
                    mine = canary_store.get(key, 0)
                    theirs = control_store.get(key, 0)
                    if mine != theirs:
                        problems.append(
                            f"store key {key} diverged: {mine} vs "
                            f"{theirs} on {control.name}"
                        )
                        break
        return problems

    def _window_verdict(self, container, budget: int,
                        history: Sequence[Mapping]) -> tuple[bool, str]:
        """Judge one container over the tightest trailing bake window.

        Walks sample intervals newest-first, accumulating until the
        window holds at least :attr:`window_runs` runs, and holds that
        window — not the whole bake — to the budget.  Returns
        ``(judged, problem)``; ``judged`` is False when the whole bake
        has fewer runs than one window (caller falls back to totals).
        """
        runs_acc = 0
        cycles_acc = 0
        for i in range(len(history) - 1, 0, -1):
            newer = history[i].get(container)
            older = history[i - 1].get(container)
            if newer is None or older is None:
                continue
            runs_acc += newer[0] - older[0]
            cycles_acc += newer[1] - older[1]
            if runs_acc >= self.window_runs:
                break
        if runs_acc < self.window_runs:
            return False, ""
        if cycles_acc > budget * runs_acc:
            return True, (
                f"{container.name} burned {cycles_acc // runs_acc} "
                f"cycles/run over the trailing {runs_acc}-run window "
                f"(budget {budget})"
            )
        return True, ""


class RolloutTransport(Protocol):
    """How a staged rollout moves devices between specs."""

    def converge(self, devices: Sequence[FleetDevice],
                 spec: DeploymentSpec, role: str) -> tuple[list, str]:
        """Move ``devices`` onto ``spec`` (``role`` is ``"canary"`` or
        ``"control"``); return the rows reached and a refusal reason."""

    def revert(self, groups: Sequence[tuple[DeploymentSpec,
                                            list[FleetDevice]]],
               ) -> tuple[list, str]:
        """Move each group back onto its baseline; never raises."""


def _worker_backlog(device: FleetDevice) -> bool:
    """True while any THREAD-mode container still has unrun work.

    Two places hide queued work: events sitting in a worker's queue
    (``pending``) *and* an event already popped and delivered to a
    worker thread that has not been scheduled since (the thread is
    READY but its run — and any fault it would record — has not
    happened yet).  The gate must wait out both.
    """
    for container in device.engine.containers():
        queue = container.event_queue
        if queue is None:
            continue
        if queue.pending:
            return True
        worker = container.worker
        if worker is not None and worker.state is ThreadState.READY:
            return True
    return False


def _bake_device(device: FleetDevice, bake_us: float, bake_fires: int,
                 fired_hooks: Sequence[str], context: bytes) -> None:
    """Run one canary's own workloads on its own virtual clock.

    Periodic attachments fire on their declared cadence during the
    ``bake_us`` window; every hook in ``fired_hooks`` is additionally
    fired ``bake_fires`` times.  Before returning, THREAD-mode worker
    backlogs are drained **unconditionally** — a periodic attachment
    that enqueued work right at the end of the bake window must still
    deliver its faults to the gate even when ``bake_fires`` is zero
    (windows, not ``run_until_idle``: a periodic attachment keeps a
    timer pending forever).
    """
    kernel = device.kernel
    kernel.run(until_us=kernel.now_us + bake_us)
    for _ in range(bake_fires):
        for hook_name in fired_hooks:
            if not device.engine.hooks[hook_name].containers:
                continue
            device.engine.fire_hook(hook_name, context)
    for _ in range(1000):
        if not _worker_backlog(device):
            break
        kernel.run(until_us=kernel.now_us + 10_000.0)


@dataclass
class StagedRollout:
    """Canary, bake, gate, then promote or revert — over any transport.

    1. **Canary**: the first ``canary_count`` devices are converged onto
       the spec.  If any refuses, the canaries that accepted are
       reverted and the rest of the fleet is never touched.
    2. **Bake**: each canary runs its own virtual clock forward by
       ``bake_us`` — periodic attachments fire on their declared
       cadence — and each aperiodic hook of the spec fires another
       ``bake_fires`` times with ``bake_context``.  THREAD hooks drain
       through their worker threads before the gate reads any counter.
    3. **Gate**: each canary must pass ``health_gate`` (default: no
       contained fault during the bake).  Any breach reverts every
       canary.
    4. **Promote**: the remaining devices converge onto the spec (riding
       the image cache the canaries warmed).  If any refuses, the whole
       fleet that accepted the spec — canaries included — is reverted,
       so it never stays half-promoted.

    A revert takes each device back to ``baseline`` when one is given,
    otherwise to the spec that device last converged on, otherwise to
    the spec the fleet last converged on, otherwise to an empty spec of
    the same scope (:meth:`~repro.deploy.fleet.Fleet._rollback_baseline`).
    """

    fleet: Fleet
    transport: RolloutTransport
    canary_count: int
    #: Canary health policy (``None``: the default :class:`HealthGate`).
    health_gate: HealthGate | None = None
    bake_us: float = 2_000_000.0
    bake_fires: int = 0
    bake_context: bytes | None = None
    #: Operator-chosen rollback target overriding every device's own.
    baseline: DeploymentSpec | None = None

    def __post_init__(self) -> None:
        size = len(self.fleet.devices)
        if not 1 <= self.canary_count <= size:
            raise ValueError(
                f"canary_count {self.canary_count} outside 1..{size}")
        if self.bake_us < 0 or self.bake_fires < 0:
            raise ValueError(
                f"bake_us {self.bake_us} and bake_fires {self.bake_fires} "
                "must not be negative")
        if self.health_gate is None:
            self.health_gate = HealthGate()

    def run(self, result: FleetResult) -> FleetResult:
        """Stage ``result.spec`` across the fleet, filling ``result``."""
        fleet = self.fleet
        spec = result.spec
        canaries = fleet.devices[:self.canary_count]
        rest = fleet.devices[self.canary_count:]
        # Rollback targets are captured *before* any canary is touched:
        # a mode-heterogeneous fleet unwinds each device to its own
        # prior spec, not to one fleet-wide guess.
        prior = {device.name: device.current_spec for device in fleet.devices}
        result.baseline = (self.baseline or fleet.current_spec
                           or fleet._rollback_baseline(spec, canaries))
        result.bake_us = self.bake_us

        def revert(devices: Sequence[FleetDevice],
                   reason: str) -> FleetResult:
            groups: list[tuple[DeploymentSpec, list[FleetDevice]]] = []
            for device in devices:
                target = (self.baseline or prior[device.name]
                          or result.baseline)
                for grouped, members in groups:
                    if grouped is target:
                        members.append(device)
                        break
                else:
                    groups.append((target, [device]))
            rows, failure = self.transport.revert(groups)
            result.rollback.extend(rows)
            result.rolled_back = True
            result.reason = f"{reason}; {failure}" if failure else reason
            return result

        rows, failure = self.transport.converge(canaries, spec, "canary")
        result.canary.extend(rows)
        if failure:
            accepted = [row.device for row in rows if row.ok]
            if accepted:
                return revert(accepted, failure)
            result.rolled_back = True
            result.reason = f"{failure}; devices unchanged"
            return result

        result.fault_deltas, result.health = self.bake_and_gate(
            canaries, rest, spec)
        unhealthy = {name: problems
                     for name, problems in result.health.items() if problems}
        if unhealthy:
            return revert(canaries, "health gate: " + "; ".join(
                f"{name}: {', '.join(problems)}"
                for name, problems in sorted(unhealthy.items())
            ))

        rows, failure = self.transport.converge(rest, spec, "control")
        if failure:
            promoted = [row.device for row in rows if row.ok]
            return revert(list(canaries) + promoted, failure)
        result.control.extend(rows)
        result.promoted = True
        result.reason = (f"{len(canaries)} canaries baked "
                         f"{self.bake_us:.0f} us healthy, "
                         f"{len(rest)} devices promoted")
        fleet.current_spec = spec
        return result

    def bake_and_gate(
        self,
        canaries: Sequence[FleetDevice],
        controls: Sequence[FleetDevice],
        spec: DeploymentSpec,
    ) -> tuple[dict[str, int], dict[str, list[str]]]:
        """Bake every canary, then judge each against the health gate.

        Returns ``(fault deltas, health breaches)`` per canary name;
        the rollout is healthy iff every breach list is empty.
        """
        fired_hooks = sorted({a.hook for a in spec.attachments
                              if a.period_us is None})
        context = (self.bake_context if self.bake_context is not None
                   else struct.pack("<QQ", 0, 0))
        gate = self.health_gate
        fault_deltas: dict[str, int] = {}
        health: dict[str, list[str]] = {}
        # A sliding-window gate needs intra-bake samples; a whole-bake
        # gate needs none — one slice keeps the classic behavior intact.
        slices = 8 if gate.window_runs is not None else 1
        for device in canaries:
            faults_before = device.engine.fault_total
            baked = [container for container, _ in device.engine.slots()]

            def sample() -> dict:
                # Read the pre-bake container objects, so one replaced or
                # fault-detached mid-bake keeps a continuous series.
                return {container: (container.runs, container.total_cycles)
                        for container in baked}

            before = sample()
            history = [before]
            for index in range(slices):
                _bake_device(
                    device, self.bake_us / slices,
                    self.bake_fires if index == slices - 1 else 0,
                    fired_hooks, context,
                )
                history.append(sample())
            delta = device.engine.fault_total - faults_before
            fault_deltas[device.name] = delta
            health[device.name] = gate.breaches(
                device, before, delta, controls,
                history=history if slices > 1 else None)
        return fault_deltas, health
