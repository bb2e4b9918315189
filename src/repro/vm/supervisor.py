"""Per-slot container supervision: crash-loop quarantine with probation.

The paper's fault-isolation contract (§3, §5) contains each fault, but
containment alone is not health: a container that faults on *every*
fire is re-armed forever, burning cycles and energy the device budget
cannot spare.  TinyContainer-style middleware makes runtime health
enforcement a middleware responsibility; this module is that layer for
the hosting engine.

A :class:`ContainerSupervisor` watches every
:meth:`~repro.core.engine.HostingEngine.execute` outcome per slot
(``(hook name, container name)`` — the planner's slot identity) and
tracks two streaks:

* **fault streak** — consecutive contained faults; reaching
  :attr:`SupervisorConfig.fault_streak` quarantines the container;
* **cycle-overrun streak** — consecutive runs whose modelled cycles
  exceed :attr:`SupervisorConfig.cycle_ceiling` (the rBPF-style per-run
  resource ceiling); ``overrun_streak`` of those quarantines too.

**Quarantine** detaches the container and schedules a *probation*
re-attach through the kernel's timer wheel after an exponentially
backed-off delay (one strike: ``probation_base_us``; doubling per
strike up to ``probation_cap_us``).  The probation re-attach runs the
full verify+install path, so its cycle cost is charged to the virtual
clock exactly like any install.  After :attr:`SupervisorConfig
.max_strikes` strikes the slot is **permanently** quarantined — no
timer, no re-arm, an operator (or a fresh install over the slot) is
the only way back.

A fresh container attached over a supervised slot (hot replace, plan
install, rollback) resets the slot's health: the supervisor cancels
any stale probation timer and starts the new container clean, so a
poisoned image that was quarantined can never be re-armed by a timer
that outlived its rollback.

The supervisor charges **nothing** on the fault-free path: observing a
clean run is pure host-side bookkeeping, so modelled cycles of healthy
workloads are byte-identical with or without supervision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import ContainerRun, FemtoContainer
    from repro.core.engine import HostingEngine


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for one engine's container supervisor."""

    #: Consecutive contained faults before quarantine (anti-DoS).
    fault_streak: int = 16
    #: Per-run modelled-cycle ceiling; ``None`` disables overrun checks.
    cycle_ceiling: int | None = None
    #: Consecutive over-ceiling runs before quarantine.
    overrun_streak: int = 4
    #: First probation delay (µs); doubles per strike.
    probation_base_us: float = 2_000_000.0
    #: Probation delay cap (µs).
    probation_cap_us: float = 16_000_000.0
    #: Strikes before the quarantine becomes permanent.
    max_strikes: int = 3


@dataclass
class SlotHealth:
    """Supervision state of one ``(hook, container name)`` slot."""

    hook_name: str
    container: "FemtoContainer"
    #: Consecutive contained faults (reset by any clean run).
    fault_streak: int = 0
    #: Consecutive runs over the cycle ceiling (reset by a cheap run).
    overrun_streak: int = 0
    #: Lifetime over-ceiling runs.
    overruns: int = 0
    #: Quarantines this container has earned on this slot.
    strikes: int = 0
    #: Probation re-attaches that actually happened.
    probations: int = 0
    #: Currently detached by the supervisor.
    quarantined: bool = False
    #: Struck out: no probation timer will ever re-arm it.
    permanent: bool = False
    #: Virtual instant of the pending probation re-attach (if any).
    rearm_at_us: float | None = None
    _rearm_entry: object = field(default=None, repr=False)

    @property
    def state(self) -> str:
        if self.permanent:
            return "permanent"
        if self.quarantined:
            return "quarantined"
        return "ok"


class ContainerSupervisor:
    """Crash-loop/overrun watchdog for one hosting engine."""

    def __init__(self, engine: "HostingEngine",
                 config: SupervisorConfig | None = None) -> None:
        self.engine = engine
        self.config = config if config is not None else SupervisorConfig()
        self._records: dict[tuple[str, str], SlotHealth] = {}
        #: Lifetime quarantine events (probation re-arms do not reset it).
        self.quarantines = 0

    # -- observation (called from HostingEngine.execute) -------------------

    def observe(self, container: "FemtoContainer",
                run: "ContainerRun") -> None:
        """Account one run; quarantine the slot when a streak trips.

        Called after the engine recorded the run and before
        ``execute`` returns — so a SYNC hook firing observes the
        quarantine of the container that just ran.
        """
        hook = container.hook
        if hook is None:
            return
        key = (hook.name, container.name)
        record = self._records.get(key)
        if record is None or record.container is not container:
            record = SlotHealth(hook.name, container)
            self._records[key] = record
        config = self.config
        if run.fault is not None:
            record.fault_streak += 1
        else:
            record.fault_streak = 0
        ceiling = config.cycle_ceiling
        if ceiling is not None:
            if run.cycles > ceiling:
                record.overrun_streak += 1
                record.overruns += 1
            else:
                record.overrun_streak = 0
        if (record.fault_streak >= config.fault_streak
                or (ceiling is not None
                    and record.overrun_streak >= config.overrun_streak)):
            self._quarantine(record)

    def _quarantine(self, record: SlotHealth) -> None:
        record.strikes += 1
        record.fault_streak = 0
        record.overrun_streak = 0
        self.quarantines += 1
        self.engine.detach(record.container)
        record.quarantined = True
        if record.strikes >= self.config.max_strikes:
            record.permanent = True
            record.rearm_at_us = None
            return
        delay = min(
            self.config.probation_base_us * 2 ** (record.strikes - 1),
            self.config.probation_cap_us,
        )
        record.rearm_at_us = self.engine.kernel.now_us + delay
        record._rearm_entry = self.engine.kernel.timers.set(
            lambda r=record: self._probation_rearm(r), delay,
        )

    def _probation_rearm(self, record: SlotHealth) -> None:
        """Timer-driven probation: re-attach the quarantined container.

        Guarded against every way the world can have moved on while the
        timer was pending: a permanent strike-out, a manual re-attach,
        a fresh install that took the slot (rollback!), or a hook that
        no longer exists.  A stale timer must never re-arm a container
        someone else already dealt with.
        """
        record._rearm_entry = None
        record.rearm_at_us = None
        if record.permanent or not record.quarantined:
            return
        container = record.container
        key = (record.hook_name, container.name)
        if self._records.get(key) is not record:
            return  # superseded by a newer container's health record
        if container.hook is not None:
            record.quarantined = False  # operator re-attached it manually
            return
        hook = self.engine.hooks.get(record.hook_name)
        if hook is None:
            return
        if any(c.name == container.name for c in hook.containers):
            # A fresh install owns the slot now; this record is stale.
            del self._records[key]
            return
        try:
            # Full verify+install price on the virtual clock, like any
            # attach — probation is never free.
            self.engine.attach(container, record.hook_name)
        except Exception:
            # The image no longer passes pre-flight (policy changed,
            # hook repurposed): strike out rather than retry forever.
            record.permanent = True
            return
        record.quarantined = False
        record.probations += 1

    # -- lifecycle notifications ------------------------------------------

    def notify_attach(self, container: "FemtoContainer",
                      hook_name: str) -> None:
        """A container was attached to ``hook_name`` — reconcile health.

        The same container coming back (manual or probation re-attach)
        clears its quarantine flag; a *different* container taking the
        slot starts with fresh health and kills any stale probation
        timer, so a rolled-back slot can never be re-poisoned by it.
        """
        key = (hook_name, container.name)
        record = self._records.get(key)
        if record is None:
            return
        if record._rearm_entry is not None:
            self.engine.kernel.timers.cancel(record._rearm_entry)
            record._rearm_entry = None
            record.rearm_at_us = None
        if record.container is container:
            record.quarantined = False
        else:
            del self._records[key]

    # -- introspection ------------------------------------------------------

    def health(self, hook_name: str, name: str) -> SlotHealth | None:
        return self._records.get((hook_name, name))

    def counters(self) -> dict[tuple[str, str], SlotHealth]:
        """All per-slot health records, keyed like ``fault_counts()``."""
        return dict(self._records)

    def quarantined_slots(self) -> list[tuple[str, str]]:
        """Slots currently held out of service (incl. permanent)."""
        return sorted(key for key, record in self._records.items()
                      if record.quarantined)
