"""Per-container supervision: crash-loop quarantine with probation.

The paper's fault-isolation contract (§3, §5) contains each fault, but
containment alone is not health: a container that faults on *every*
fire is re-armed forever, burning cycles and energy the device budget
cannot spare.  TinyContainer-style middleware makes runtime health
enforcement a middleware responsibility; this module is that layer for
the hosting engine.

A container owns its health: the :class:`SlotHealth` record on
``container.health``, allocated by its first supervised run.  A
:class:`ContainerSupervisor` reads that record for every
:meth:`~repro.core.engine.HostingEngine.execute` outcome and tracks two
streaks:

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
clock exactly like any install, and puts the container back at the
index in the hook's run order it held when quarantined (clamped to the
hook's current length), as a hot replace does.  After
:attr:`SupervisorConfig.max_strikes` strikes the quarantine is
**permanent** — no timer, no re-arm, an operator (or a fresh install
over the slot) is the only way back.

The supervisor itself keeps only the containers it holds out of
service, each with the hook it was quarantined from: the slot key
``(hook name, container name)`` only names a detained container.  A
container leaves that set when it is attached again, on any hook, or
when a different container takes its slot (hot replace, plan install,
rollback); either attach cancels the pending probation timer, so a
timer never re-arms a container someone else already dealt with.

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
    """Supervision state of one container (``container.health``)."""

    #: Consecutive contained faults (reset by any clean run).
    fault_streak: int = 0
    #: Consecutive runs over the cycle ceiling (reset by a cheap run).
    overrun_streak: int = 0
    #: Lifetime over-ceiling runs.
    overruns: int = 0
    #: Quarantines this container has earned.
    strikes: int = 0
    #: Probation re-attaches that actually happened.
    probations: int = 0
    #: Currently held out of service by the supervisor.
    quarantined: bool = False
    #: Struck out: no probation timer will ever re-arm it.
    permanent: bool = False
    #: Virtual instant of the pending probation re-attach (if any).
    rearm_at_us: float | None = None
    #: Index in the hook's run order the container held when it was
    #: last quarantined (where probation puts it back).
    position: int = 0
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
        #: Containers held out of service (quarantined or permanent) ->
        #: the name of the hook each was quarantined from.
        self.detained: dict["FemtoContainer", str] = {}
        #: Lifetime quarantine events (probation re-arms do not reset it).
        self.quarantines = 0

    # -- observation (called from HostingEngine.execute) -------------------

    def observe(self, container: "FemtoContainer",
                run: "ContainerRun") -> None:
        """Account one run; quarantine the container when a streak trips.

        Called after the engine recorded the run and before
        ``execute`` returns — so a SYNC hook firing observes the
        quarantine of the container that just ran.
        """
        hook = container.hook
        if hook is None:
            return
        health = container.health
        if health is None:
            health = container.health = SlotHealth()
        config = self.config
        if run.fault is not None:
            health.fault_streak += 1
        else:
            health.fault_streak = 0
        ceiling = config.cycle_ceiling
        if ceiling is not None:
            if run.cycles > ceiling:
                health.overrun_streak += 1
                health.overruns += 1
            else:
                health.overrun_streak = 0
        if (health.fault_streak >= config.fault_streak
                or (ceiling is not None
                    and health.overrun_streak >= config.overrun_streak)):
            self._quarantine(container, health)

    def _quarantine(self, container: "FemtoContainer",
                    health: SlotHealth) -> None:
        health.strikes += 1
        health.fault_streak = 0
        health.overrun_streak = 0
        self.quarantines += 1
        hook = container.hook
        health.position = hook.containers.index(container)
        self.engine.detach(container)
        health.quarantined = True
        self.detained[container] = hook.name
        if health.strikes >= self.config.max_strikes:
            health.permanent = True
            health.rearm_at_us = None
            return
        delay = min(
            self.config.probation_base_us * 2 ** (health.strikes - 1),
            self.config.probation_cap_us,
        )
        health.rearm_at_us = self.engine.kernel.now_us + delay
        health._rearm_entry = self.engine.kernel.timers.set(
            lambda c=container: self._probation_rearm(c), delay,
        )

    def _probation_rearm(self, container: "FemtoContainer") -> None:
        """Timer-driven probation: re-attach the quarantined container.

        Any attach of the container, or of another one into its slot,
        cancels this timer (:meth:`release`), so a pending timer's
        container is still detained here.
        """
        health = container.health
        health._rearm_entry = None
        health.rearm_at_us = None
        hook_name = self.detained[container]
        hook = self.engine.hooks.get(hook_name)
        if hook is None:
            return
        try:
            # Full verify+install price on the virtual clock, like any
            # attach — probation is never free.
            self.engine.attach(container, hook_name,
                               min(health.position, len(hook.containers)))
        except Exception:
            # The image no longer passes pre-flight (policy changed,
            # hook repurposed): strike out rather than retry forever.
            health.permanent = True
            return
        health.probations += 1

    # -- lifecycle -----------------------------------------------------------

    def notify_attach(self, container: "FemtoContainer",
                      hook_name: str) -> None:
        """A container was attached to ``hook_name``: release it, and any
        different container it displaces from that ``(hook, name)`` slot,
        from detention — so a rolled-back slot can never be re-poisoned
        by a stale probation timer."""
        if not self.detained:
            return
        for held in [held for held, held_hook in self.detained.items()
                     if held is container
                     or (held_hook == hook_name
                         and held.name == container.name)]:
            self.release(held)

    def release(self, container: "FemtoContainer") -> None:
        """Stop holding a detained ``container``: cancel its probation
        timer, drop it from :attr:`detained` and clear both out-of-service
        flags.  Its strikes stay, so a struck-out container's next
        quarantine is permanent at once."""
        del self.detained[container]
        health = container.health
        if health._rearm_entry is not None:
            self.engine.kernel.timers.cancel(health._rearm_entry)
            health._rearm_entry = None
        health.rearm_at_us = None
        health.quarantined = False
        health.permanent = False

    def quarantined_slots(self) -> list[tuple[str, str]]:
        """Slots currently held out of service (incl. permanent)."""
        return sorted((hook_name, container.name)
                      for container, hook_name in self.detained.items())
