"""Fault injection for the OTA pipeline: crashes, reboots, loss, stalls.

The SUIT workflow (§6 of the paper) is designed for devices that lose
power at arbitrary instants and radios that drop most frames.  This
module injects exactly those faults into a
:class:`~repro.deploy.publish.FleetPublisher` run, deterministically: a
:class:`FaultInjector` executes a *plan* of events pinned to virtual
timestamps on the publisher's backhaul clock, so the same plan + the
same seeds reproduce the same chaos bit for bit.

Six event kinds exist — three attacking power and links:

* :class:`CrashAt` — the device power-fails at ``at_us`` (all RAM state
  dropped, NVM kept) and is rebooted ``down_us`` later by the publisher,
  which rebuilds the kernel/engine/radio rig, restores storage from NVM
  and re-activates installed state;
* :class:`LinkLossBurst` — the shared link's frame-loss probability is
  raised to ``loss`` for ``duration_us`` (a jammed or congested channel),
  then restored;
* :class:`StallAt` — the device stops being scheduled for
  ``duration_us`` (wedged firmware, busy peripheral): it is neither dead
  nor reachable, the publisher's retries must simply outlast it;

and three attacking the flash itself (PR 7):

* :class:`TornWriteAt` — arms the device's NVM so the next matching
  record commit is torn by a power failure mid-program (at the shadow
  or the primary phase); the device halts mid-commit and is rebooted
  ``down_us`` after the tear fires;
* :class:`BitFlipAt` — flips one bit in a stored record (radiation,
  marginal cell); the CRC framing must catch it and the shadow/replica
  must repair or contain it;
* :class:`WearOut` — imposes an erase-cycle budget on the device's
  flash; regions erased past the budget go bad and corrupt whatever is
  programmed into them (the journal must detect and route around).

Failure modes and recovery paths
--------------------------------

How a publish converges (or degrades) for each crash point, given an
NVM-backed worker — this is the contract the kill-point sweep and the
chaos tests pin down:

========================  ==========================  ===========================================
crash point               observed publish status     recovery path
========================  ==========================  ===========================================
before trigger arrives    row pending → retriggered   publisher backoff re-POSTs the trigger
``decoded``/``verified``  no result → retriggered     re-trigger re-runs the full pipeline
``resolved``/``reserved``  no result → retriggered    RAM reservation vanished with the RAM —
                                                      nothing to release; re-trigger re-reserves
mid-fetch (any block)     no result → retriggered     fetch checkpoint in NVM; resume from the
                                                      last persisted block, not byte zero
``fetched``/``checked``   no result → retriggered     payload was RAM-only → full re-fetch of
                                                      the (cheap) remaining state
``installed``             ``REBOOTED`` row            install hit NVM before the crash: reboot
                                                      restores + re-activates it; the re-trigger
                                                      is refused as a replay, which the
                                                      publisher recognizes as convergence
``activated``             ``REBOOTED`` row            same — activation is RAM state rebuilt by
                                                      :meth:`~repro.suit.worker.SuitUpdateWorker.recover`
device never reboots      ``UNREACHABLE`` row,        none — the publisher reports partial
                          ``converged=False``         convergence instead of raising
torn write, shadow phase  no result → retriggered     primary record untouched: the device
                                                      reboots on the *old* value and the
                                                      re-trigger re-runs the pipeline
torn write, commit phase  retriggered / ``REBOOTED``  the shadow copy holds the full new frame;
                                                      the first read after reboot repairs the
                                                      primary (``nvm.repairs``)
bit flip in a record      silent repair or refetch    CRC framing rejects the frame; redundant
                                                      records repair from the replica, plain
                                                      records are dropped by ``restore()`` and
                                                      the image re-fetched
worn-out flash region     shadow/replica serves       a region past its erase budget corrupts
                                                      programs; the read-back verify keeps the
                                                      journal's good copy alive
crash-looping container   ``QUARANTINED`` row         the device-side supervisor detaches the
                                                      looper with exponential-backoff probation;
                                                      the publisher reports the slot, the rest
                                                      of the fleet converges
========================  ==========================  ===========================================

Anti-rollback state is written **twice** — inside the slot record and as
a small redundant ``suit/seq/`` record whose shadow replica is kept —
so no crash point, torn write or single bit flip can lose or regress an
accepted sequence number, and no crash point can strand a storage
reservation (reservations are deliberately RAM-only).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.publish import FleetPublisher


@dataclass(frozen=True)
class CrashAt:
    """Power-fail ``device`` at ``at_us``; reboot it ``down_us`` later.

    ``down_us=None`` means the device never comes back — the publisher
    must degrade to partial convergence (an ``UNREACHABLE`` row).
    """

    device: str
    at_us: float
    down_us: float | None = 500_000.0


@dataclass(frozen=True)
class LinkLossBurst:
    """Raise the shared link's loss to ``loss`` for ``duration_us``."""

    at_us: float
    duration_us: float
    loss: float = 0.9


@dataclass(frozen=True)
class StallAt:
    """Freeze ``device``'s scheduling for ``duration_us`` (wedged, not dead)."""

    device: str
    at_us: float
    duration_us: float


@dataclass(frozen=True)
class TornWriteAt:
    """Arm ``device``'s flash to tear its next matching record commit.

    The next :meth:`~repro.rtos.nvm.NvmStore.write` whose key contains
    ``match`` dies mid-``phase`` (``"shadow"`` or ``"commit"``): power
    fails with a half-programmed frame in that region.  The injector
    reboots the device ``down_us`` after the tear actually fires.
    """

    device: str
    at_us: float
    phase: str = "commit"
    match: str = "suit/"
    down_us: float | None = 200_000.0


@dataclass(frozen=True)
class BitFlipAt:
    """Flip one bit in ``device``'s first stored record under
    ``key_prefix`` (cosmic ray / marginal cell — no power event)."""

    device: str
    at_us: float
    key_prefix: str = "suit/"


@dataclass(frozen=True)
class WearOut:
    """Impose an erase-cycle budget on ``device``'s flash from ``at_us``
    on: any region erased more than ``erase_budget`` times goes bad."""

    device: str
    at_us: float
    erase_budget: int = 64


ChaosEvent = CrashAt | LinkLossBurst | StallAt | TornWriteAt | BitFlipAt \
    | WearOut


class FaultInjector:
    """Executes a chaos plan against a fleet publisher's converge loop.

    The publisher polls the injector once per converge window
    (:meth:`poll`); every event whose ``at_us`` has passed on the
    backhaul clock fires exactly once.  All state transitions happen at
    window granularity of the *virtual* clocks — wall time never enters,
    so a plan is exactly reproducible.
    """

    def __init__(self, plan: Sequence[ChaosEvent] = (),
                 auto_reboot_us: float | None = None) -> None:
        #: When set, any device found power-failed *outside* the plan —
        #: e.g. a kill-point hook raising
        #: :class:`~repro.rtos.errors.PowerFailure` mid-pipeline — is
        #: rebooted this long after the injector first sees it down.
        self.auto_reboot_us = auto_reboot_us
        self._pending: list[ChaosEvent] = sorted(plan, key=lambda e: e.at_us)
        #: Device name -> virtual instant to reboot it (None: never).
        self._down: dict[str, float | None] = {}
        #: Device name -> virtual instant its stall ends.
        self._stalled_until: dict[str, float] = {}
        self._burst_until: float | None = None
        self._base_loss: float | None = None
        #: Device name -> (down_us, torn count when armed): a tear has
        #: been armed on its NVM and we are waiting for it to fire.
        self._torn_armed: dict[str, tuple[float | None, int]] = {}
        #: Observability counters.
        self.crashes = 0
        self.reboots = 0
        self.bursts = 0
        self.stalls = 0
        self.torn_writes = 0
        self.bitflips = 0
        self.wearouts = 0

    @classmethod
    def random_plan(
        cls,
        device_names: Sequence[str],
        seed: int,
        horizon_us: float,
        crashes: int = 2,
        bursts: int = 1,
        stalls: int = 1,
        down_us: float = 500_000.0,
        torn_writes: int = 0,
        bitflips: int = 0,
        wearouts: int = 0,
    ) -> list[ChaosEvent]:
        """A seeded random plan over ``horizon_us`` of backhaul time.

        The storage-fault draws come *after* the classic three, so a
        plan with the default counts is byte-identical to pre-PR 7
        plans for the same seed.
        """
        rng = random.Random(seed)
        plan: list[ChaosEvent] = []
        for _ in range(crashes):
            plan.append(CrashAt(
                device=rng.choice(list(device_names)),
                at_us=rng.uniform(0.05, 0.8) * horizon_us,
                down_us=down_us,
            ))
        for _ in range(bursts):
            plan.append(LinkLossBurst(
                at_us=rng.uniform(0.05, 0.7) * horizon_us,
                duration_us=rng.uniform(0.05, 0.2) * horizon_us,
                loss=rng.uniform(0.5, 0.9),
            ))
        for _ in range(stalls):
            plan.append(StallAt(
                device=rng.choice(list(device_names)),
                at_us=rng.uniform(0.05, 0.7) * horizon_us,
                duration_us=rng.uniform(0.05, 0.2) * horizon_us,
            ))
        for _ in range(torn_writes):
            plan.append(TornWriteAt(
                device=rng.choice(list(device_names)),
                at_us=rng.uniform(0.05, 0.6) * horizon_us,
                phase=rng.choice(["shadow", "commit"]),
                down_us=down_us,
            ))
        for _ in range(bitflips):
            plan.append(BitFlipAt(
                device=rng.choice(list(device_names)),
                at_us=rng.uniform(0.05, 0.8) * horizon_us,
            ))
        for _ in range(wearouts):
            plan.append(WearOut(
                device=rng.choice(list(device_names)),
                at_us=rng.uniform(0.05, 0.5) * horizon_us,
                erase_budget=rng.randint(8, 32),
            ))
        return sorted(plan, key=lambda e: e.at_us)

    # -- the converge-loop hooks -------------------------------------------

    def stalled(self, device_name: str) -> bool:
        """True while ``device_name`` must not be scheduled."""
        return device_name in self._stalled_until

    def poll(self, publisher: "FleetPublisher") -> None:
        """Fire every due event; progress reboots, bursts and stalls."""
        now = publisher.kernel.now_us
        while self._pending and self._pending[0].at_us <= now:
            self._fire(self._pending.pop(0), publisher, now)
        for name, (down_us, baseline) in list(self._torn_armed.items()):
            device = publisher.fleet.device(name)
            if device.nvm is None or device.nvm.torn == baseline:
                continue  # still armed, no matching write happened yet
            # The tear fired: the device died mid-commit.  Queue its
            # reboot like a scripted crash.
            del self._torn_armed[name]
            self.torn_writes += 1
            if device.kernel.halted and name not in self._down:
                publisher.crash_device(device)
                self.crashes += 1
                self._down[name] = (None if down_us is None
                                    else now + down_us)
        if self.auto_reboot_us is not None:
            for device in publisher.fleet.devices:
                if device.kernel.halted and device.name not in self._down:
                    # Crashed outside the plan (kill-point injection):
                    # take its radio off the air and queue the reboot.
                    publisher.crash_device(device)
                    self.crashes += 1
                    self._down[device.name] = now + self.auto_reboot_us
        for name, reboot_at in list(self._down.items()):
            if reboot_at is not None and now >= reboot_at:
                del self._down[name]
                publisher.reboot_device(publisher.fleet.device(name))
                self.reboots += 1
        if self._burst_until is not None and now >= self._burst_until:
            publisher.link.loss = self._base_loss
            self._burst_until = None
            self._base_loss = None
        for name, until in list(self._stalled_until.items()):
            if now >= until:
                del self._stalled_until[name]

    def _fire(self, event: ChaosEvent, publisher: "FleetPublisher",
              now: float) -> None:
        if isinstance(event, CrashAt):
            device = publisher.fleet.device(event.device)
            if device.kernel.halted:
                return  # already down — crashing a corpse is a no-op
            publisher.crash_device(device)
            self.crashes += 1
            self._down[event.device] = (
                None if event.down_us is None else now + event.down_us
            )
        elif isinstance(event, LinkLossBurst):
            if self._burst_until is None:
                self._base_loss = publisher.link.loss
            publisher.link.loss = event.loss
            self._burst_until = max(self._burst_until or 0.0,
                                    now + event.duration_us)
            self.bursts += 1
        elif isinstance(event, StallAt):
            self._stalled_until[event.device] = max(
                self._stalled_until.get(event.device, 0.0),
                now + event.duration_us,
            )
            self.stalls += 1
        elif isinstance(event, TornWriteAt):
            device = publisher.fleet.device(event.device)
            if device.nvm is None or device.kernel.halted:
                return  # nothing to tear / already a corpse
            device.nvm.tear_next_write(event.phase, event.match)
            self._torn_armed[event.device] = (event.down_us,
                                              device.nvm.torn)
        elif isinstance(event, BitFlipAt):
            device = publisher.fleet.device(event.device)
            if device.nvm is None:
                return
            for key in device.nvm.keys(event.key_prefix):
                if device.nvm.bit_flip(key):
                    self.bitflips += 1
                    break
        elif isinstance(event, WearOut):
            device = publisher.fleet.device(event.device)
            if device.nvm is None:
                return
            device.nvm.erase_budget = event.erase_budget
            self.wearouts += 1

    def forget(self, device_name: str) -> None:
        """Drop every fault still held for an evicted device: its pending
        events, its down/reboot entry, its stall and any armed tear."""
        self._pending = [event for event in self._pending
                         if getattr(event, "device", None) != device_name]
        self._down.pop(device_name, None)
        self._stalled_until.pop(device_name, None)
        self._torn_armed.pop(device_name, None)

    @property
    def idle(self) -> bool:
        """True once nothing is left to fire or resolve by itself (a
        device that never reboots does not hold a publish open)."""
        return (not self._pending and self._burst_until is None
                and not self._stalled_until
                and all(at is None for at in self._down.values()))

    @property
    def quiescent(self) -> bool:
        """True once every planned fault has fired and resolved."""
        return self.idle and not self._down
