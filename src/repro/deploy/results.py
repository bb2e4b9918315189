"""One fleet result and one device row for every rollout.

Every fleet entry point — :meth:`~repro.deploy.fleet.Fleet.apply`,
:meth:`~repro.deploy.fleet.Fleet.canary_rollout` and
:meth:`~repro.deploy.publish.FleetPublisher.publish` — returns a
:class:`FleetResult`, and both transports (direct plan/apply and over
the radio) report each device's convergence as a :class:`DeviceRow`:

* rows sit in the phase lists ``canary``, ``control`` and ``rollback``;
  an unstaged rollout keeps every row in ``control`` with role
  ``"device"``, and ``rows()`` lists all three phases in order;
* ``ok`` has one definition: not rolled back, at least one row, and
  every row ok.  For a staged rollout that equals ``promoted``; for an
  unstaged one it means every device converged;
* the radio fields (``sequence_number``, ``payload_bytes``,
  ``multicast``, ``trigger_tx_bytes``, ``mcast_acks``) keep their
  defaults on an in-process apply, which sent nothing over the radio.

A row holds an :class:`~repro.suit.worker.UpdateResult` — a value
record — never the live apply, so a kept result pins no replaced
container or timer closure.  The image cache's effect shows in the
rows' exact ``cache_hits``/``cache_misses`` counts, which
``benchmarks/test_image_cache_guard.py`` pins: the cold device misses
once per new image, warm rows never miss, and cycles are equal.

:class:`DeviceStatus` is the other row shape: one device's state at
query time, streamed by
:meth:`~repro.deploy.publish.FleetPublisher.status`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.suit.worker import UpdateResult, UpdateStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.fleet import FleetDevice
    from repro.deploy.spec import DeploymentSpec


@dataclass
class DeviceRow:
    """One device's convergence during one rollout, on either transport.

    ``role`` is ``"device"`` (unstaged), ``"canary"``, ``"control"``
    (promotion) or ``"rollback"``.  The radio-only counters stay 0 on a
    direct apply.
    """

    device: FleetDevice
    role: str
    result: UpdateResult
    wall_s: float
    cycles_charged: int
    #: Instance-prototype lookups in :data:`~repro.vm.imagecache
    #: .IMAGE_CACHE` made during this device's own slices (its apply, or
    #: its co-run windows on the radio), that found / derived the
    #: prototype.  No other memo is counted.
    cache_hits: int
    cache_misses: int
    #: Trigger re-POSTs this device needed beyond the first.
    retries: int = 0
    #: Power cycles this device went through during this convergence.
    reboots: int = 0
    #: Contained faults this device recorded during the convergence
    #: (summed across reboots — each reboot starts a fresh engine).
    fault_delta: int = 0
    #: Container slots the device's supervisor is holding quarantined
    #: at report time.
    quarantined: int = 0
    #: Radio energy this convergence cost the device (µJ).
    radio_uj: float = 0.0

    @property
    def ok(self) -> bool:
        """Converged: a clean reconcile, a reboot that kept the
        published sequence in NVM, or a convergence whose supervisor is
        quarantining a crash-looping slot (the *device* holds the
        published sequence; the sick workload is contained, reported,
        and does not block the rest of the fleet)."""
        return (self.result.ok
                or self.result.status is UpdateStatus.REBOOTED
                or self.result.status is UpdateStatus.QUARANTINED)

    @property
    def actions(self) -> int:
        """Plan actions the device's reconcile executed (0 if refused)."""
        executed = self.result.plan
        return len(executed.actions) if executed is not None else 0


@dataclass(frozen=True)
class DeviceStatus:
    """One row of :meth:`~repro.deploy.publish.FleetPublisher.status`:
    a device's state now, not one rollout's convergence."""

    name: str
    index: int
    board: str
    addr: str | None
    #: Highest anti-rollback sequence the device holds for the fleet
    #: spec slot (0: never converged on any publish).
    sequence: int
    #: Name of the spec this device last converged on, if any.
    spec: str | None
    reboots: int
    quarantined: int
    halted: bool
    cycles: int
    radio_uj: float


@dataclass(kw_only=True)
class FleetResult:
    """Rows and verdict of one fleet rollout, whatever the transport.

    A staged rollout either **promoted** (every canary baked healthy and
    the spec went fleet-wide) or **rolled back** (a canary refused the
    spec or breached the health gate, or promotion was refused; every
    device that accepted the spec was reverted, and devices never
    triggered were never touched).
    """

    spec: DeploymentSpec
    #: Canary-phase rows, in fleet order.
    canary: list[DeviceRow] = field(default_factory=list)
    #: Fleet-wide rows: the promotion after a healthy bake (empty unless
    #: promoted), or every device of an unstaged rollout.
    control: list[DeviceRow] = field(default_factory=list)
    #: Revert rows (empty unless rolled back).
    rollback: list[DeviceRow] = field(default_factory=list)
    #: Fleet-level rollback target: the explicit baseline, else the spec
    #: the fleet last converged on, else an empty spec of the same scope.
    baseline: DeploymentSpec | None = None
    #: Virtual microseconds each canary baked for.
    bake_us: float = 0.0
    #: Contained faults per canary during the bake.
    fault_deltas: dict[str, int] = field(default_factory=dict)
    #: Health-gate breaches per canary (empty lists when healthy).
    health: dict[str, list[str]] = field(default_factory=dict)
    promoted: bool = False
    rolled_back: bool = False
    reason: str = ""
    #: Sequence number of the signed manifest (``None``: direct apply).
    sequence_number: int | None = None
    payload_bytes: int = 0
    #: The fan-out trigger went over the group address (one broadcast).
    multicast: bool = False
    #: Radio bytes the maintainer spent on trigger fan-out (broadcast
    #: frame plus any unicast first-POSTs/retries), from ``LinkStats``.
    trigger_tx_bytes: int = 0
    #: Device names whose randomized suppression timer elected them into
    #: the bounded multicast ack sample.
    mcast_acks: list[str] = field(default_factory=list)

    def rows(self) -> list[DeviceRow]:
        """Per-device rows: canary, then control, then rollback."""
        return self.canary + self.control + self.rollback

    @property
    def ok(self) -> bool:
        """Not rolled back, at least one row, and every row ok."""
        rows = self.rows()
        return (not self.rolled_back and bool(rows)
                and all(row.ok for row in rows))

    @property
    def wall_s(self) -> float:
        """Total host wall-clock across the per-device rows."""
        return sum(row.wall_s for row in self.rows())

    @property
    def canary_names(self) -> list[str]:
        return [row.device.name for row in self.canary]

    def cycles_per_device(self) -> list[int]:
        return [row.cycles_charged for row in self.rows()]

    @property
    def total_retries(self) -> int:
        return sum(row.retries for row in self.rows())

    @property
    def total_reboots(self) -> int:
        return sum(row.reboots for row in self.rows())

    @property
    def total_fault_delta(self) -> int:
        """Contained faults across the fleet during this rollout."""
        return sum(row.fault_delta for row in self.rows())

    @property
    def total_radio_uj(self) -> float:
        """Radio energy the whole fleet spent converging (µJ)."""
        return sum(row.radio_uj for row in self.rows())

    def unreachable(self) -> list[DeviceRow]:
        """Devices that never reported despite every retry."""
        return [row for row in self.rows()
                if row.result.status is UpdateStatus.UNREACHABLE]

    def quarantined_devices(self) -> list[DeviceRow]:
        """Devices that converged but hold quarantined container slots."""
        return [row for row in self.rows()
                if row.result.status is UpdateStatus.QUARANTINED]
