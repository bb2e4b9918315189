"""Long-lived maintainer control plane for one device fleet.

The maintainer side of the stack grew up as three loosely coupled
pieces — :class:`~repro.deploy.fleet.Fleet` (devices + direct applies),
:class:`~repro.deploy.publish.FleetPublisher` (radio + OTA publish) and
the canary staging logic — each holding its own idea of "the device
list".  :class:`ControlPlane` is the faasd-style service object that
owns the whole lifecycle behind one typed API:

* **device registry** — register/evict/list devices at any time, not
  just at construction; everyone (fleet, publisher, chaos) reads the
  same :class:`~repro.deploy.registry.DeviceRegistry`;
* **release submission** — :meth:`submit` signs a spec into an
  immutable :class:`Release` (sequence number, envelope, payload) that
  can be published, canaried, or audited later;
* **publish/canary orchestration** — :meth:`publish` and
  :meth:`canary` drive :meth:`FleetPublisher.publish` with the
  fleet-scale profile (multicast trigger + integrated payload) by
  default;
* **streamed status** — :meth:`status` yields one typed
  :class:`DeviceStatus` row per device, registry order, cheap enough
  to call at N=1000.

The plane adds **no new mechanism** — it is a facade over the same
fleet/publisher objects (exposed as attributes for tests and advanced
callers), which is exactly what keeps it honest: anything the plane
reports can be cross-checked against the underlying pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.deploy.fleet import Fleet, FleetDevice
from repro.deploy.publish import FleetPublisher, PublishOptions
from repro.deploy.registry import DeviceRegistry
from repro.deploy.results import FleetResult
from repro.deploy.spec import DeploymentSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.board import Board
    from repro.vm.supervisor import SupervisorConfig


@dataclass(frozen=True)
class Release:
    """One signed, immutable fleet release."""

    spec: DeploymentSpec
    sequence_number: int
    #: Signed COSE envelope bytes (what a trigger carries).
    envelope: bytes
    #: Canonical CBOR spec payload (what devices reconcile onto).
    payload: bytes

    @property
    def name(self) -> str:
        return f"{self.spec.name}@{self.sequence_number}"


@dataclass(frozen=True)
class DeviceStatus:
    """One streamed per-device status row."""

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


class ControlPlane:
    """One maintainer service owning fleet, releases and publishes."""

    def __init__(
        self,
        devices: int | Sequence["Board"] = 4,
        implementation: str = "jit",
        loss: float = 0.0,
        seed: int = 1234,
        supervisor: SupervisorConfig | None = None,
        **publisher_kwargs,
    ) -> None:
        self.fleet = Fleet(devices, implementation=implementation,
                           supervisor=supervisor)
        self.publisher = FleetPublisher(self.fleet, loss=loss, seed=seed,
                                        **publisher_kwargs)
        #: Chronological record of every submitted release.
        self.releases: list[Release] = []

    @property
    def registry(self) -> DeviceRegistry:
        """THE device registry (same object the fleet/publisher use)."""
        return self.fleet.registry

    # -- device lifecycle ----------------------------------------------

    def register(self, board: "Board | None" = None,
                 name: str | None = None) -> FleetDevice:
        """Add one device to the live fleet and wire its radio."""
        device = self.fleet.add_device(board, name=name)
        self.publisher.adopt_device(device)
        return device

    def evict(self, name: str) -> FleetDevice:
        """Remove one device from the fleet and take it off the air."""
        return self.publisher.evict_device(name)

    def devices(self) -> list[FleetDevice]:
        return self.registry.devices()

    def device(self, name: str) -> FleetDevice:
        return self.registry.get(name)

    def __len__(self) -> int:
        return len(self.registry)

    # -- releases ------------------------------------------------------

    def submit(self, spec: DeploymentSpec,
               sequence_number: int | None = None) -> Release:
        """Sign ``spec`` into an immutable release (not yet published).

        The release takes the next maintainer sequence number (or the
        explicit one) and its payload is registered with the repository,
        so devices triggered later can fetch it.
        """
        envelope, payload, sequence = self.publisher._sign(
            spec, sequence_number, None)
        release = Release(spec=spec, sequence_number=sequence,
                          envelope=envelope, payload=payload)
        self.releases.append(release)
        return release

    # -- orchestration -------------------------------------------------

    def publish(self, release: Release | DeploymentSpec,
                options: PublishOptions | None = None) -> FleetResult:
        """Fan one release out to the whole fleet.

        Defaults to :meth:`PublishOptions.scale` — the control plane
        exists for fleets where one broadcast beats N POSTs.  Passing a
        bare spec submits it implicitly first.
        """
        if isinstance(release, DeploymentSpec):
            release = self.submit(release)
        if options is None:
            options = PublishOptions.scale()
        # Publishing re-signs the same spec under the release's sequence
        # number; Ed25519 is deterministic, so the envelope on the air
        # is byte-identical to the submitted release's.
        options = replace(options, sequence_number=release.sequence_number)
        return self.publisher.publish(release.spec, options)

    def canary(self, release: Release | DeploymentSpec,
               canary_count: int,
               options: PublishOptions | None = None) -> FleetResult:
        """Health-gated staged publish through ``canary_count`` devices."""
        if options is None:
            options = PublishOptions.scale()
        options = replace(options, canary_count=canary_count)
        return self.publish(release, options)

    # -- streamed status -----------------------------------------------

    def status(self) -> Iterator[DeviceStatus]:
        """Stream one typed status row per device, registry order."""
        slot = self.publisher.slot
        for device in self.registry:
            radio = device.radio
            yield DeviceStatus(
                name=device.name,
                index=self.registry.index_of(device.name),
                board=device.kernel.board.name,
                addr=radio.addr if radio is not None else None,
                sequence=(max(0, radio.worker.storage.highest_sequence(slot))
                          if radio is not None else 0),
                spec=(device.current_spec.name
                      if device.current_spec is not None else None),
                reboots=device.reboots,
                quarantined=len(
                    device.engine.supervisor.quarantined_slots()),
                halted=device.kernel.halted,
                cycles=device.kernel.clock.cycles,
                radio_uj=(device.meter.report().radio_uj
                          if device.meter is not None else 0.0),
            )
