"""Fleet-wide OTA publish: one signed spec fanned out over the radio.

A :class:`FleetPublisher` wires every
:class:`~repro.deploy.fleet.FleetDevice` with a radio rig — an interface
on one **shared broadcast link**, a device-side gcoap server exposing the
worker's ``/suit/trigger`` endpoint, a CoAP client for the block-wise
payload fetch, and a per-device
:class:`~repro.suit.specworker.SpecUpdateWorker` — plus a
maintainer-side repository serving the spec payload.

:meth:`FleetPublisher.publish` then signs **one** manifest (one COSE
envelope, one canonical CBOR payload) and triggers every device with it.
Each device independently authenticates the envelope, enforces *its own*
anti-rollback sequence, fetches the payload block-wise from the
repository, and reconciles itself through ``plan``/``apply`` — so one
publish produces N per-device convergences.  The wire payload is one;
the *host-side* verify and JIT compile are also one, because every
device's apply resolves through the content-addressed
:data:`~repro.vm.imagecache.IMAGE_CACHE` — device 1 pays the cold
compile in its apply slice and devices 2..N ride it
(``benchmarks/test_image_cache_guard.py`` asserts that per row: the
cold device misses once per new image, warm rows never miss, and cycles
are equal).

Each device keeps its **own virtual clock**, as everywhere in the fleet
layer: the signature check, the SHA-256 digest, and the full modelled
verify+install cost are charged per device, cold or cached.  The
maintainer runs on a separate backhaul kernel that owns the link's
airtime timers; a publish co-runs all kernels in small interleaved
windows until every triggered worker reported.

During one converge the publisher keeps one typed track per device: its
trigger (envelope, attempts, backoff, ack), the verdicts its worker
reported through ``on_result``, and the baselines its row is measured
against.  One rule says when a device is done: once it reported a
verdict for the sequence, it is never triggered again, on either
transport.  Everything else a publish accumulates (trigger bytes, the
multicast ack sample) lives on the publish's own transport object and
lands on its :class:`~repro.deploy.results.FleetResult`.

With ``canary_count`` the publish runs the same
:class:`~repro.deploy.staged.StagedRollout` as
:meth:`~repro.deploy.fleet.Fleet.canary_rollout`, over a radio
transport: trigger the canaries, bake them, judge them against a
:class:`~repro.deploy.staged.HealthGate`, and only then trigger the rest
of the fleet.  An unhealthy bake publishes each canary's *own* prior
spec back to it — under a **new, higher** sequence number, because
anti-rollback forbids re-announcing an old one; devices sharing a
baseline share one signed envelope — and never touches the control
devices at all.

Every row also carries the device's health/energy telemetry
(contained-fault delta, quarantined slot count, radio energy), and a
device whose :class:`~repro.vm.supervisor.ContainerSupervisor`
quarantined a crash-looping slot reports a ``QUARANTINED`` row: still
*converged* — the device runs the published sequence, the sick workload
is contained — but visibly flagged instead of silently green.
"""

from __future__ import annotations

import random
import time
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.engine import HostingEngine
from repro.deploy.fleet import Fleet, FleetDevice
from repro.deploy.results import DeviceRow, DeviceStatus, FleetResult
from repro.deploy.spec import DeploymentSpec
from repro.deploy.staged import StagedRollout
from repro.memo import Memo
from repro.net import coap
from repro.net.coap import CoapMessage
from repro.net.gcoap import CoapClient, CoapServer
from repro.net.link import Interface, Link
from repro.net.udp import UdpStack
from repro.rtos.energy import EnergyMeter
from repro.rtos.kernel import Kernel
from repro.suit import cbor, ed25519
from repro.suit.specworker import SpecUpdateWorker
from repro.suit.storage import RELEASE_CACHE_ENTRIES
from repro.suit.worker import UpdateResult, UpdateStatus
from repro.vm.imagecache import IMAGE_CACHE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.chaos import FaultInjector
    from repro.deploy.staged import HealthGate
    from repro.rtos.board import Board

MAINTAINER_ADDR = "2001:db8::maint"
DEVICE_ADDR_TEMPLATE = "2001:db8::dev{index}"
COAP_PORT = 5683
TRIGGER_PATH = "/suit/trigger"

#: RFC 7390-style CoAP group address every fleet device joins at wiring
#: time; one NON POST here reaches the whole fleet in one airtime cost.
GROUP_ADDR = "ff15::fleet:all"
#: Device-side resource the multicast trigger lands on.
MCAST_TRIGGER_PATH = "/suit/mtrigger"
#: Maintainer-side resource the suppressed ack sample lands on.
ACK_PATH = "/fleet/ack"

#: App-level trigger retry: first re-POST after this backhaul-clock
#: delay, doubling per attempt up to the cap.  This sits *on top of* the
#: CoAP layer's own CON retransmissions — it covers the cases those
#: cannot: a device that rebooted (new radio incarnation) or stayed dark
#: past the whole CoAP exchange lifetime.
TRIGGER_RETRY_BASE_US = 2_000_000.0
TRIGGER_RETRY_CAP_US = 16_000_000.0
MAX_TRIGGER_ATTEMPTS = 8

#: Worker statuses worth a re-trigger: transient transport outcomes, not
#: policy refusals.  A re-triggered fetch resumes from the NVM
#: checkpoint, so retries get monotonically cheaper.
RETRYABLE_STATUSES = (UpdateStatus.FETCH_FAILED,)

#: Virtual-time slice every kernel advances per co-run window.
CORUN_WINDOW_US = 20_000.0
#: Max randomized suppression delay before a multicast ack (RFC 7390
#: leisure).
ACK_LEISURE_US = 250_000.0


@dataclass(frozen=True)
class PublishOptions:
    """Every knob of one :meth:`FleetPublisher.publish`, in one place.

    The defaults are the unicast path (one CON trigger per device);
    :meth:`scale` switches to the fleet-scale broadcast trigger.
    """

    #: Explicit sequence number (``None``: next maintainer epoch).
    sequence_number: int | None = None
    #: Signing seed overriding the maintainer's (rogue-signer tests).
    signer_seed: bytes | None = None
    #: Stage through this many canaries first (``None``: whole fleet).
    canary_count: int | None = None
    #: Canary health policy (``None``: default :class:`HealthGate`).
    health_gate: HealthGate | None = None
    #: Virtual microseconds each canary bakes for.
    bake_us: float = 2_000_000.0
    #: Explicit firings of the spec's aperiodic hooks per canary during
    #: the bake.
    bake_fires: int = 0
    #: Context bytes for bake firings.
    bake_context: bytes | None = None
    #: Convergence window budget before UNREACHABLE rows.
    max_windows: int = 4000
    #: Broadcast the trigger, with the payload inlined (SUIT integrated
    #: payload), to the link group instead of N unicast POSTs and N
    #: block-wise fetches (full-fleet publishes only — canary subsets
    #: stay unicast).
    multicast: bool = False
    #: Expected size of the suppressed ack sample the maintainer hears
    #: (each device acks with probability ``ack_sample / N``).
    ack_sample: int = 8
    #: Backhaul-clock grace before unicast fallback re-POSTs chase
    #: devices that missed the broadcast.
    mcast_grace_us: float = 2_000_000.0

    @classmethod
    def legacy(cls, **overrides) -> "PublishOptions":
        """The unicast defaults, spelled out (the bench baseline)."""
        return cls(**{"multicast": False, **overrides})

    @classmethod
    def scale(cls, **overrides) -> "PublishOptions":
        """The fleet-scale profile: one broadcast trigger carrying the
        integrated payload."""
        return cls(**{"multicast": True, **overrides})


@dataclass
class DeviceRadio:
    """One fleet device's end of the shared link."""

    addr: str
    iface: Interface
    udp: UdpStack
    server: CoapServer
    client: CoapClient
    worker: SpecUpdateWorker


def _radio_uj(device: FleetDevice) -> float:
    return device.meter.radio_uj() if device.meter is not None else 0.0


def _decode_mcast_body(raw: bytes) -> tuple | None:
    """The ``(envelope, payload, sequence, permille, leisure_us)`` of one
    group-trigger body, or ``None`` if it is malformed.

    The body's fields are unsigned — only the envelope inside is
    authenticated — so each is type-checked here, before any device
    acts on it: ``e`` must be bytes, ``y`` bytes or absent, and ``s``,
    ``p`` and ``l`` non-negative ints (absent reads as 0).
    """
    try:
        body = cbor.decode(raw)
    except Exception:
        return None
    if not isinstance(body, dict):
        return None
    envelope, payload = body.get("e"), body.get("y")
    numbers = tuple(body.get(field, 0) for field in ("s", "p", "l"))
    if (not isinstance(envelope, bytes)
            or not (payload is None or isinstance(payload, bytes))
            or not all(type(n) is int and n >= 0 for n in numbers)):
        return None
    return (envelope, payload, *numbers)


class _Track:
    """Everything the publisher tracks about one device during one
    converge: its trigger (timed on the backhaul clock), its worker's
    verdicts, and the baselines its row is measured against."""

    def __init__(self, device: FleetDevice, envelope: bytes,
                 sequence_number: int, attempts: int,
                 next_retry_us: float) -> None:
        self.device = device
        #: The signed envelope a unicast (re-)POST carries.
        self.envelope = envelope
        self.sequence_number = sequence_number
        #: Trigger attempts so far (a broadcast counts as the first).
        self.attempts = attempts
        #: Backhaul instant the next unicast POST is due.
        self.next_retry_us = next_retry_us
        #: Stop chasing: the CON trigger or the lottery ack arrived, or
        #: the device finished (the one done rule, on either transport).
        self.acked = False
        #: This sequence's verdicts, queued by the worker's ``on_result``
        #: hook; the converge loop consumes one per co-run window.
        self.verdicts: list[UpdateResult] = []
        self.worker: SpecUpdateWorker = device.radio.worker
        self.cycles_before: int = device.kernel.clock.cycles
        self.reboots_before: int = device.reboots
        self.radio_before = _radio_uj(device)
        self.wall_s = 0.0
        self.hits = self.misses = 0
        # ``fault_total`` lives on the engine, which a reboot rebuilds;
        # the meter survives reboots and is already cumulative.
        self.engine: HostingEngine = device.engine
        self.faults_before: int = device.engine.fault_total
        self.faults_accum = 0

    def retrigger(self, now_us: float) -> None:
        """Re-arm the trigger (straggler, failed fetch or rebooted device)."""
        self.acked = False
        self.next_retry_us = now_us

    def rebooted(self) -> None:
        """Follow the device into its new incarnation: fresh worker, no
        queued verdicts, and a fresh engine (bank the old one's faults)."""
        device = self.device
        self.worker = device.radio.worker
        self.verdicts.clear()
        self.faults_accum += self.engine.fault_total - self.faults_before
        self.engine = device.engine
        self.faults_before = device.engine.fault_total

    def row(self, role: str, result: UpdateResult) -> DeviceRow:
        device = self.device
        return DeviceRow(
            device=device, role=role, result=result, wall_s=self.wall_s,
            cycles_charged=device.kernel.clock.cycles - self.cycles_before,
            cache_hits=self.hits, cache_misses=self.misses,
            retries=max(0, self.attempts - 1),
            reboots=device.reboots - self.reboots_before,
            fault_delta=(self.faults_accum + device.engine.fault_total
                         - self.faults_before),
            radio_uj=_radio_uj(device) - self.radio_before,
        )


@dataclass
class _RadioTransport:
    """Staged-rollout transport over the radio, and the state of the one
    publish it serves.  Trigger bytes, the multicast flag and the ack
    sample land straight on ``result``."""

    publisher: "FleetPublisher"
    options: PublishOptions
    envelope: bytes
    payload: bytes
    result: FleetResult
    #: Device name -> track, for the converge under way only.
    tracks: dict[str, _Track] = field(default_factory=dict)
    #: Device name -> (device, kernel incarnation, virtual deadline us)
    #: for every scheduled-but-not-yet-fired lottery ack.
    ack_due: dict[str, tuple[FleetDevice, Kernel, float]] = field(
        default_factory=dict)

    def converge(self, devices: Sequence[FleetDevice], spec: DeploymentSpec,
                 role: str) -> tuple[list[DeviceRow], str]:
        rows = self.publisher._converge(devices, role, spec, self.envelope,
                                        self.payload,
                                        self.result.sequence_number)
        refused = ", ".join(sorted(row.device.name for row in rows
                                   if not row.ok))
        if not refused:
            return rows, ""
        if role == "control":
            return rows, f"promotion refused by {refused}"
        return rows, f"refused by canaries {refused}"

    def revert(self, groups) -> tuple[list[DeviceRow], str]:
        """Publish each baseline back to its group as a *new* sequence
        (anti-rollback forbids re-announcing an old one): one signed
        envelope per distinct baseline."""
        rows: list[DeviceRow] = []
        for baseline, devices in groups:
            envelope, payload, sequence = self.publisher._sign(baseline,
                                                               None, None)
            rows.extend(self.publisher._converge(
                devices, "rollback", baseline, envelope, payload, sequence))
        return rows, ""


class FleetPublisher:
    """Maintainer-side OTA publisher for one :class:`Fleet`.

    Construction wires the radio: one shared :class:`Link` (owned by a
    dedicated backhaul kernel), the maintainer repository + trigger
    client, and a full :class:`DeviceRadio` rig per fleet device
    (stored on ``device.radio``).  Sequence numbers come from one
    maintainer-wide epoch counter, which is also what makes the storage
    registry's cross-location GC horizon meaningful.

    The fleet owns membership; the publisher owns the radio lifecycle
    on top of it: :meth:`add_device` adds a wired device at runtime,
    :meth:`evict_device` takes one off the air, and :meth:`status`
    streams one :class:`~repro.deploy.results.DeviceStatus` row per
    device.  To publish under a chosen sequence number, set
    :attr:`PublishOptions.sequence_number`.
    """

    def __init__(
        self,
        fleet: Fleet,
        maintainer_seed: bytes = bytes(range(32)),
        loss: float = 0.0,
        seed: int = 1234,
        spec_uri: str = "/specs/fleet",
        slot: str = "spec:fleet",
    ) -> None:
        self.fleet = fleet
        self.maintainer_seed = maintainer_seed
        self.spec_uri = spec_uri
        self.slot = slot
        self.sequence = 0
        self.seed = seed
        self.kernel = Kernel()  # the maintainer/backhaul side
        self.link = Link(self.kernel, loss=loss, seed=seed)
        self._maint_iface = self.link.attach(Interface(MAINTAINER_ADDR))
        maint_udp = UdpStack(self._maint_iface)
        self.repo = CoapServer(self.kernel, maint_udp.socket(COAP_PORT),
                               threaded=False, name="spec-repo")
        self.trigger_client = CoapClient(self.kernel,
                                         maint_udp.socket(49900))
        #: Raw socket for group-addressed NON triggers.  Not the CoAP
        #: client: a NON request would sit in its pending table forever
        #: (no reply is ever coming back from a group).
        self._mcast_socket = maint_udp.socket(49901)
        self._mcast_mid = 1
        #: Publish-scoped release cache every device worker shares
        #: (cleared at the start of each publish): the validated
        #: group-trigger body, the decoded envelope and spec, and the
        #: encoded slot and sequence NVM records.  See
        #: :attr:`~repro.suit.worker.SuitUpdateWorker.release_cache`.
        self._release_cache = Memo(RELEASE_CACHE_ENTRIES)
        #: The publish under way (``None`` between publishes).
        self._transport: _RadioTransport | None = None
        self.repo.register(ACK_PATH, self._handle_mcast_ack)
        self.trust_anchor = ed25519.public_key(maintainer_seed)
        #: Fault injector driven once per converge window; ``None`` runs
        #: an undisturbed publish.
        self.chaos: "FaultInjector | None" = None
        for device in fleet.devices:
            self._adopt_device(device)

    # -- wire plumbing -----------------------------------------------------

    def add_device(self, board: Board | None = None,
                   name: str | None = None) -> FleetDevice:
        """Add one device to the fleet at runtime and wire its radio; it
        joins every later publish."""
        device = self.fleet.add_device(board, name=name)
        self._adopt_device(device)
        return device

    def _adopt_device(self, device: FleetDevice) -> None:
        """Give one fleet member its NVM, energy meter and radio rig."""
        if device.nvm is None:
            device.nvm = device.kernel.board.nvm(device.kernel)
        if device.meter is None:
            device.meter = EnergyMeter(device.kernel.board)
        self._wire_device(device)

    def evict_device(self, name: str) -> FleetDevice:
        """Remove one device from the fleet and take it off the air; the
        fault injector drops every fault it still holds for it."""
        device = self.fleet.evict(name)
        if device.radio is not None:
            self.link.detach(device.radio.addr)
            self.link.leave(GROUP_ADDR, device.radio.addr)
        if self.chaos is not None:
            self.chaos.forget(name)
        return device

    def _wire_device(self, device: FleetDevice) -> None:
        """Build one device's radio rig (initial wiring and re-wiring
        after a reboot — the NVM and energy meter persist, everything
        else is rebuilt from scratch)."""
        addr = DEVICE_ADDR_TEMPLATE.format(index=device.index)
        iface = self.link.attach(Interface(addr))
        udp = UdpStack(iface)
        server = CoapServer(device.kernel, udp.socket(COAP_PORT),
                            threaded=False, name=f"{device.name}-coap")
        client = CoapClient(device.kernel, udp.socket(49001))
        worker = SpecUpdateWorker(
            device.engine,
            client,
            trust_anchor=self.trust_anchor,
            repo_addr=MAINTAINER_ADDR,
            repo_port=COAP_PORT,
            nvm=device.nvm,
            release_cache=self._release_cache,
        )
        worker.on_result = partial(self._report, device.name)
        worker.register_trigger_resource(server, TRIGGER_PATH)
        self.link.join(GROUP_ADDR, iface)
        self._register_mcast_trigger(device, server, worker)
        device.radio = DeviceRadio(addr=addr, iface=iface, udp=udp,
                                   server=server, client=client,
                                   worker=worker)
        if device.meter is not None:
            device.meter.track_interface(iface)

    def _register_mcast_trigger(self, device: FleetDevice,
                                server: CoapServer, worker) -> None:
        """Device-side half of the group trigger (RFC 7390 style).

        The broadcast body carries the signed envelope (and usually its
        integrated payload); the handler queues the update and enters
        the suppressed-ack lottery: with probability ``p/1000`` this
        device schedules a NON ack after a seeded random share of the
        leisure period — so the maintainer hears a bounded, collision-
        spread sample instead of N simultaneous replies.  A body that
        arrives between publishes only queues its update: no converge
        is waiting for an ack.  An ill-typed body is dropped (see
        :func:`_decode_mcast_body`).  Returning ``None`` suppresses any
        CoAP-layer response.
        """

        def handler(request: CoapMessage, _dg) -> None:
            # One decode per release: the first device to hear a body
            # validates it; the rest share that immutable tuple.
            trigger = worker.release_cache.get_or_derive(
                ("mcast", request.payload),
                lambda: _decode_mcast_body(request.payload))
            if trigger is None:
                return None  # malformed broadcast: stay silent
            envelope, payload, sequence, permille, leisure_us = trigger
            worker.trigger(envelope, payload=payload)
            transport = self._transport
            if transport is None:
                return None  # between publishes: nobody awaits an ack
            rng = random.Random(f"{self.seed}:{sequence}:{device.name}")
            if rng.random() * 1000 >= permille:
                return None  # suppressed: not in this publish's sample
            delay_us = rng.random() * leisure_us

            def send_ack() -> None:
                radio = device.radio
                if radio is None or radio.worker is not worker:
                    return  # rebooted mid-leisure: new incarnation
                ack = CoapMessage(mtype=coap.NON, code=coap.POST,
                                  payload=device.name.encode())
                ack.add_uri_path(ACK_PATH)
                ack.message_id = sequence & 0xFFFF
                radio.client.socket.send_to(MAINTAINER_ADDR, COAP_PORT,
                                            ack.encode())

            device.kernel.timers.set(send_ack, delay_us)
            # Remember when this device's lottery ack comes due, keyed
            # to THIS kernel incarnation: a device can converge before
            # its leisure delay elapses, and a converged device is no
            # longer scheduled by the co-run loop — the publisher
            # drains these deadlines before reporting.
            transport.ack_due[device.name] = (
                device, device.kernel, device.kernel.now_us + delay_us)
            return None

        server.register(MCAST_TRIGGER_PATH, handler)

    def _handle_mcast_ack(self, request: CoapMessage, _dg) -> None:
        """Maintainer side of the suppressed ack sample (no reply)."""
        name = request.payload.decode("utf-8", errors="replace")
        transport = self._transport
        if transport is None:
            return None  # a late ack between publishes belongs to none
        if name not in transport.result.mcast_acks:
            insort(transport.result.mcast_acks, name)
        track = transport.tracks.get(name)
        if track is not None:
            track.acked = True
        return None

    def _report(self, name: str, result: UpdateResult) -> None:
        """A radio worker's ``on_result`` hook: queue a verdict about the
        running converge's sequence on the device's track; drop any other
        (a trigger from an *earlier* publish can drain late)."""
        transport = self._transport
        track = transport.tracks.get(name) if transport is not None else None
        manifest = result.manifest
        if track is not None and (
                manifest is None
                or manifest.sequence_number == track.sequence_number):
            track.verdicts.append(result)

    # -- crash / reboot ----------------------------------------------------

    def crash_device(self, device: FleetDevice) -> None:
        """Power-fail one device *now*: RAM gone, radio off the air.

        The interface is detached so in-flight frames land on a dead
        radio instead of leaking into the next incarnation; the NVM and
        the virtual clock (monotonic across power cycles) survive.
        """
        device.kernel.power_fail()
        if device.radio is not None:
            self.link.detach(device.radio.addr)

    def reboot_device(self, device: FleetDevice) -> None:
        """Boot a crashed device back up from its non-volatile state.

        A fresh kernel continues the device's own monotonic clock and is
        charged the boot cost; the engine and radio rig are rebuilt from
        scratch; the spec worker restores its storage registry from NVM
        and re-activates whatever was installed (the bootloader role).
        """
        old_clock = device.kernel.clock
        board = device.kernel.board
        if device.radio is not None:
            self.link.detach(device.radio.addr)  # no-op after crash_device
        kernel = Kernel(board, clock=old_clock)
        kernel.clock.charge(board.reboot_cycles)
        device.kernel = kernel
        device.engine = HostingEngine(
            kernel, implementation=self.fleet.implementation,
            supervisor=self.fleet.supervisor_config)
        device.reboots += 1
        self._wire_device(device)
        device.radio.worker.recover()

    def _sign(self, spec: DeploymentSpec, sequence_number: int | None,
              signer_seed: bytes | None) -> tuple[bytes, bytes, int]:
        from repro.suit.specworker import sign_spec

        if sequence_number is None:
            self.sequence += 1
            sequence_number = self.sequence
        else:
            self.sequence = max(self.sequence, sequence_number)
        envelope, payload = sign_spec(
            spec, sequence_number, self.spec_uri,
            signer_seed if signer_seed is not None else self.maintainer_seed,
            slot=self.slot,
        )
        self.repo.register_blob(self.spec_uri, lambda: payload)
        return envelope, payload, sequence_number

    def _broadcast(self, envelope: bytes, payload: bytes,
                   sequence_number: int, members: int) -> None:
        """ONE group-addressed NON frame carrying the envelope and its
        integrated payload to every device at one airtime cost."""
        result = self._transport.result
        result.multicast = True
        body = {
            "e": envelope,
            "s": sequence_number,
            # Each device acks with probability ack_sample/N (permille
            # on the wire), spread over the leisure period.
            "p": min(1000, self._transport.options.ack_sample * 1000
                     // max(1, members)),
            "l": int(ACK_LEISURE_US),
            "y": payload,
        }
        message = CoapMessage(mtype=coap.NON, code=coap.POST,
                              payload=cbor.encode(body))
        message.add_uri_path(MCAST_TRIGGER_PATH)
        message.message_id = self._mcast_mid
        self._mcast_mid = (self._mcast_mid + 1) & 0xFFFF
        sent_before = self._maint_iface.stats.bytes_sent
        self._mcast_socket.send_to(GROUP_ADDR, COAP_PORT, message.encode())
        result.trigger_tx_bytes += (self._maint_iface.stats.bytes_sent
                                    - sent_before)

    def _pump_triggers(self) -> None:
        """POST every due, unacknowledged trigger of the converge under
        way (backhaul clock)."""
        now = self.kernel.now_us
        sent_before = self._maint_iface.stats.bytes_sent
        for track in self._transport.tracks.values():
            if track.acked or track.attempts >= MAX_TRIGGER_ATTEMPTS:
                continue
            if now < track.next_retry_us:
                continue
            device = track.device
            if device.kernel.halted or device.radio is None:
                continue  # down right now: retry once it reboots
            track.attempts += 1
            track.next_retry_us = now + min(
                TRIGGER_RETRY_BASE_US * 2 ** (track.attempts - 1),
                TRIGGER_RETRY_CAP_US,
            )
            request = CoapMessage(mtype=coap.CON, code=coap.POST,
                                  payload=track.envelope)
            request.add_uri_path(TRIGGER_PATH)

            def on_response(_reply, track=track) -> None:
                track.acked = True

            self.trigger_client.request(device.radio.addr, COAP_PORT,
                                        request, on_response=on_response)
        self._transport.result.trigger_tx_bytes += (
            self._maint_iface.stats.bytes_sent - sent_before)

    def _converge(
        self,
        devices: Sequence[FleetDevice],
        role: str,
        spec: DeploymentSpec,
        envelope: bytes,
        payload: bytes,
        sequence_number: int,
    ) -> list[DeviceRow]:
        """Trigger ``devices``, then co-run every kernel until each of
        them reported.

        Each device gets one :class:`_Track`, dropped when the converge
        ends.  Unicast sends one CON POST per device now and re-POSTs it
        with backoff; multicast (full-fleet targets only) broadcasts
        once, as attempt 1, and the unicast path picks up stragglers
        after ``mcast_grace_us``.  The backhaul kernel and each pending
        device kernel advance in interleaved :data:`CORUN_WINDOW_US`
        slices, in fleet order; wall time, cycles and image-cache
        traffic are measured around each device's own slices.  A device
        whose kernel is idle (no ready thread, no armed timer) sits its
        slice out: that run would execute nothing.

        A worker's ``on_result`` hook only queues its verdict on the
        track; the loop consumes one per device per window, whether or
        not the device ran in it.  The one
        done rule: finishing a row also stops the device's trigger, so
        a device that reported a verdict for this sequence is never
        triggered again, on either transport.

        The loop self-heals: it polls the fault injector, re-triggers a
        failed fetch (which resumes from the NVM checkpoint), and gives
        a rebooted device whose NVM holds ``sequence_number`` a
        ``REBOOTED`` row, or re-triggers it.  Under an injector it also
        runs until the plan has nothing left to fire or resolve.  A
        device that never reports degrades to an ``UNREACHABLE`` row:
        partial convergence is an answer, not an error.
        """
        transport = self._transport
        options = transport.options
        multicast = (options.multicast
                     and len(devices) == len(self.fleet.devices))
        now = self.kernel.now_us
        transport.tracks = {
            device.name: _Track(
                device, envelope, sequence_number,
                attempts=1 if multicast else 0,
                next_retry_us=(now + options.mcast_grace_us if multicast
                               else now))
            for device in devices
        }
        pending = dict(transport.tracks)
        rows: list[DeviceRow] = []
        if multicast:
            self._broadcast(envelope, payload, sequence_number, len(devices))
        else:
            self._pump_triggers()

        def finish(track: _Track, result: UpdateResult) -> None:
            del pending[track.device.name]
            track.acked = True
            rows.append(track.row(role, result))
            if rows[-1].ok:
                # Per-device rollback baseline: this device now runs
                # ``spec`` regardless of what the rest of the fleet does.
                track.device.current_spec = spec

        def holds_sequence(worker) -> bool:
            return (worker.storage.highest_sequence(self.slot)
                    >= sequence_number)

        for _ in range(options.max_windows):
            if self.chaos is not None:
                self.chaos.poll(self)
            self._pump_triggers()
            self._run_backhaul()
            for track in list(pending.values()):
                device = track.device
                worker = device.radio.worker
                if worker is not track.worker:
                    # The device power-cycled: fresh kernel, fresh
                    # worker, storage restored from NVM.
                    track.rebooted()
                    if holds_sequence(worker):
                        # The install hit flash before the lights went
                        # out; recovery re-activated it.  Converged.
                        finish(track, UpdateResult(
                            UpdateStatus.REBOOTED,
                            "power-cycled mid-publish; NVM held sequence "
                            f"{sequence_number}, recovery re-activated it",
                        ))
                        continue
                    track.retrigger(self.kernel.now_us)
                if device.kernel.halted:
                    continue  # crashed and not yet rebooted
                if (self.chaos is not None
                        and self.chaos.stalled(device.name)):
                    continue  # wedged: gets no scheduling this window
                kernel = device.kernel
                if not kernel.idle:
                    hits_before = IMAGE_CACHE.hits
                    misses_before = IMAGE_CACHE.misses
                    start = time.perf_counter()
                    kernel.run(until_us=kernel.now_us + CORUN_WINDOW_US)
                    track.wall_s += time.perf_counter() - start
                    track.hits += IMAGE_CACHE.hits - hits_before
                    track.misses += IMAGE_CACHE.misses - misses_before
                if not track.verdicts:
                    continue
                # The *first* queued verdict: a duplicate trigger (lost
                # ACK, app-level re-POST) queues a bonus SEQUENCE_REPLAY
                # after the real outcome.
                result = track.verdicts.pop(0)
                if (result.status in RETRYABLE_STATUSES
                        and track.attempts < MAX_TRIGGER_ATTEMPTS):
                    # Transient failure: re-trigger; the fetch resumes
                    # from the checkpointed block.
                    track.retrigger(self.kernel.now_us)
                    continue
                if (result.status is UpdateStatus.SEQUENCE_REPLAY
                        and device.reboots > track.reboots_before
                        and holds_sequence(worker)):
                    # The re-trigger of a rebooted device raced its
                    # recovery: the refusal *is* proof it converged.
                    result = UpdateResult(
                        UpdateStatus.REBOOTED,
                        "rebooted with the published sequence in "
                        "NVM; replay refusal confirms convergence",
                    )
                finish(track, result)
            if not pending and (self.chaos is None or self.chaos.idle):
                break
        for _, track in sorted(pending.items()):
            finish(track, UpdateResult(
                UpdateStatus.UNREACHABLE,
                f"no report within {options.max_windows} windows of "
                f"{CORUN_WINDOW_US:.0f} us despite {track.attempts} "
                "trigger attempts",
            ))
        if transport.ack_due:
            self._drain_mcast_acks()
        transport.tracks = {}
        return rows

    def _run_backhaul(self) -> None:
        """Run the backhaul kernel one co-run window.

        An idle backhaul (no in-flight frames, no pending CoAP
        retransmits) must still move through time: the retry backoff
        and the injector's reboot deadlines live on this clock.
        """
        target_us = self.kernel.now_us + CORUN_WINDOW_US
        self.kernel.run(until_us=target_us)
        if self.kernel.now_us < target_us:
            self.kernel.clock.advance_to(
                self.kernel.clock.us_to_cycles(target_us))

    def _drain_mcast_acks(self) -> None:
        """Fire lottery acks still pending on converged devices.

        A converged device is no longer scheduled by the co-run loop, so
        its ack timer would never fire and the sample would under-count.
        Run each such device's kernel to its recorded deadline (rows are
        already finished), then give the backhaul one window to deliver
        the NONs.
        """
        ack_due = self._transport.ack_due
        for name in sorted(ack_due):
            device, kernel, due = ack_due[name]
            if device.kernel is not kernel or device.kernel.halted:
                continue  # rebooted: that incarnation's timer is gone
            device.kernel.run(until_us=max(due, device.kernel.now_us) + 1.0)
        ack_due.clear()
        self._run_backhaul()

    def _mark_quarantined(self, result: FleetResult) -> FleetResult:
        """Fold end-of-publish supervisor state into the device rows.

        A device's supervisor may quarantine a crash-looping slot *after*
        its row was finished (its own bake and chaos windows keep
        running).  This final pass re-samples every row's device and
        upgrades ``OK``/``REBOOTED`` rows of devices holding quarantined
        slots to ``QUARANTINED``: still converged, with the sick
        workload contained and named in the message.
        """
        for row in result.rows():
            slots = row.device.engine.supervisor.quarantined_slots()
            row.quarantined = len(slots)
            if slots and row.result.status in (UpdateStatus.OK,
                                               UpdateStatus.REBOOTED):
                names = ", ".join(f"{hook}/{name}" for hook, name in slots)
                row.result = UpdateResult(
                    UpdateStatus.QUARANTINED,
                    f"converged, but the supervisor quarantined {names} "
                    "as crash-looping",
                    manifest=row.result.manifest,
                    plan=row.result.plan,
                    duration_us=row.result.duration_us,
                )
        return result

    # -- the publish -------------------------------------------------------

    def publish(self, spec: DeploymentSpec,
                options: PublishOptions | None = None) -> FleetResult:
        """Sign ``spec`` once and fan it out to the fleet over the radio.

        All knobs live on :class:`PublishOptions` (``None``: its
        defaults).  Without ``canary_count`` every device is triggered
        at once off the one envelope — one group broadcast under
        ``PublishOptions.scale()``, one CON POST per device otherwise.
        With it, the publish is a
        :class:`~repro.deploy.staged.StagedRollout` over the radio; its
        canary subsets and rollbacks always trigger unicast, because a
        group broadcast cannot address a subset of the fleet.

        Anti-rollback holds per device: a ``sequence_number`` at or
        below a device's stored sequence is refused by that device
        (``SEQUENCE_REPLAY``) without any payload fetch.
        """
        if options is None:
            options = PublishOptions()
        fleet = self.fleet
        self._release_cache.clear()
        envelope, payload, sequence_number = self._sign(
            spec, options.sequence_number, options.signer_seed)
        result = FleetResult(spec=spec, sequence_number=sequence_number,
                             payload_bytes=len(payload))
        self._transport = transport = _RadioTransport(
            self, options, envelope, payload, result)
        try:
            if options.canary_count is not None:
                StagedRollout(
                    fleet, transport, options.canary_count,
                    health_gate=options.health_gate, bake_us=options.bake_us,
                    bake_fires=options.bake_fires,
                    bake_context=options.bake_context,
                ).run(result)
                return self._mark_quarantined(result)
            result.control, _ = transport.converge(fleet.devices, spec,
                                                   "device")
        finally:
            self._transport = None
        if result.ok:
            fleet.current_spec = spec
            result.reason = (f"{len(result.control)} devices "
                             "reconciled off one publish")
        else:
            unreachable = {row.device.name for row in result.unreachable()}
            refused = {row.device.name for row in result.control
                       if not row.ok} - unreachable
            result.reason = "; ".join(
                f"{label} {', '.join(sorted(names))}"
                for label, names in (("refused by", refused),
                                     ("unreachable:", unreachable))
                if names)
        return self._mark_quarantined(result)

    # -- streamed status ---------------------------------------------------

    def status(self) -> Iterator[DeviceStatus]:
        """Stream one typed status row per fleet device, fleet order."""
        for device in self.fleet.devices:
            radio = device.radio
            yield DeviceStatus(
                name=device.name,
                index=device.index,
                board=device.board.name,
                addr=radio.addr if radio is not None else None,
                sequence=(max(0, radio.worker.storage.highest_sequence(
                    self.slot)) if radio is not None else 0),
                spec=(device.current_spec.name
                      if device.current_spec is not None else None),
                reboots=device.reboots,
                quarantined=len(device.engine.supervisor.detained),
                halted=device.kernel.halted,
                cycles=device.kernel.clock.cycles,
                radio_uj=_radio_uj(device),
            )
