"""Fleet-wide OTA publish: one signed spec fanned out over the radio.

PR 4 closed the loop from signed spec to *single-device* reconciliation
(:class:`~repro.suit.specworker.SpecUpdateWorker`), but the fleet still
converged by the simulator reaching into each engine.  This module adds
the missing radio path: a :class:`FleetPublisher` wires every
:class:`~repro.deploy.fleet.FleetDevice` with a radio rig — an interface
on one **shared broadcast link**, a device-side gcoap server exposing the
worker's ``/suit/trigger`` endpoint, a CoAP client for the block-wise
payload fetch, and a per-device ``SpecUpdateWorker`` — plus a
maintainer-side repository serving the spec payload.

:meth:`FleetPublisher.publish` then signs **one** manifest (one COSE
envelope, one canonical CBOR payload) and POSTs it to every device's
trigger endpoint.  Each device independently authenticates the envelope,
enforces *its own* anti-rollback sequence, fetches the payload block-wise
from the repository, and reconciles itself through ``plan``/``apply`` —
so one publish produces N per-device convergences.  The wire payload is
one; the *host-side* verify and JIT compile are also one, because every
device's apply resolves through the content-addressed
:data:`~repro.vm.imagecache.IMAGE_CACHE` — device 1 pays the cold
compile in its apply slice and devices 2..N ride it
(``benchmarks/test_image_cache_guard.py`` asserts that per row: the
cold device misses once per artifact, warm rows never miss, and cycles
are equal).

Each device keeps its **own virtual clock**, as everywhere in the fleet
layer: the signature check, the SHA-256 digest, and the full modelled
verify+install cost are charged per device, cold or cached.  The
maintainer runs on a separate backhaul kernel that owns the link's
airtime timers; :meth:`FleetPublisher.publish` co-runs all kernels in
small interleaved windows until every triggered worker reported.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.engine import HostingEngine
from repro.deploy.fleet import Fleet, FleetDevice
from repro.deploy.results import DeviceRow, FleetResult
from repro.deploy.spec import DeploymentSpec
from repro.deploy.staged import StagedRollout
from repro.net import coap
from repro.net.coap import CoapMessage
from repro.net.gcoap import CoapClient, CoapServer
from repro.net.link import Interface, Link
from repro.net.udp import UdpStack
from repro.rtos.energy import EnergyMeter
from repro.rtos.kernel import Kernel
from repro.suit import cbor, ed25519
from repro.suit.specworker import SpecUpdateWorker
from repro.suit.worker import UpdateResult, UpdateStatus
from repro.vm.imagecache import IMAGE_CACHE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.chaos import FaultInjector
    from repro.deploy.staged import HealthGate

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
    #: Explicit hook firings per canary during the bake.
    bake_fires: int = 0
    #: Hooks fired during the bake (``None``: spec's aperiodic hooks).
    bake_hooks: Sequence[str] | None = None
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


@dataclass
class _RadioTransport:
    """Staged-rollout transport over the radio: trigger, then co-run
    until every triggered device reported."""

    publisher: "FleetPublisher"
    options: PublishOptions
    envelope: bytes
    payload: bytes
    sequence_number: int

    def _send(self, devices: Sequence[FleetDevice], spec: DeploymentSpec,
              role: str, envelope: bytes, payload: bytes,
              sequence_number: int) -> list[DeviceRow]:
        self.publisher._trigger(devices, envelope, self.options, payload,
                                sequence_number)
        return self.publisher._converge(devices, role, self.options,
                                        sequence_number, spec)

    def converge(self, devices: Sequence[FleetDevice], spec: DeploymentSpec,
                 role: str) -> tuple[list[DeviceRow], str]:
        rows = self._send(devices, spec, role, self.envelope, self.payload,
                          self.sequence_number)
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
            rows.extend(self._send(devices, baseline, "rollback", envelope,
                                   payload, sequence))
        return rows, ""


class FleetPublisher:
    """Maintainer-side OTA publisher for one :class:`Fleet`.

    Construction wires the radio: one shared :class:`Link` (owned by a
    dedicated backhaul kernel), the maintainer repository + trigger
    client, and a full :class:`DeviceRadio` rig per fleet device
    (stored on ``device.radio``).  Sequence numbers come from one
    maintainer-wide epoch counter, which is also what makes the storage
    registry's cross-location GC horizon meaningful.
    """

    def __init__(
        self,
        fleet: Fleet,
        maintainer_seed: bytes = bytes(range(32)),
        loss: float = 0.0,
        seed: int = 1234,
        spec_uri: str = "/specs/fleet",
        slot: str = "spec:fleet",
        max_storage_slots: int | None = None,
        storage_gc_horizon: int | None = None,
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
        #: Names that answered the current broadcast's suppressed-ack
        #: lottery (the bounded sample the maintainer actually hears).
        self._mcast_acks: set[str] = set()
        #: name -> (kernel incarnation, virtual deadline us) for every
        #: scheduled-but-not-yet-fired lottery ack this publish.
        self._mcast_ack_due: dict[str, tuple[object, float]] = {}
        self._used_multicast = False
        #: Radio bytes spent on trigger fan-out this publish.
        self.trigger_tx_bytes = 0
        #: Publish-scoped decode memo every device worker shares
        #: (cleared at the start of each publish; wall-clock only).
        self._release_cache: dict = {}
        self.repo.register(ACK_PATH, self._handle_mcast_ack)
        self.trust_anchor = ed25519.public_key(maintainer_seed)
        self._max_storage_slots = max_storage_slots
        self._storage_gc_horizon = storage_gc_horizon
        #: Fault injector driven once per converge window; ``None`` runs
        #: an undisturbed publish.
        self.chaos: "FaultInjector | None" = None
        #: Per-device trigger state (attempts, acked, next retry) keyed
        #: by device name; all timing on the backhaul clock.
        self._triggers: dict[str, dict] = {}
        for device in fleet.devices:
            self.adopt_device(device)

    # -- wire plumbing -----------------------------------------------------

    def adopt_device(self, device: FleetDevice) -> None:
        """Give one registered device its radio rig (construction path,
        and the control plane's post-construction register path)."""
        if device.nvm is None:
            device.nvm = device.kernel.board.nvm(device.kernel)
        if device.meter is None:
            device.meter = EnergyMeter(device.kernel.board)
        self._wire_device(device, self.fleet.registry.index_of(device.name))

    def evict_device(self, name: str) -> FleetDevice:
        """Remove one device from the fleet and take it off the air."""
        device = self.fleet.registry.evict(name)
        if device.radio is not None:
            self.link.detach(device.radio.addr)
            self.link.leave(GROUP_ADDR, device.radio.addr)
        self._triggers.pop(name, None)
        return device

    def _wire_device(self, device: FleetDevice, index: int) -> None:
        """Build one device's radio rig (initial wiring and re-wiring
        after a reboot — the NVM and energy meter persist, everything
        else is rebuilt from scratch)."""
        addr = DEVICE_ADDR_TEMPLATE.format(index=index)
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
            max_storage_slots=self._max_storage_slots,
            storage_gc_horizon=self._storage_gc_horizon,
            nvm=device.nvm,
        )
        worker.release_cache = self._release_cache
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
        spread sample instead of N simultaneous replies.  Returning
        ``None`` suppresses any CoAP-layer response.
        """

        def handler(request: CoapMessage, _dg) -> None:
            try:
                body = cbor.decode(request.payload)
                envelope = body["e"]
            except Exception:
                return None  # malformed broadcast: stay silent
            worker.trigger(envelope, payload=body.get("y"))
            rng = random.Random(
                f"{self.seed}:{body.get('s', 0)}:{device.name}")
            if rng.random() * 1000 >= body.get("p", 0):
                return None  # suppressed: not in this publish's sample
            delay_us = rng.random() * body.get("l", 0)

            def send_ack() -> None:
                radio = device.radio
                if radio is None or radio.worker is not worker:
                    return  # rebooted mid-leisure: new incarnation
                ack = CoapMessage(mtype=coap.NON, code=coap.POST,
                                  payload=device.name.encode())
                ack.add_uri_path(ACK_PATH)
                ack.message_id = body.get("s", 0) & 0xFFFF
                radio.client.socket.send_to(MAINTAINER_ADDR, COAP_PORT,
                                            ack.encode())

            device.kernel.timers.set(send_ack, delay_us)
            # Remember when this device's lottery ack comes due, keyed
            # to THIS kernel incarnation: a device can converge before
            # its leisure delay elapses, and a converged device is no
            # longer scheduled by the co-run loop — the publisher
            # drains these deadlines before reporting.
            self._mcast_ack_due[device.name] = (
                device.kernel, device.kernel.now_us + delay_us)
            return None

        server.register(MCAST_TRIGGER_PATH, handler)

    def _handle_mcast_ack(self, request: CoapMessage, _dg) -> None:
        """Maintainer side of the suppressed ack sample (no reply)."""
        name = request.payload.decode("utf-8", errors="replace")
        self._mcast_acks.add(name)
        state = self._triggers.get(name)
        if state is not None:
            state["acked"] = True
        return None

    def device_by_name(self, name: str) -> FleetDevice:
        return self.fleet.registry.get(name)

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
        index = self.fleet.registry.index_of(device.name)
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
        self._wire_device(device, index)
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

    def _trigger(self, devices: Sequence[FleetDevice], envelope: bytes,
                 options: PublishOptions, payload: bytes,
                 sequence_number: int) -> None:
        """Arm per-device trigger state and fire the first round.

        Unicast (the default): one CON POST per device now, re-POSTed by
        :meth:`_pump_triggers` with exponential backoff as the converge
        loop runs.  Multicast (``options.multicast``, full-fleet targets
        only): ONE group-addressed NON frame carries the envelope and
        its integrated payload to every device at one airtime cost; the
        broadcast counts as attempt 1 and the same unicast backoff path
        becomes the self-healing fallback for any device that missed it
        (visible as ``retries >= 1`` on its row).
        """
        now = self.kernel.now_us
        use_mcast = (options.multicast
                     and len(devices) == len(self.fleet.devices))
        for device in devices:
            # The broadcast is attempt 1; stragglers fall back to the
            # unicast retry path after the grace period.
            self._triggers[device.name] = {
                "envelope": envelope,
                "attempts": 1 if use_mcast else 0,
                "acked": False,
                "next_retry_us": (now + options.mcast_grace_us
                                  if use_mcast else now),
            }
        if not use_mcast:
            self._pump_triggers()
            return

        self._used_multicast = True
        body = {
            "e": envelope,
            "s": sequence_number,
            # Each device acks with probability ack_sample/N (permille
            # on the wire), spread over the leisure period.
            "p": min(1000, options.ack_sample * 1000
                     // max(1, len(devices))),
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
        self.trigger_tx_bytes += (self._maint_iface.stats.bytes_sent
                                  - sent_before)

    def _retrigger(self, name: str) -> None:
        """Re-arm one device's trigger (straggler or rebooted device)."""
        state = self._triggers.get(name)
        if state is not None:
            state["acked"] = False
            state["next_retry_us"] = self.kernel.now_us

    def _pump_triggers(self) -> None:
        """POST every due, unacknowledged trigger (backhaul clock)."""
        now = self.kernel.now_us
        for name, state in self._triggers.items():
            if state["acked"] or state["attempts"] >= MAX_TRIGGER_ATTEMPTS:
                continue
            if now < state["next_retry_us"]:
                continue
            device = self.device_by_name(name)
            if device.kernel.halted or device.radio is None:
                continue  # down right now: retry once it reboots
            state["attempts"] += 1
            state["next_retry_us"] = now + min(
                TRIGGER_RETRY_BASE_US * 2 ** (state["attempts"] - 1),
                TRIGGER_RETRY_CAP_US,
            )
            request = CoapMessage(mtype=coap.CON, code=coap.POST,
                                  payload=state["envelope"])
            request.add_uri_path(TRIGGER_PATH)

            def on_response(_reply, state=state) -> None:
                state["acked"] = True

            sent_before = self._maint_iface.stats.bytes_sent
            self.trigger_client.request(
                device.radio.addr, COAP_PORT, request,
                on_response=on_response,
            )
            self.trigger_tx_bytes += (self._maint_iface.stats.bytes_sent
                                      - sent_before)

    def _converge(
        self,
        devices: Sequence[FleetDevice],
        role: str,
        options: PublishOptions,
        sequence_number: int,
        spec: DeploymentSpec,
    ) -> list[DeviceRow]:
        """Co-run all kernels until every triggered worker reported.

        The backhaul kernel (which owns the link's delivery timers) and
        each still-converging device kernel advance in interleaved
        :data:`CORUN_WINDOW_US` slices of their own virtual clocks.  Wall
        time, cycles and image-cache traffic are attributed to a device
        by measuring around *its* kernel's slices — only one kernel runs
        at a time, so the deltas are unambiguous.  Each window visits
        only the still-pending devices, in fleet order: a device leaves
        the insertion-ordered ``pending`` map the moment it reports, so
        the straggler tail of a 1,000-device publish stays cheap.

        This loop is where the publish *self-heals*: each window it
        polls the fault injector (if any), re-POSTs unacknowledged
        triggers with backoff, re-triggers devices whose fetch failed
        (they resume from the NVM checkpoint), and recognizes rebooted
        devices — one whose NVM already holds ``sequence_number`` gets a
        ``REBOOTED`` row, one that lost the update mid-flight gets
        re-triggered.  A device that never reports despite every retry
        degrades to an ``UNREACHABLE`` row instead of an exception:
        partial convergence is an answer, not an error.
        """
        state = {
            device.name: {
                "device": device,
                "worker": device.radio.worker,
                "results_before": len(device.radio.worker.results),
                "wall_s": 0.0,
                "cycles_before": device.kernel.clock.cycles,
                "reboots_before": device.reboots,
                "hits": 0,
                "misses": 0,
                # Health/energy baselines.  fault_total lives on the
                # engine, which a reboot rebuilds from scratch — so the
                # accumulator banks the old engine's count whenever the
                # engine identity changes (the meter survives reboots and
                # is already cumulative).
                "engine": device.engine,
                "faults_before": device.engine.fault_total,
                "faults_accum": 0,
                "radio_before": (device.meter.report().radio_uj
                                 if device.meter is not None else 0.0),
            }
            for device in devices
        }
        pending = {device.name: device for device in devices}
        rows: list[DeviceRow] = []

        def fault_delta(device: FleetDevice, entry: dict) -> int:
            engine = device.engine
            if engine is not entry["engine"]:
                entry["faults_accum"] += (entry["engine"].fault_total
                                          - entry["faults_before"])
                entry["engine"] = engine
                entry["faults_before"] = engine.fault_total
            return (entry["faults_accum"] + engine.fault_total
                    - entry["faults_before"])

        def finish(device: FleetDevice, entry: dict,
                   result: UpdateResult) -> None:
            pending.pop(device.name, None)
            trigger = self._triggers.get(device.name, {})
            if self._used_multicast and trigger:
                # A converged device never CON-acked the broadcast;
                # mark it so the fallback pump stops chasing it.
                trigger["acked"] = True
            rows.append(DeviceRow(
                device=device,
                role=role,
                result=result,
                wall_s=entry["wall_s"],
                cycles_charged=(device.kernel.clock.cycles
                                - entry["cycles_before"]),
                cache_hits=entry["hits"],
                cache_misses=entry["misses"],
                retries=max(0, trigger.get("attempts", 1) - 1),
                reboots=device.reboots - entry["reboots_before"],
                fault_delta=fault_delta(device, entry),
                quarantined=len(
                    device.engine.supervisor.quarantined_slots()),
                radio_uj=(device.meter.report().radio_uj
                          - entry["radio_before"]
                          if device.meter is not None else 0.0),
            ))
            if rows[-1].ok:
                # Per-device rollback baseline: this device now runs
                # ``spec`` regardless of what the rest of the fleet does.
                device.current_spec = spec

        def holds_sequence(worker) -> bool:
            return (worker.storage.highest_sequence(self.slot)
                    >= sequence_number)

        for _ in range(options.max_windows):
            if self.chaos is not None:
                self.chaos.poll(self)
            self._pump_triggers()
            self._run_backhaul()
            for device in list(pending.values()):
                entry = state[device.name]
                worker = device.radio.worker
                if worker is not entry["worker"]:
                    # The device power-cycled: fresh kernel, fresh
                    # worker, storage restored from NVM.
                    entry["worker"] = worker
                    entry["results_before"] = len(worker.results)
                    if holds_sequence(worker):
                        # The install hit flash before the lights went
                        # out; recovery re-activated it.  Converged.
                        finish(device, entry, UpdateResult(
                            UpdateStatus.REBOOTED,
                            "power-cycled mid-publish; NVM held sequence "
                            f"{sequence_number}, recovery re-activated it",
                        ))
                        continue
                    self._retrigger(device.name)
                if device.kernel.halted:
                    continue  # crashed and not yet rebooted
                if (self.chaos is not None
                        and self.chaos.stalled(device.name)):
                    continue  # wedged: gets no scheduling this window
                hits_before = IMAGE_CACHE.hits
                misses_before = IMAGE_CACHE.misses
                start = time.perf_counter()
                device.kernel.run(
                    until_us=device.kernel.now_us + CORUN_WINDOW_US)
                entry["wall_s"] += time.perf_counter() - start
                entry["hits"] += IMAGE_CACHE.hits - hits_before
                entry["misses"] += IMAGE_CACHE.misses - misses_before
                while len(worker.results) > entry["results_before"]:
                    # Take the *first* unseen result for THIS publish: a
                    # duplicate trigger (lost ACK, app-level re-POST)
                    # appends a bonus SEQUENCE_REPLAY after the real
                    # outcome, and a backlogged re-trigger from an
                    # *earlier* publish can drain late — its verdict is
                    # about that sequence, not this one.
                    result = worker.results[entry["results_before"]]
                    entry["results_before"] += 1
                    if (result.manifest is not None
                            and result.manifest.sequence_number
                            != sequence_number):
                        continue  # stale: keep scanning
                    trigger = self._triggers.get(device.name, {})
                    if (result.status in RETRYABLE_STATUSES
                            and trigger.get("attempts", 0)
                            < MAX_TRIGGER_ATTEMPTS):
                        # Transient failure: re-trigger; the fetch
                        # resumes from the checkpointed block.
                        self._retrigger(device.name)
                        break
                    if (result.status is UpdateStatus.SEQUENCE_REPLAY
                            and device.reboots > entry["reboots_before"]
                            and holds_sequence(worker)):
                        # The re-trigger of a rebooted device raced its
                        # recovery: the refusal *is* proof it converged.
                        result = UpdateResult(
                            UpdateStatus.REBOOTED,
                            "rebooted with the published sequence in "
                            "NVM; replay refusal confirms convergence",
                        )
                    finish(device, entry, result)
                    break
            if not pending:
                break
        for name in sorted(pending):
            entry = state[name]
            finish(entry["device"], entry, UpdateResult(
                UpdateStatus.UNREACHABLE,
                f"no report within {options.max_windows} windows of "
                f"{CORUN_WINDOW_US:.0f} us despite "
                f"{self._triggers.get(name, {}).get('attempts', 0)} "
                "trigger attempts",
            ))
        if self._used_multicast and self._mcast_ack_due:
            self._drain_mcast_acks()
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

        A device that converges before its leisure delay elapses stops
        being scheduled by the co-run loop, so its ack timer would
        never fire and the maintainer's sample would under-count.  Run
        each such device's kernel to its recorded deadline (name-sorted;
        per-device rows were already snapshotted at convergence), then
        give the backhaul one window to deliver the NONs.
        """
        for name in sorted(self._mcast_ack_due):
            kernel, due = self._mcast_ack_due[name]
            if name not in self.fleet.registry:
                continue  # evicted mid-publish
            device = self.fleet.registry.get(name)
            if device.kernel is not kernel or device.kernel.halted:
                continue  # rebooted: that incarnation's timer is gone
            device.kernel.run(until_us=max(due, device.kernel.now_us) + 1.0)
        self._mcast_ack_due.clear()
        self._run_backhaul()

    def _mark_quarantined(self, result: FleetResult) -> FleetResult:
        """Fold end-of-publish supervisor state into the device rows.

        A device's supervisor may quarantine a crash-looping slot *after*
        its convergence row was finished — a finished device's clock
        freezes only for the publisher; its own bake/chaos windows keep
        running.  This final pass re-samples every row's device: rows
        whose device holds quarantined slots are upgraded from
        ``OK``/``REBOOTED`` to ``QUARANTINED`` (still counted as
        converged — the device runs the published sequence; the sick
        workload is contained and named in the message).

        Every publish exit funnels through here, so this is also where
        the trigger-path accounting (fan-out mode, radio bytes, the
        multicast ack sample) lands on the result.
        """
        result.multicast = self._used_multicast
        result.trigger_tx_bytes = self.trigger_tx_bytes
        result.mcast_acks = sorted(self._mcast_acks)
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
        at once off the one envelope — as one group-addressed broadcast
        under ``PublishOptions.scale()``, or one CON POST per device
        otherwise.  With it, the publish is a
        :class:`~repro.deploy.staged.StagedRollout` over the radio: the
        first ``canary_count`` devices are triggered, baked and judged
        against ``health_gate``; a healthy bake triggers the rest with
        the *same* envelope (their applies ride the canary-warmed image
        cache), and an unhealthy one publishes each canary's own prior
        spec back to it under a fresh sequence number and leaves the
        rest untouched.  Canary subsets and rollbacks always trigger
        unicast: a group broadcast cannot address a subset of the fleet.

        Anti-rollback holds per device: a ``sequence_number`` at or
        below a device's stored sequence is refused by that device
        (``SEQUENCE_REPLAY``) without any payload fetch.
        """
        if options is None:
            options = PublishOptions()
        fleet = self.fleet
        self.trigger_tx_bytes = 0
        self._used_multicast = False
        self._mcast_acks.clear()
        self._mcast_ack_due.clear()
        self._release_cache.clear()
        envelope, payload, sequence_number = self._sign(
            spec, options.sequence_number, options.signer_seed)
        result = FleetResult(spec=spec, sequence_number=sequence_number,
                               payload_bytes=len(payload))
        transport = _RadioTransport(self, options, envelope, payload,
                                    sequence_number)
        if options.canary_count is not None:
            staged = StagedRollout(
                fleet, transport, options.canary_count,
                health_gate=options.health_gate, bake_us=options.bake_us,
                bake_fires=options.bake_fires, bake_hooks=options.bake_hooks,
                bake_context=options.bake_context,
            )
            return self._mark_quarantined(staged.run(result))

        result.control, _ = transport.converge(fleet.devices, spec, "device")
        if result.ok:
            fleet.current_spec = spec
            result.reason = (f"{len(result.control)} devices "
                             "reconciled off one publish")
        else:
            unreachable = sorted(row.device.name
                                 for row in result.unreachable())
            refused = sorted(
                row.device.name for row in result.control
                if not row.ok
                and row.result.status is not UpdateStatus.UNREACHABLE)
            parts = []
            if refused:
                parts.append(f"refused by {', '.join(refused)}")
            if unreachable:
                parts.append(f"unreachable: {', '.join(unreachable)}")
            result.reason = "; ".join(parts)
        return self._mark_quarantined(result)
