"""Device-side SUIT update worker (§5 "Low-power Secure Runtime Update").

The full over-the-air deployment path of the paper:

1. a maintainer signs a manifest naming a hook UUID as storage location and
   pushes the envelope to the device (CoAP POST ``/suit/trigger``);
2. the worker verifies the COSE/Ed25519 signature against its trust anchor
   and the anti-rollback sequence number;
3. it fetches the payload block-wise over CoAP from the firmware
   repository;
4. it checks size and SHA-256 digest, stores the image in the slot, runs
   the pre-flight verifier, and attaches (or hot-replaces) the container on
   the hook — all without touching the firmware.

Every failure mode is a distinct status, and none of them disturb the
running system: a malicious client (threat model §3) can at worst waste
some radio budget.

The pipeline is deliberately split into overridable steps —
:meth:`SuitUpdateWorker._resolve_target` and
:meth:`SuitUpdateWorker._activate` — so the whole-device *spec* update
worker (:class:`~repro.suit.specworker.SpecUpdateWorker`) reuses the
authentication, anti-rollback, storage-budget and block-transfer
machinery and only swaps what a verified payload *means*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.errors import UnknownHookError
from repro.net.coap import CHANGED, BAD_REQUEST, CoapMessage
from repro.suit import cbor
from repro.suit.manifest import (
    KIND_IMAGE,
    SuitEnvelope,
    SuitManifest,
    payload_digest,
)
from repro.suit.storage import StorageFullError, StorageRegistry, StorageSlot
from repro.rtos.errors import PowerFailure
from repro.rtos.thread import Wait
from repro.runtimes.base import container_runtime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import HostingEngine
    from repro.core.tenant import Tenant
    from repro.deploy.plan import DeploymentPlan
    from repro.net.gcoap import CoapClient, CoapServer
    from repro.rtos.nvm import NvmStore

#: Ed25519 verification cost on a Cortex-M-class core (cycles).
SIG_VERIFY_CYCLES = 5_800_000
#: SHA-256 cost per payload byte (cycles).
SHA256_CYCLES_PER_BYTE = 60

#: NVM key prefix for checkpointed block-wise fetch progress.
NVM_FETCH_PREFIX = "suit/fetch/"
#: Block size the worker fetches with (szx=5 → 512-byte Block2 blocks).
FETCH_BLOCK_BYTES = 512

#: Every step boundary of :meth:`SuitUpdateWorker._process`, in pipeline
#: order.  Kill-point sweeps inject a power failure at each of these and
#: assert the device recovers with anti-rollback state intact and no
#: stranded storage reservation.
KILL_POINTS = (
    "decoded",
    "verified",
    "resolved",
    "reserved",
    "fetched",
    "checked",
    "installed",
    "activated",
)


class UpdateStatus(enum.Enum):
    OK = "ok"
    MALFORMED = "malformed-envelope"
    SIGNATURE_INVALID = "signature-invalid"
    SEQUENCE_REPLAY = "sequence-replay"
    UNKNOWN_HOOK = "unknown-storage-location"
    WRONG_KIND = "manifest-kind-mismatch"
    STORAGE_FULL = "storage-exhausted"
    FETCH_FAILED = "payload-fetch-failed"
    DIGEST_MISMATCH = "payload-digest-mismatch"
    SPEC_INVALID = "spec-invalid"
    REJECTED = "pre-flight-rejected"
    #: Synthesized by the fleet publisher: the device never acknowledged
    #: a trigger (or never reported) despite retries — no worker result.
    UNREACHABLE = "unreachable"
    #: Synthesized by the fleet publisher: the device power-cycled during
    #: the update but came back holding the published sequence in NVM.
    REBOOTED = "device-rebooted"
    #: Synthesized by the fleet publisher: the device converged on the
    #: published sequence but its supervisor is holding one or more
    #: container slots quarantined (crash-looping workload).
    QUARANTINED = "container-quarantined"


@dataclass
class UpdateResult:
    """One update's outcome, as recorded in a worker's ``results``.

    A value record: it holds no live device object (container, VM,
    timer handle), so the update history never keeps a replaced
    container alive.
    """

    status: UpdateStatus
    message: str = ""
    manifest: SuitManifest | None = None
    #: The :class:`~repro.deploy.plan.DeploymentPlan` a spec update
    #: executed (``None`` for image updates and refusals).  Its frozen
    #: actions reference only the release's shared image specs.
    plan: "DeploymentPlan | None" = None
    duration_us: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is UpdateStatus.OK


class SuitUpdateWorker:
    """One device's update processor, running in its own thread."""

    #: Manifest kind this worker accepts; anything else is refused
    #: before any radio budget is spent on the payload.
    expected_kind = KIND_IMAGE
    #: Name of the worker thread (one per worker flavour per device).
    thread_name = "suit-worker"

    def __init__(
        self,
        engine: "HostingEngine",
        client: "CoapClient",
        trust_anchor: bytes,
        repo_addr: str,
        repo_port: int = 5683,
        tenant: "Tenant | None" = None,
        max_storage_slots: int | None = None,
        storage_gc_horizon: int | None = None,
        nvm: "NvmStore | None" = None,
    ) -> None:
        self.engine = engine
        self.kernel = engine.kernel
        self.client = client
        self.trust_anchor = trust_anchor
        self.repo_addr = repo_addr
        self.repo_port = repo_port
        self.tenant = tenant
        self.nvm = nvm
        if nvm is not None:
            nvm.bind(self.kernel)
        self.storage = StorageRegistry(max_slots=max_storage_slots,
                                       gc_horizon=storage_gc_horizon,
                                       nvm=nvm)
        if nvm is not None:
            # Anti-rollback state must be live from the first instruction
            # after boot, before any trigger can race the restore.
            self.storage.restore()
        self.results: list[UpdateResult] = []
        #: Release cache a fleet publisher hands every device's worker
        #: when it wires the radio, and clears at the start of each
        #: publish (``None`` on a standalone worker).  It shares every
        #: pure step of one release across the fleet, so a 1,000-device
        #: publish does each of them once:
        #:
        #: * a group-trigger body → its validated ``(envelope, payload,
        #:   sequence, permille, leisure)`` tuple, which also makes every
        #:   device's envelope and payload one shared ``bytes`` object;
        #: * raw envelope bytes → the decoded ``(envelope, manifest)``;
        #: * (spec workers) payload bytes → the decoded spec;
        #: * a slot or sequence record's fields → its canonical CBOR
        #:   (see :meth:`~repro.suit.storage.StorageRegistry.install`).
        #:
        #: **Wall-clock only**: the modelled verify, digest, flash and
        #: radio cycles are still charged per device in full, and every
        #: shared value is immutable (bytes, tuples, frozen dataclasses),
        #: so sharing cannot leak state between devices.
        self.release_cache: dict | None = None
        #: Called with each verdict the worker thread reaches.  On a fleet
        #: device's radio worker the fleet publisher owns this hook: it
        #: queues the verdict for its converge loop.
        self.on_result: Callable[[UpdateResult], None] | None = None
        #: Kill-point hook: called with each step name in
        #: :data:`KILL_POINTS` as the pipeline crosses that boundary.
        #: Chaos tests raise :class:`~repro.rtos.errors.PowerFailure`
        #: from here to die at an exact step.
        self.on_step: Callable[[str], None] | None = None
        #: Last pipeline boundary crossed (observability for sweeps).
        self.last_step: str | None = None
        self._queue = self.kernel.new_event_queue(self.thread_name)
        self._backlog: list[tuple[bytes, bytes | None]] = []
        self.thread = self.kernel.create_thread(
            self.thread_name, self._worker, priority=8, stack_size=4096
        )

    # -- triggers ----------------------------------------------------------

    def trigger(self, envelope_bytes: bytes,
                payload: bytes | None = None) -> None:
        """Queue one update (what the CoAP trigger endpoint calls).

        ``payload`` is a SUIT *integrated payload*: the trigger already
        carried the image alongside the envelope (a multicast publish
        broadcasts both in one frame), so the worker skips the per-device
        block-wise fetch.  The payload is still digest-checked against
        the signed manifest — an integrated payload changes the radio
        path, never the trust path.
        """
        self._queue.post_new(
            "trigger",
            (bytes(envelope_bytes),
             bytes(payload) if payload is not None else None),
        )

    def register_trigger_resource(self, server: "CoapServer",
                                  path: str = "/suit/trigger") -> None:
        """Expose the network trigger endpoint on a device CoAP server."""

        def handler(request: CoapMessage, _dg) -> CoapMessage:
            if not request.payload:
                return request.reply(BAD_REQUEST)
            self.trigger(request.payload)
            return request.reply(CHANGED)

        server.register(path, handler)

    # -- worker thread --------------------------------------------------------

    def _worker(self, thread):
        while True:
            if self._backlog:
                raw, inline = self._backlog.pop(0)
            else:
                event = yield Wait(self._queue)
                if event.kind != "trigger":
                    continue
                raw, inline = event.payload
            started_us = self.kernel.now_us
            outcome = yield from self._process(thread, raw, inline)
            outcome.duration_us = self.kernel.now_us - started_us
            self.results.append(outcome)
            if self.on_result is not None:
                self.on_result(outcome)

    def _mark(self, step: str) -> None:
        """Cross one pipeline boundary (see :data:`KILL_POINTS`)."""
        self.last_step = step
        if self.on_step is not None:
            self.on_step(step)

    def _process(self, thread, raw: bytes, inline: bytes | None = None):
        # 1. Decode and authenticate the envelope.  The publish-scoped
        # release cache shares the *decoded objects* (frozen, immutable)
        # across a fleet's workers — a wall-clock-only effect; every
        # modelled cycle below is still charged on this device's clock.
        cached = (self.release_cache.get(("envelope", raw))
                  if self.release_cache is not None else None)
        if cached is not None:
            envelope, manifest = cached
        else:
            try:
                envelope = SuitEnvelope.decode(raw)
                manifest = envelope.manifest()
            except Exception as exc:  # any malformed input is one status
                return UpdateResult(UpdateStatus.MALFORMED, str(exc))
            if self.release_cache is not None:
                self.release_cache[("envelope", raw)] = (envelope, manifest)
        self._mark("decoded")
        thread.charge(SIG_VERIFY_CYCLES)
        if not envelope.verify(self.trust_anchor):
            return UpdateResult(
                UpdateStatus.SIGNATURE_INVALID,
                "COSE signature does not verify against the trust anchor",
                manifest,
            )
        if manifest.kind != self.expected_kind:
            return UpdateResult(
                UpdateStatus.WRONG_KIND,
                f"this worker processes {self.expected_kind!r} manifests, "
                f"got {manifest.kind!r}",
                manifest,
            )
        self._mark("verified")

        # 2. Resolve the target and check anti-rollback state.
        target, failure = self._resolve_target(manifest)
        if failure is not None:
            return failure
        if manifest.sequence_number <= self.storage.highest_sequence(
            manifest.storage_location
        ):
            return UpdateResult(
                UpdateStatus.SEQUENCE_REPLAY,
                f"sequence {manifest.sequence_number} not newer than "
                f"{self.storage.highest_sequence(manifest.storage_location)}",
                manifest,
            )
        self._mark("resolved")
        # Reserve the storage slot *before* burning radio budget on a
        # payload the device has no room to keep.
        try:
            self.storage.slot(manifest.storage_location)
        except StorageFullError as exc:
            return UpdateResult(UpdateStatus.STORAGE_FULL, str(exc), manifest)
        self._mark("reserved")

        # 3. Obtain the payload.  A trigger that carried a SUIT
        # integrated payload already has it — no radio round-trips, no
        # checkpointing, and FETCH_FAILED is impossible on this path.
        # Otherwise fetch block-wise from the repository, resuming from
        # any checkpointed progress of a previous interrupted attempt at
        # this exact payload.
        if inline is not None:
            payload = inline
        else:
            self.client.get_blockwise(
                self.repo_addr,
                self.repo_port,
                manifest.uri,
                on_complete=lambda blob: self._queue.post_new("payload",
                                                              blob),
                on_error=lambda msg: self._queue.post_new("fetch-error",
                                                          msg),
                max_size=manifest.size,
                on_block=lambda num, block: self._checkpoint_fetch(
                    manifest, num, block),
                resume_from=self._fetch_resume(manifest),
            )
            while True:
                event = yield Wait(self._queue)
                if event.kind == "trigger":
                    self._backlog.append(event.payload)
                    continue
                if event.kind in ("payload", "fetch-error"):
                    break
                # Anything else on the queue — a stray or future event
                # kind — is not a fetch outcome; misreading it as one
                # would corrupt the pipeline.  Keep waiting.
            if event.kind == "fetch-error":
                # Return the reservation: a failed fetch must not turn
                # the bounded storage budget into a dead empty slot.
                # The fetch checkpoint is deliberately kept: the next
                # trigger for the same payload resumes from the last
                # received block.
                self.storage.release_if_empty(manifest.storage_location)
                return UpdateResult(UpdateStatus.FETCH_FAILED,
                                    event.payload, manifest)
            payload = event.payload
        self._mark("fetched")

        # 4. Integrity check, then store and activate.
        thread.charge(SHA256_CYCLES_PER_BYTE * len(payload))
        if not manifest.matches_payload(payload):
            self.storage.release_if_empty(manifest.storage_location)
            self._clear_fetch(manifest.storage_location)
            return UpdateResult(
                UpdateStatus.DIGEST_MISMATCH,
                "payload size/digest does not match the signed manifest",
                manifest,
            )
        self._mark("checked")
        self.storage.install(manifest.storage_location, payload,
                             manifest.sequence_number, name=manifest.name,
                             runtime=manifest.runtime,
                             cache=self.release_cache)
        self._clear_fetch(manifest.storage_location)
        self._mark("installed")
        outcome = self._activate(manifest, target, payload)
        self._mark("activated")
        return outcome

    # -- fetch checkpointing ---------------------------------------------------

    def _fetch_meta_key(self, location: str) -> str:
        return NVM_FETCH_PREFIX + location + "/meta"

    def _fetch_block_key(self, location: str, num: int) -> str:
        return f"{NVM_FETCH_PREFIX}{location}/{num:06d}"

    def _fetch_resume(self, manifest: SuitManifest) -> bytes:
        """Bytes already safely in NVM from an interrupted fetch.

        Progress is only reusable when it belongs to *this* payload: the
        checkpoint records the manifest digest, and a checkpoint for any
        other digest is purged, so a re-published (different) payload can
        never be stitched together from stale blocks.
        """
        if self.nvm is None:
            return b""
        meta_raw = self.nvm.read(self._fetch_meta_key(
            manifest.storage_location))
        if meta_raw is not None:
            meta = cbor.decode(meta_raw)
            if meta.get("digest") == manifest.digest:
                parts = []
                num = 0
                while True:
                    block = self.nvm.read(self._fetch_block_key(
                        manifest.storage_location, num))
                    if block is None:
                        break
                    parts.append(block)
                    num += 1
                return b"".join(parts)
        self._clear_fetch(manifest.storage_location)
        self.nvm.write(self._fetch_meta_key(manifest.storage_location),
                       cbor.encode({"digest": manifest.digest}))
        return b""

    def _checkpoint_fetch(self, manifest: SuitManifest, num: int,
                          block: bytes) -> None:
        """Persist block ``num`` as it lands (called after every block).

        Only the latest block is (re)written — one flash page per block,
        not a rewrite of the whole transfer — so checkpointing costs
        cycles linear in the payload, charged to this device's clock as
        the blocks arrive.

        This runs on the radio RX path, i.e. on the *link's* kernel
        stack, not this device's worker thread — so a power failure
        injected into the flash write (a torn-write chaos event) must be
        translated into a halt of **this device's** kernel here, instead
        of propagating into whichever kernel happened to deliver the
        frame.
        """
        if self.nvm is None or not block:
            return
        try:
            self.nvm.write(
                self._fetch_block_key(manifest.storage_location, num), block
            )
        except PowerFailure:
            self.kernel.power_fail()

    def _clear_fetch(self, location: str) -> None:
        if self.nvm is None:
            return
        for key in self.nvm.keys(NVM_FETCH_PREFIX + location):
            self.nvm.delete(key)

    # -- post-reboot recovery --------------------------------------------------

    def recover(self) -> list[UpdateResult]:
        """Bootloader role: re-activate what NVM says was installed.

        Called by whoever rebuilds the device after a power cycle.  Every
        occupied persisted slot is integrity-charged (the boot-time
        digest re-check a real bootloader performs) and re-activated
        through the same overridable :meth:`_activate` step as a live
        update, in install order.  Returns one result per slot.
        """
        outcomes = []
        slots = sorted(
            (s for s in self.storage.slots.values() if s.occupied),
            key=lambda s: s.sequence_number,
        )
        for slot in slots:
            self.kernel.clock.charge(SHA256_CYCLES_PER_BYTE * len(slot.image))
            outcome = self._recover_slot(slot)
            self.results.append(outcome)
            outcomes.append(outcome)
        return outcomes

    def _recover_slot(self, slot: StorageSlot) -> UpdateResult:
        manifest = SuitManifest(
            sequence_number=slot.sequence_number,
            storage_location=slot.location,
            digest=payload_digest(slot.image),
            size=len(slot.image),
            uri="",
            name=slot.name,
            kind=self.expected_kind,
            runtime=slot.runtime,
        )
        target, failure = self._resolve_target(manifest)
        if failure is not None:
            return failure
        return self._activate(manifest, target, slot.image)

    # -- overridable steps -----------------------------------------------------

    def _resolve_target(self, manifest: SuitManifest):
        """Map the manifest's storage location onto a device object.

        Returns ``(target, None)`` on success or ``(None, UpdateResult)``
        when the location cannot be resolved.  The image worker resolves
        a hook; the spec worker has no per-hook target.
        """
        try:
            return self.engine.hook_by_uuid(manifest.storage_location), None
        except UnknownHookError as exc:
            return None, UpdateResult(UpdateStatus.UNKNOWN_HOOK, str(exc),
                                      manifest)

    def _activate(self, manifest: SuitManifest, target,
                  payload: bytes) -> UpdateResult:
        """Turn a stored, integrity-checked payload into running state."""
        hook = target
        try:
            runtime = container_runtime(manifest.runtime)
            program = runtime.decode(payload, name=manifest.name)
            if hook.containers:
                self.engine.replace(hook.containers[0], program)
            else:
                self.engine.attach(
                    self.engine.load(program, tenant=self.tenant), hook.name
                )
        except Exception as exc:  # pre-flight or policy rejection
            return UpdateResult(UpdateStatus.REJECTED, str(exc), manifest)
        return UpdateResult(UpdateStatus.OK, "installed and attached",
                            manifest)
