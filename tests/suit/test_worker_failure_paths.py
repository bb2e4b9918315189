"""Failure paths shared by both update workers (image and spec flavour).

The spec worker reuses the image worker's authentication, anti-rollback,
storage-budget and block-transfer pipeline; these tests drive the failure
modes of that shared machinery through *both* flavours: truncated block
transfers, payloads swapped mid-fetch, repositories that lie about the
size, and devices whose storage budget is exhausted.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_SCHED, FC_HOOK_TIMER
from repro.deploy import AttachmentSpec, DeploymentSpec, ImageSpec
from repro.net import CoapClient, CoapServer, Interface, Link, UdpStack
from repro.suit import (
    SpecUpdateWorker,
    SuitEnvelope,
    SuitManifest,
    SuitUpdateWorker,
    UpdateStatus,
    ed25519,
    payload_digest,
    sign_spec,
)
from repro.vm import assemble

SEED = bytes(range(32))
PUBLIC = ed25519.public_key(SEED)


def make_rig(kernel, engine, worker_class, **worker_kwargs):
    link = Link(kernel, loss=0.0, seed=21)
    dev = link.attach(Interface("dev"))
    host = link.attach(Interface("host"))
    repo = CoapServer(kernel, UdpStack(host).socket(5683), threaded=False)
    client = CoapClient(kernel, UdpStack(dev).socket(40000))
    worker = worker_class(engine, client, trust_anchor=PUBLIC,
                          repo_addr="host", **worker_kwargs)
    return repo, worker


def image_manifest(engine, payload, seq=1, hook=FC_HOOK_TIMER,
                   uri="/fw/app", size=None):
    return SuitManifest(
        sequence_number=seq,
        storage_location=str(engine.hook(hook).uuid),
        digest=payload_digest(payload),
        size=size if size is not None else len(payload),
        uri=uri,
    )


def spec_bytes(source="mov r0, 7\n    exit", name="ota"):
    spec = DeploymentSpec(
        name=name,
        tenants=("alice",),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_TIMER,
                                    tenant="alice", name="app"),),
    )
    return spec


def run_update(kernel, worker, envelope_bytes):
    worker.trigger(envelope_bytes)
    kernel.run(until_us=kernel.now_us + 400_000_000)
    return worker.results[-1]


class TestTruncatedTransfer:
    """The repository serves fewer bytes than the manifest promised."""

    def test_image_worker_detects_truncated_payload(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker)
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        manifest = image_manifest(engine, payload)
        repo.register_blob(manifest.uri, lambda: payload[:-4])  # truncated
        result = run_update(kernel, worker,
                            SuitEnvelope.create(manifest, SEED).encode())
        assert result.status is UpdateStatus.DIGEST_MISMATCH
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_spec_worker_detects_truncated_payload(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SpecUpdateWorker)
        envelope, payload = sign_spec(spec_bytes(), 1, "/specs/dev", SEED)
        repo.register_blob("/specs/dev", lambda: payload[:-7])
        result = run_update(kernel, worker, envelope)
        assert result.status is UpdateStatus.DIGEST_MISMATCH
        assert not engine.tenants


class TestMidFetchSwap:
    """The payload changes under the device between blocks — the digest
    over the reassembly must catch it (signature mismatch mid-fetch)."""

    def _swapping_blob(self, honest: bytes, evil: bytes):
        served = {"count": 0}

        def get_blob() -> bytes:
            served["count"] += 1
            return honest if served["count"] == 1 else evil

        return get_blob

    def test_image_swapped_between_blocks_rejected(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker)
        # szx=5 blocks carry 512 B: 70 instructions (560 B) need two
        # blocks, and the repo's blob getter runs once per block request.
        source = "\n".join(["mov r0, 1"] * 69 + ["exit"])
        honest = assemble(source).to_bytes()
        evil = assemble("mov r0, 666\n" + source).to_bytes()[:len(honest)]
        assert len(honest) > 512
        manifest = image_manifest(engine, honest)
        repo.register_blob(manifest.uri, self._swapping_blob(honest, evil))
        result = run_update(kernel, worker,
                            SuitEnvelope.create(manifest, SEED).encode())
        assert result.status is UpdateStatus.DIGEST_MISMATCH
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_spec_swapped_between_blocks_rejected(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SpecUpdateWorker)
        big = "\n".join(["mov r0, 1"] * 69 + ["exit"])
        envelope, honest = sign_spec(spec_bytes(big), 1, "/specs/dev", SEED)
        _, evil = sign_spec(spec_bytes("mov r0, 666\n" + big), 1,
                            "/specs/dev", SEED)
        assert len(honest) > 512
        repo.register_blob("/specs/dev",
                           self._swapping_blob(honest, evil[:len(honest)]))
        result = run_update(kernel, worker, envelope)
        assert result.status is UpdateStatus.DIGEST_MISMATCH
        assert not engine.tenants


class TestOversizeTransfer:
    """A repository serving more than the signed size is cut off mid-air
    (the reassembly buffer is bounded by the manifest)."""

    def test_image_worker_aborts_oversize_fetch(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker)
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        manifest = image_manifest(engine, payload, size=8)  # lies: 8 < 16
        repo.register_blob(manifest.uri, lambda: payload + b"\x00" * 512)
        result = run_update(kernel, worker,
                            SuitEnvelope.create(manifest, SEED).encode())
        assert result.status in (UpdateStatus.FETCH_FAILED,
                                 UpdateStatus.DIGEST_MISMATCH)
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_fetch_error_message_names_the_bound(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker)
        blob = bytes(range(256)) * 4  # 1 KiB served
        digest_source = blob[:100]
        manifest = image_manifest(engine, digest_source, size=100)
        repo.register_blob(manifest.uri, lambda: blob)
        result = run_update(kernel, worker,
                            SuitEnvelope.create(manifest, SEED).encode())
        assert result.status is UpdateStatus.FETCH_FAILED
        assert "exceeds" in result.message


class TestStorageExhaustion:
    """A bounded StorageRegistry refuses new locations before any radio
    budget is spent on the payload."""

    def test_image_worker_rejects_when_slots_full(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker,
                                max_storage_slots=1)
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        first = image_manifest(engine, payload, hook=FC_HOOK_TIMER,
                               uri="/fw/a")
        repo.register_blob("/fw/a", lambda: payload)
        assert run_update(kernel, worker,
                          SuitEnvelope.create(first, SEED).encode()).ok

        frames_before = worker.client.socket.sent
        second = image_manifest(engine, payload, hook=FC_HOOK_SCHED,
                                uri="/fw/b")
        repo.register_blob("/fw/b", lambda: payload)
        result = run_update(kernel, worker,
                            SuitEnvelope.create(second, SEED).encode())
        assert result.status is UpdateStatus.STORAGE_FULL
        # Refused before the fetch: no extra frames on air.
        assert worker.client.socket.sent == frames_before
        assert not engine.hook(FC_HOOK_SCHED).occupied

    def test_update_to_existing_slot_still_works_when_full(self, kernel,
                                                           engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker,
                                max_storage_slots=1)
        v1 = assemble("mov r0, 1\n    exit").to_bytes()
        v2 = assemble("mov r0, 2\n    exit").to_bytes()
        repo.register_blob("/fw/a", lambda: v1)
        assert run_update(
            kernel, worker,
            SuitEnvelope.create(
                image_manifest(engine, v1, seq=1, uri="/fw/a"),
                SEED).encode()).ok
        repo.register_blob("/fw/a", lambda: v2)
        assert run_update(
            kernel, worker,
            SuitEnvelope.create(
                image_manifest(engine, v2, seq=2, uri="/fw/a"),
                SEED).encode()).ok
        container = engine.hook(FC_HOOK_TIMER).containers[0]
        assert engine.execute(container).value == 2

    def test_spec_worker_honours_storage_budget(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SpecUpdateWorker,
                                max_storage_slots=1)
        envelope, payload = sign_spec(spec_bytes(), 1, "/specs/a", SEED,
                                      slot="spec:a")
        repo.register_blob("/specs/a", lambda: payload)
        assert run_update(kernel, worker, envelope).ok

        envelope_b, payload_b = sign_spec(spec_bytes(name="other"), 1,
                                          "/specs/b", SEED, slot="spec:b")
        repo.register_blob("/specs/b", lambda: payload_b)
        result = run_update(kernel, worker, envelope_b)
        assert result.status is UpdateStatus.STORAGE_FULL


class TestReservationRelease:
    """A failed fetch or digest check returns its slot reservation —
    transient failures must not eat the bounded storage budget."""

    def test_failed_fetch_releases_the_reserved_slot(self, kernel, engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker,
                                max_storage_slots=2)
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        repo.register_blob("/fw/a", lambda: payload)
        assert run_update(
            kernel, worker,
            SuitEnvelope.create(
                image_manifest(engine, payload, uri="/fw/a"),
                SEED).encode()).ok

        # /fw/b is never served: the fetch times out.
        ghost = image_manifest(engine, payload, hook=FC_HOOK_SCHED,
                               uri="/fw/not-served")
        result = run_update(kernel, worker,
                            SuitEnvelope.create(ghost, SEED).encode())
        assert result.status is UpdateStatus.FETCH_FAILED
        assert len(worker.storage.slots) == 1  # reservation returned

        # The budget is still usable for a third location.
        repo.register_blob("/fw/c", lambda: payload)
        third = image_manifest(engine, payload, hook=FC_HOOK_SCHED,
                               uri="/fw/c")
        assert run_update(kernel, worker,
                          SuitEnvelope.create(third, SEED).encode()).ok

    def test_digest_mismatch_releases_the_reserved_slot(self, kernel,
                                                        engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker,
                                max_storage_slots=1)
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        manifest = image_manifest(engine, payload)
        repo.register_blob(manifest.uri, lambda: payload[:-4])
        result = run_update(kernel, worker,
                            SuitEnvelope.create(manifest, SEED).encode())
        assert result.status is UpdateStatus.DIGEST_MISMATCH
        assert worker.storage.slots == {}

    def test_failure_on_occupied_slot_keeps_the_old_image(self, kernel,
                                                          engine):
        repo, worker = make_rig(kernel, engine, SuitUpdateWorker,
                                max_storage_slots=1)
        v1 = assemble("mov r0, 1\n    exit").to_bytes()
        repo.register_blob("/fw/a", lambda: v1)
        location = image_manifest(engine, v1, uri="/fw/a").storage_location
        assert run_update(
            kernel, worker,
            SuitEnvelope.create(
                image_manifest(engine, v1, seq=1, uri="/fw/a"),
                SEED).encode()).ok
        # v2 update to the same slot fails its fetch: v1 stays stored.
        v2 = assemble("mov r0, 2\n    exit").to_bytes()
        result = run_update(
            kernel, worker,
            SuitEnvelope.create(
                image_manifest(engine, v2, seq=2, uri="/fw/gone"),
                SEED).encode())
        assert result.status is UpdateStatus.FETCH_FAILED
        assert worker.storage.slot(location).image == v1


class TestUndecodableHeader:
    """An envelope whose COSE protected header is not CBOR is refused as
    unauthenticated; it never raises out of the worker thread."""

    @pytest.mark.parametrize("protected", [b"\xff", b""],
                             ids=["reserved-byte", "empty"])
    @pytest.mark.parametrize("worker_class",
                             [SuitUpdateWorker, SpecUpdateWorker],
                             ids=["image", "spec"])
    def test_ends_as_signature_invalid(self, kernel, engine, worker_class,
                                       protected):
        from repro.suit.cose import CoseSign1

        repo, worker = make_rig(kernel, engine, worker_class)
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        signed = SuitEnvelope.create(image_manifest(engine, payload), SEED)
        hacked = SuitEnvelope(auth=CoseSign1(
            protected=protected, payload=signed.auth.payload,
            signature=signed.auth.signature))
        result = run_update(kernel, worker, hacked.encode())
        assert result.status is UpdateStatus.SIGNATURE_INVALID
        assert worker.storage.slots == {}


class TestRegistryBehaviour:
    def test_peek_never_creates_slots(self):
        from repro.suit import StorageRegistry

        registry = StorageRegistry(max_slots=1)
        assert registry.peek("a") is None
        assert registry.highest_sequence("a") == -1
        assert not registry.slots  # probing costs nothing

    def test_slot_raises_beyond_budget(self):
        from repro.suit import StorageFullError, StorageRegistry

        registry = StorageRegistry(max_slots=2)
        registry.install("a", b"x", 1)
        registry.install("b", b"y", 1)
        with pytest.raises(StorageFullError, match="2/2"):
            registry.slot("c")
        # Existing slots stay reachable.
        assert registry.slot("a").sequence_number == 1
