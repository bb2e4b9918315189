"""Over-the-air spec reconciliation: the SpecUpdateWorker end to end."""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_TIMER
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    ImageSpec,
    plan,
)
from repro.net import CoapClient, CoapServer, Interface, Link, UdpStack
from repro.suit import (
    SpecUpdateWorker,
    SuitEnvelope,
    UpdateStatus,
    ed25519,
    make_spec_manifest,
    payload_digest,
    sign_spec,
)
from repro.suit.manifest import KIND_SPEC, SuitManifest
from repro.vm import assemble

SEED = bytes(range(32))
PUBLIC = ed25519.public_key(SEED)
ATTACKER_SEED = bytes(range(100, 132))

RETURN_7 = "mov r0, 7\n    exit"
RETURN_9 = "mov r0, 9\n    exit"


def simple_spec(source: str = RETURN_7, name: str = "ota") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("alice",),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_TIMER,
                                    tenant="alice", name="app"),),
    )


@pytest.fixture
def rig(kernel, engine):
    link = Link(kernel, loss=0.0, seed=3)
    dev = link.attach(Interface("dev"))
    host = link.attach(Interface("host"))
    repo = CoapServer(kernel, UdpStack(host).socket(5683), threaded=False)
    client = CoapClient(kernel, UdpStack(dev).socket(40000))
    worker = SpecUpdateWorker(engine, client, trust_anchor=PUBLIC,
                              repo_addr="host")
    return kernel, engine, repo, worker


def publish(kernel, repo, worker, spec, seq, uri="/specs/dev",
            seed=SEED, slot=None):
    envelope, payload = sign_spec(spec, seq, uri, seed, slot=slot)
    repo.register_blob(uri, lambda: payload)
    worker.trigger(envelope)
    kernel.run(until_us=kernel.now_us + 400_000_000)
    return worker.results[-1]


class TestSpecReconciliation:
    def test_device_converges_on_published_spec(self, rig):
        kernel, engine, repo, worker = rig
        spec = simple_spec()
        result = publish(kernel, repo, worker, spec, 1)
        assert result.ok, result.message
        assert result.plan is not None
        assert len(result.plan.actions) == 2
        assert sorted(engine.tenants) == ["alice"]
        assert engine.hook(FC_HOOK_TIMER).occupied
        assert plan(engine, spec).empty

    def test_republish_is_idempotent(self, rig):
        kernel, engine, repo, worker = rig
        spec = simple_spec()
        assert publish(kernel, repo, worker, spec, 1).ok
        result = publish(kernel, repo, worker, spec, 2)
        assert result.ok
        assert "converged" in result.message
        assert result.plan.empty

    def test_edited_spec_hot_swaps_by_content_hash(self, rig):
        kernel, engine, repo, worker = rig
        assert publish(kernel, repo, worker, simple_spec(RETURN_7), 1).ok
        result = publish(kernel, repo, worker, simple_spec(RETURN_9), 2)
        assert result.ok
        actions = result.plan.actions
        assert [type(a).__name__ for a in actions] == ["Replace"]
        container = engine.hook(FC_HOOK_TIMER).containers[0]
        assert engine.execute(container).value == 9

    def test_sequence_replay_rejected(self, rig):
        kernel, engine, repo, worker = rig
        assert publish(kernel, repo, worker, simple_spec(), 1).ok
        result = publish(kernel, repo, worker, simple_spec(RETURN_9), 1)
        assert result.status is UpdateStatus.SEQUENCE_REPLAY
        # Replayed spec never ran: the device still serves version 1.
        container = engine.hook(FC_HOOK_TIMER).containers[0]
        assert engine.execute(container).value == 7

    def test_forged_spec_rejected(self, rig):
        kernel, engine, repo, worker = rig
        result = publish(kernel, repo, worker, simple_spec(), 1,
                         seed=ATTACKER_SEED)
        assert result.status is UpdateStatus.SIGNATURE_INVALID
        assert not engine.tenants

    def test_image_manifest_refused_by_spec_worker(self, rig):
        kernel, engine, repo, worker = rig
        payload = assemble(RETURN_7).to_bytes()
        manifest = SuitManifest(
            sequence_number=1,
            storage_location=str(engine.hook(FC_HOOK_TIMER).uuid),
            digest=payload_digest(payload),
            size=len(payload),
            uri="/fw/app",
        )
        worker.trigger(SuitEnvelope.create(manifest, SEED).encode())
        kernel.run(until_us=10_000_000)
        result = worker.results[-1]
        assert result.status is UpdateStatus.WRONG_KIND
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_spec_slot_location_enforced(self, rig):
        kernel, engine, repo, worker = rig
        spec = simple_spec()
        result = publish(kernel, repo, worker, spec, 1, slot="not-a-spec-slot")
        assert result.status is UpdateStatus.UNKNOWN_HOOK

    def test_garbage_payload_is_spec_invalid(self, rig):
        """A signed manifest whose (digest-matching) payload is not a
        decodable spec must fail cleanly after the fetch."""
        kernel, engine, repo, worker = rig
        payload = b"\xffnot-cbor-at-all"
        manifest = SuitManifest(
            sequence_number=1,
            storage_location="spec:device",
            digest=payload_digest(payload),
            size=len(payload),
            uri="/specs/garbage",
            kind=KIND_SPEC,
        )
        repo.register_blob("/specs/garbage", lambda: payload)
        worker.trigger(SuitEnvelope.create(manifest, SEED).encode())
        kernel.run(until_us=400_000_000)
        result = worker.results[-1]
        assert result.status is UpdateStatus.SPEC_INVALID
        assert not engine.tenants

    def test_rejected_spec_rolls_back_whole_apply(self, rig):
        """One bad image in an otherwise-good spec: transactional apply
        reverts the good half too, and the device stays on its old state."""
        kernel, engine, repo, worker = rig
        assert publish(kernel, repo, worker, simple_spec(), 1).ok
        bad_spec = DeploymentSpec(
            name="ota",
            tenants=("alice",),
            images={
                "app": ImageSpec.from_program(
                    assemble(RETURN_9, name="app")),
                # Writing r10 is rejected by the pre-flight verifier.
                "bad": ImageSpec.from_program(
                    assemble("mov r10, 1\n    exit", name="bad")),
            },
            attachments=(
                AttachmentSpec(image="app", hook=FC_HOOK_TIMER,
                               tenant="alice", name="app"),
                AttachmentSpec(image="bad", hook=FC_HOOK_TIMER,
                               tenant="alice", name="bad"),
            ),
        )
        result = publish(kernel, repo, worker, bad_spec, 2)
        assert result.status is UpdateStatus.REJECTED
        # The device still runs version 1 of the good slot.
        container = engine.hook(FC_HOOK_TIMER).containers[0]
        assert engine.execute(container).value == 7
        assert plan(engine, simple_spec()).empty

    def test_spec_payload_stored_in_slot(self, rig):
        kernel, engine, repo, worker = rig
        spec = simple_spec()
        manifest, payload = make_spec_manifest(spec, 1, "/specs/dev")
        assert manifest.storage_location == "spec:ota"
        assert publish(kernel, repo, worker, spec, 1,
                       slot="spec:ota").ok
        slot = worker.storage.slot("spec:ota")
        assert slot.image == payload
        assert slot.sequence_number == 1

    def test_spec_cbor_roundtrip(self):
        spec = simple_spec()
        decoded = DeploymentSpec.from_cbor(spec.to_cbor())
        assert decoded.to_json() == spec.to_json()
        assert decoded.images["app"].image_hash \
            == spec.images["app"].image_hash
