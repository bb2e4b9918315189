"""End-to-end multi-runtime deploy plane: one spec mixing rBPF, Wasm and
script containers plans, applies, OTA-publishes (multicast profile),
canaries and rolls back — through the exact same stack a pure-rBPF spec
uses.

Also holds the wire-compat regression: seed-era tag-less specs decode as
rBPF and pure-rBPF specs still serialize without any runtime keys, so
their CBOR digests (and thus existing signatures) are unchanged.
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    apply,
    plan,
    runtime_matrix_spec,
)
from repro.scenarios import build_fleet_publisher
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads import FLETCHER32_INPUT, fletcher32_reference

#: Mini-wasm program that verifies clean but OOB-faults on every run.
POISON_WASM = ("module pages=1\nfunc main params=1 locals=0\n"
               "    i32.const 999999\n    i32.load8_u 0\n"
               "    return\nend\n")

BAKE_CONTEXT = bytes(16)  # the rBPF counter reads {u64 prev, u64 next}


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def poisoned_matrix_spec() -> DeploymentSpec:
    """The runtime-matrix release with the Wasm tenant's image poisoned."""
    spec = runtime_matrix_spec()
    images = dict(spec.images)
    images["checksum-wasm"] = ImageSpec.from_wasm(POISON_WASM,
                                                  name="checksum-wasm")
    return DeploymentSpec(name="runtime-matrix-poisoned",
                          tenants=spec.tenants, hooks=spec.hooks,
                          images=images, attachments=spec.attachments)


def runtimes_hosted(device) -> set[str]:
    return {getattr(c.program, "runtime", "rbpf")
            for c in device.engine.containers()}


class TestSpecWireCompat:
    def test_tagless_seed_era_doc_decodes_as_rbpf(self):
        """A spec JSON doc written before the runtime tag existed (no
        'runtime' keys anywhere) must decode byte-for-byte like the seed
        decoded it: every image is an rBPF image."""
        program = assemble("mov r0, 7\n    exit", name="app")
        seed_era_doc = {
            "name": "legacy",
            "tenants": ["ops"],
            "hooks": [{"name": FC_HOOK_FANOUT, "mode": "sync"}],
            "images": {"app": {"hex": program.to_bytes().hex(),
                               "name": "app"}},
            "attachments": [{"image": "app", "hook": FC_HOOK_FANOUT,
                             "tenant": "ops", "name": "worker"}],
        }
        spec = DeploymentSpec.from_json(seed_era_doc)
        image = spec.images["app"]
        assert image.runtime == "rbpf"
        # The historical untagged content address is preserved.
        assert image.image_hash == program.image_hash

    def test_pure_rbpf_spec_serializes_without_runtime_keys(self):
        spec = DeploymentSpec(
            name="pure",
            tenants=("ops",),
            images={"app": ImageSpec.from_program(
                assemble("mov r0, 7\n    exit", name="app"))},
            attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                        tenant="ops"),),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        )
        doc = spec.to_json()
        assert all("runtime" not in image_doc
                   for image_doc in doc["images"].values())
        assert b"runtime" not in spec.to_cbor()

    def test_tagged_spec_round_trips_through_cbor(self):
        spec = runtime_matrix_spec()
        again = DeploymentSpec.from_cbor(spec.to_cbor())
        assert {k: v.runtime for k, v in again.images.items()} == {
            "counter-rbpf": "rbpf",
            "checksum-wasm": "wasm",
            "checksum-script": "script",
        }
        assert {k: v.image_hash for k, v in again.images.items()} \
            == {k: v.image_hash for k, v in spec.images.items()}

    def test_unknown_runtime_rejected_at_validate(self):
        from repro.deploy import SpecError

        with pytest.raises(SpecError, match="unknown runtime"):
            DeploymentSpec.from_json({
                "name": "bad",
                "tenants": ["ops"],
                "images": {"app": {"hex": "", "runtime": "lua"}},
                "attachments": [],
            })


class TestMixedApply:
    def test_plan_apply_fire_reconverge(self, engine):
        spec = runtime_matrix_spec()
        deployment = plan(engine, spec)
        apply(engine, deployment)
        assert runtimes_hosted_engine(engine) == {"rbpf", "wasm", "script"}
        firing = engine.fire_hook(FC_HOOK_FANOUT,
                                  context=bytearray(FLETCHER32_INPUT))
        ref = fletcher32_reference(FLETCHER32_INPUT)
        by_name = {r.container.name: r for r in firing.runs}
        assert by_name["checksum-wasm"].value == ref
        assert by_name["checksum-script"].value == ref
        assert all(r.ok for r in firing.runs)
        assert plan(engine, spec).empty

    def test_editing_one_runtime_image_plans_one_replace(self, engine):
        from repro.deploy.plan import Replace

        apply(engine, plan(engine, runtime_matrix_spec()))
        edited = poisoned_matrix_spec()
        actions = plan(engine, edited).actions
        assert len(actions) == 1
        assert isinstance(actions[0], Replace)
        assert actions[0].name == "checksum-wasm"


def runtimes_hosted_engine(engine) -> set[str]:
    return {getattr(c.program, "runtime", "rbpf")
            for c in engine.containers()}


class TestOtaPublish:
    def test_multicast_publish_moves_all_three_runtimes(self):
        publisher = build_fleet_publisher(devices=5)
        result = publisher.publish(runtime_matrix_spec(),
                                   PublishOptions.scale())
        assert result.ok, result.reason
        assert result.multicast
        ref = fletcher32_reference(FLETCHER32_INPUT)
        for device in publisher.fleet.devices:
            assert runtimes_hosted(device) == {"rbpf", "wasm", "script"}
            firing = device.engine.fire_hook(
                FC_HOOK_FANOUT, context=bytearray(FLETCHER32_INPUT))
            values = {r.container.name: r.value for r in firing.runs}
            assert values["checksum-wasm"] == ref
            assert values["checksum-script"] == ref

    def test_anti_rollback_holds_for_tagged_specs(self):
        publisher = build_fleet_publisher(devices=2)
        spec = runtime_matrix_spec()
        first = publisher.publish(spec, PublishOptions(sequence_number=5))
        assert first.ok
        from repro.suit import UpdateStatus

        replay = publisher.publish(spec, PublishOptions(sequence_number=5))
        assert not replay.ok
        assert all(row.result.status is UpdateStatus.SEQUENCE_REPLAY
                   for row in replay.rows())

    def test_poisoned_wasm_canary_rolls_back_over_the_radio(self):
        publisher = build_fleet_publisher(devices=4)
        fleet = publisher.fleet
        base = runtime_matrix_spec()
        assert publisher.publish(base).ok
        result = publisher.publish(
            poisoned_matrix_spec(),
            PublishOptions(canary_count=1, bake_us=200_000.0, bake_fires=2,
                           bake_context=BAKE_CONTEXT))
        assert result.rolled_back and not result.promoted
        assert result.fault_deltas["dev0"] > 0
        rollback_rows = result.rollback
        assert len(rollback_rows) == 1 and rollback_rows[0].ok
        # The canary reconverged on the mixed baseline: all three
        # runtimes back, and the wasm checksum is the healthy image.
        canary = fleet.devices[0]
        assert plan(canary.engine, base).empty
        assert runtimes_hosted(canary) == {"rbpf", "wasm", "script"}
        firing = canary.engine.fire_hook(
            FC_HOOK_FANOUT, context=bytearray(FLETCHER32_INPUT))
        assert all(r.ok for r in firing.runs)
        assert fleet.current_spec is base

    def test_healthy_mixed_canary_promotes(self):
        publisher = build_fleet_publisher(devices=3)
        base = runtime_matrix_spec()
        assert publisher.publish(base).ok
        release = runtime_matrix_spec()
        result = publisher.publish(
            release,
            PublishOptions(canary_count=1, bake_us=200_000.0, bake_fires=2,
                           bake_context=BAKE_CONTEXT))
        assert result.ok
        assert not result.rolled_back
