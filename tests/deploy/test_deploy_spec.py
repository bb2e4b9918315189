"""DeploymentSpec model: validation, JSON round-trip, builtin specs."""

from __future__ import annotations

import json

import pytest

from repro.core import ContainerContract, FC_HOOK_FANOUT, FC_HOOK_TIMER
from repro.core.policy import DEFAULT_CONTRACT
from repro.core.hooks import HookMode
from repro.deploy import (
    BUILTIN_SPECS,
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    SpecError,
    apply,
    builtin_spec,
    fanout_spec,
    multi_tenant_spec,
    plan,
)
from repro.vm import assemble
from repro.workloads import thread_counter_program

RETURN_7 = "mov r0, 7\n    exit"


def simple_spec(**overrides) -> DeploymentSpec:
    fields = dict(
        name="simple",
        tenants=("alice",),
        images={"seven": ImageSpec.from_program(assemble(RETURN_7))},
        attachments=(AttachmentSpec(image="seven", hook=FC_HOOK_TIMER,
                                    tenant="alice", name="sevener"),),
    )
    fields.update(overrides)
    return DeploymentSpec(**fields)


class TestImageSpec:
    def test_hash_matches_instantiated_program(self):
        program = thread_counter_program()
        image = ImageSpec.from_program(program)
        assert image.image_hash == program.image_hash

    def test_instantiate_returns_fresh_objects_same_hash(self):
        image = ImageSpec.from_program(assemble(RETURN_7))
        first, second = image.instantiate("a"), image.instantiate("b")
        assert first is not second
        assert first.image_hash == second.image_hash == image.image_hash
        assert first.name == "a" and second.name == "b"

    def test_equal_programs_produce_equal_hashes(self):
        # Content addressing: two separately assembled but identical
        # programs are the same image.
        one = ImageSpec.from_program(assemble(RETURN_7))
        two = ImageSpec.from_program(assemble(RETURN_7))
        assert one.image_hash == two.image_hash

    def test_from_json_variants(self):
        program = thread_counter_program()
        by_workload = ImageSpec.from_json("w", {"workload": "thread-counter"})
        by_hex = ImageSpec.from_json("h", {
            "hex": program.to_bytes().hex(),
            "rodata_hex": program.rodata.hex(),
            "data_hex": program.data.hex(),
        })
        by_asm = ImageSpec.from_json("a", {"asm": RETURN_7})
        assert by_workload.image_hash == by_hex.image_hash \
            == program.image_hash
        assert by_asm.image_hash == assemble(RETURN_7).image_hash

    def test_from_json_rejects_unknown_source(self):
        with pytest.raises(SpecError):
            ImageSpec.from_json("x", {"url": "coap://nope"})
        with pytest.raises(SpecError):
            ImageSpec.from_json("x", {"workload": "ghost"})


class TestValidation:
    def test_valid_spec_passes(self):
        simple_spec().validate()

    def test_unknown_image_rejected(self):
        spec = simple_spec(attachments=(AttachmentSpec(
            image="ghost", hook=FC_HOOK_TIMER, tenant="alice"),))
        with pytest.raises(SpecError, match="unknown image"):
            spec.validate()

    def test_unknown_tenant_rejected(self):
        spec = simple_spec(attachments=(AttachmentSpec(
            image="seven", hook=FC_HOOK_TIMER, tenant="bob"),))
        with pytest.raises(SpecError, match="unknown tenant"):
            spec.validate()

    def test_duplicate_instance_names_rejected(self):
        duplicate = AttachmentSpec(image="seven", hook=FC_HOOK_TIMER,
                                   tenant="alice", name="sevener")
        spec = simple_spec(attachments=(duplicate, duplicate))
        with pytest.raises(SpecError, match="two attachments"):
            spec.validate()

    def test_bad_count_rejected(self):
        spec = simple_spec(attachments=(AttachmentSpec(
            image="seven", hook=FC_HOOK_TIMER, tenant="alice", count=0),))
        with pytest.raises(SpecError, match="count"):
            spec.validate()

    def test_instance_naming(self):
        one = AttachmentSpec(image="img", hook="h", name="solo")
        many = AttachmentSpec(image="img", hook="h", name="worker", count=3)
        templated = AttachmentSpec(image="img", hook="h", name="fc-1-{i}",
                                   count=2)
        unnamed = AttachmentSpec(image="img", hook="h")
        assert one.instance_names() == ["solo"]
        assert many.instance_names() == ["worker-0", "worker-1", "worker-2"]
        assert templated.instance_names() == ["fc-1-0", "fc-1-1"]
        assert unnamed.instance_names() == ["img"]


class TestJsonRoundTrip:
    def test_round_trip_preserves_desired_state(self):
        spec = fanout_spec(tenants=2, instances_per_tenant=3)
        restored = DeploymentSpec.from_json(
            json.loads(json.dumps(spec.to_json())))
        assert restored.name == spec.name
        assert restored.tenants == spec.tenants
        assert restored.hooks == spec.hooks
        assert [i.image_hash for i in restored.images.values()] \
            == [i.image_hash for i in spec.images.values()]
        assert restored.desired_instances() == spec.desired_instances()

    def test_contract_round_trip(self):
        contract = ContainerContract(helpers=frozenset({0x01, 0x30}),
                                     max_instructions=128,
                                     stack_size=1024)
        attachment = AttachmentSpec(image="seven", hook=FC_HOOK_TIMER,
                                    tenant="alice", name="sevener",
                                    contract=contract, period_us=5e5)
        spec = simple_spec(attachments=(attachment,))
        restored = DeploymentSpec.from_json(spec.to_json())
        assert restored.attachments[0].contract == contract
        assert restored.attachments[0].period_us == 5e5

    def test_from_json_validates(self):
        doc = simple_spec().to_json()
        doc["attachments"][0]["image"] = "ghost"
        with pytest.raises(SpecError):
            DeploymentSpec.from_json(doc)

    @pytest.mark.parametrize("part,field,value", [
        ("contract", "helpers", "packet"),
        ("contract", "memory_regions", "packet"),
        ("policy", "allowed_helpers", "packet"),
        ("policy", "memory_grants", "packet"),
        ("contract", "memory_regions", {"packet": 1}),
        ("policy", "allowed_helpers", 1),
    ])
    def test_non_list_field_is_refused_by_name(self, part, field, value):
        """A string where a list belongs must not become one entry per
        character ('packet' -> p, a, c, k, e, t): the document is refused
        with an error naming the field."""
        doc = simple_spec().to_json()
        attachment = doc["attachments"][0]
        if part == "contract":
            attachment["contract"] = {field: value}
        else:
            attachment["tenant_policies"] = {"alice": {field: value}}
        with pytest.raises(SpecError, match=f"{field} must be a list"):
            DeploymentSpec.from_json(doc)

    def test_list_fields_still_parse(self):
        doc = simple_spec().to_json()
        attachment = doc["attachments"][0]
        attachment["contract"] = {"helpers": [1], "memory_regions": ["packet"]}
        attachment["tenant_policies"] = {"alice": {
            "allowed_helpers": [1],
            "memory_grants": [{"name": "packet", "start": 0x1000,
                               "size": 64, "perms": 1}],
        }}
        restored = DeploymentSpec.from_json(doc).attachments[0]
        assert restored.contract.memory_regions == ("packet",)
        assert restored.contract.helpers == frozenset({1})
        policy = restored.tenant_policies["alice"]
        assert policy.allowed_helpers == frozenset({1})
        assert [grant.name for grant in policy.memory_grants] == ["packet"]


class TestDefaultContract:
    """A container that asks for nothing beyond the defaults carries the
    one shared ``DEFAULT_CONTRACT`` object, however it was built, so the
    engine's grant memo finds a slot shape by identity."""

    def test_default_attachments_share_one_contract(self):
        first = AttachmentSpec(image="seven", hook=FC_HOOK_TIMER)
        second = AttachmentSpec(image="eight", hook=FC_HOOK_FANOUT)
        assert first.contract is second.contract is DEFAULT_CONTRACT

    def test_decoded_default_slots_share_one_contract(self):
        spec = fanout_spec(tenants=2, instances_per_tenant=1)
        for decoded in (DeploymentSpec.from_json(spec.to_json()),
                        DeploymentSpec.from_cbor(spec.to_cbor())):
            first, second = decoded.attachments[:2]
            assert first.contract is second.contract is DEFAULT_CONTRACT

    def test_spelled_out_defaults_decode_to_the_shared_contract(self):
        doc = simple_spec().to_json()
        doc["attachments"][0]["contract"] = {
            "max_instructions": DEFAULT_CONTRACT.max_instructions,
            "stack_size": DEFAULT_CONTRACT.stack_size,
        }
        restored = DeploymentSpec.from_json(doc).attachments[0]
        assert restored.contract is DEFAULT_CONTRACT
        doc["attachments"][0]["contract"] = {"max_instructions": 64}
        narrower = DeploymentSpec.from_json(doc).attachments[0].contract
        assert narrower.max_instructions == 64
        assert narrower is not DEFAULT_CONTRACT

    def test_engine_load_defaults_to_it(self, engine):
        container = engine.load(assemble(RETURN_7))
        assert container.contract is DEFAULT_CONTRACT


class TestBuiltins:
    def test_builtin_names(self):
        assert builtin_spec("multi-tenant").name == "multi-tenant"
        assert builtin_spec("fanout").name == "fanout"
        with pytest.raises(SpecError):
            builtin_spec("ghost")

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_builtin_plans_and_applies(self, engine, name):
        spec = builtin_spec(name)
        result = apply(engine, plan(engine, spec))
        assert len(result.containers) == len(spec.desired_instances())
        assert plan(engine, spec).empty

    def test_multi_tenant_spec_shape(self):
        spec = multi_tenant_spec(sensor_period_us=250_000)
        spec.validate()
        assert spec.tenants == ("tenant-a", "tenant-b")
        assert len(spec.desired_instances()) == 3
        sensor = spec.desired_instances()[0]
        assert sensor.period_us == 250_000

    def test_fanout_spec_shape(self):
        spec = fanout_spec(tenants=3, instances_per_tenant=2)
        spec.validate()
        assert spec.hooks == (HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),)
        names = [i.name for i in spec.desired_instances()]
        assert names == ["fc-0-0", "fc-0-1", "fc-1-0", "fc-1-1",
                         "fc-2-0", "fc-2-1"]
