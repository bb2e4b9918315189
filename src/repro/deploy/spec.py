"""Declarative deployment specifications (the "spec" of spec → plan → apply).

A :class:`DeploymentSpec` describes the *desired* state of one device —
which tenants exist, which content-addressed application images are
available, and which container instances (image + contract + hook) should
be attached — without saying anything about how to get there.  The
reconciler in :mod:`repro.deploy.plan` diffs a spec against a live
:class:`~repro.core.engine.HostingEngine` and emits the minimal ordered
action list that converges the device; :func:`repro.deploy.plan.apply`
executes it transactionally.

Images are stored *encoded* (text bytes plus data sections — exactly the
payload a SUIT manifest ships), and every install decodes a fresh
:class:`~repro.vm.program.Program` from those bytes.  All sharing of
verify reports and JIT templates therefore goes through the content hash
(:attr:`ImageSpec.image_hash`), never Python object identity: re-reading
the same spec from JSON, or re-building it from an equal program, plans
to zero actions.

Specs are JSON round-trippable (``DeploymentSpec.to_json``/``from_json``)
so ``python -m repro deploy my-spec.json`` can drive a device from a
file; a few :func:`builtin_spec` names cover the paper's canonical
systems (the §8.3 / Fig 5 multi-tenant device and the image fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

from repro.core.hooks import (
    FC_HOOK_COAP,
    FC_HOOK_FANOUT,
    FC_HOOK_SCHED,
    FC_HOOK_TIMER,
    HookMode,
)
from repro.core.policy import ContainerContract, HookPolicy, MemoryGrant
from repro.vm.memory import Permission
from repro.vm.program import Program


class SpecError(Exception):
    """The deployment spec is internally inconsistent."""


# -- images -------------------------------------------------------------------


@dataclass(frozen=True)
class ImageSpec:
    """One content-addressed application image.

    Holds the encoded text section plus the data sections — the bytes a
    SUIT payload carries — so an image in a spec is exactly as immutable
    as the flash slot it models.  :meth:`instantiate` decodes a *fresh*
    :class:`Program` per container instance; the process-wide image cache
    recognises instances by :attr:`image_hash`, not object identity.
    """

    name: str
    text: bytes
    rodata: bytes = b""
    data: bytes = b""
    #: Which container runtime decodes/hosts these bytes.  Tag-less
    #: specs (everything before runtimes were a spec dimension) are rBPF.
    runtime: str = "rbpf"

    @classmethod
    def from_program(cls, program: Program, name: str | None = None) -> "ImageSpec":
        return cls(name=name or program.name, text=program.to_bytes(),
                   rodata=program.rodata, data=program.data)

    @classmethod
    def from_wasm(cls, source, name: str = "wasm-app") -> "ImageSpec":
        """A mini-wasm image from wat-lite text, a Module or raw bytes."""
        from repro.runtimes.wasm.module import Module

        if isinstance(source, Module):
            payload = source.encode()
        elif isinstance(source, (bytes, bytearray)):
            payload = bytes(source)
        else:
            from repro.runtimes.wasm.asm import assemble

            payload = assemble(source).encode()
        return cls(name=name, text=payload, runtime="wasm")

    @classmethod
    def from_script(cls, source, name: str = "script-app") -> "ImageSpec":
        """A script image from source text (the payload *is* the source)."""
        payload = (source.encode("utf-8") if isinstance(source, str)
                   else bytes(source))
        return cls(name=name, text=payload, runtime="script")

    def instantiate(self, name: str | None = None):
        """Decode a fresh image instance (the per-instance RAM copy).

        For rBPF this returns a new :class:`Program` whose slot list is
        decoded once per image and shared — the slots are frozen value
        objects, so sharing is as safe as sharing the bytes — with the
        content-hash cache pre-seeded so attaching N instances neither
        re-decodes nor re-hashes the image.  Non-rBPF images decode
        through their registered runtime.
        """
        if self.runtime != "rbpf":
            from repro.runtimes.base import container_runtime

            return container_runtime(self.runtime).decode(
                self.text, name=name or self.name,
                rodata=self.rodata, data=self.data,
            )
        program = Program(slots=list(self._slots), rodata=self.rodata,
                          data=self.data, name=name or self.name)
        program.seed_hash_cache(self.image_hash)
        return program

    @cached_property
    def _slots(self) -> list:
        from repro.vm.instruction import decode_program

        return decode_program(self.text)

    @cached_property
    def image_hash(self) -> str:
        """Content hash — identical to the installed instances' hashes.

        The runtime computes it: non-rBPF hashes are runtime-tagged, so
        the same bytes under two runtimes are two distinct images, and
        rBPF keeps its historical untagged hash.
        """
        from repro.runtimes.base import container_runtime

        return container_runtime(self.runtime).image_hash(
            self.text, self.rodata, self.data)

    def to_json(self) -> dict:
        doc: dict = {"hex": self.text.hex()}
        if self.name:
            doc["name"] = self.name
        if self.rodata:
            doc["rodata_hex"] = self.rodata.hex()
        if self.data:
            doc["data_hex"] = self.data.hex()
        if self.runtime != "rbpf":
            # Pure-rBPF specs stay byte-identical to the pre-runtime
            # wire format (their CBOR digests and signatures hold).
            doc["runtime"] = self.runtime
        return doc

    @classmethod
    def from_json(cls, name: str, doc: dict) -> "ImageSpec":
        """Accepts ``hex`` (canonical), ``asm``/``wat``/``source`` text
        or a ``workload`` name; ``runtime`` defaults to rBPF."""
        name = doc.get("name", name)
        runtime = doc.get("runtime", "rbpf")
        if "workload" in doc:
            return cls.from_program(_workload_program(doc["workload"]),
                                    name=name)
        if "wat" in doc:
            return cls.from_wasm(doc["wat"], name=name)
        if "source" in doc:
            return cls.from_script(doc["source"], name=name)
        if "asm" in doc:
            from repro.vm import assemble

            return cls.from_program(assemble(doc["asm"], name=name), name=name)
        if "hex" in doc:
            return cls(
                name=name,
                text=bytes.fromhex(doc["hex"]),
                rodata=bytes.fromhex(doc.get("rodata_hex", "")),
                data=bytes.fromhex(doc.get("data_hex", "")),
                runtime=runtime,
            )
        raise SpecError(
            f"image {name!r} needs one of 'hex', 'asm', 'wat', "
            "'source' or 'workload'"
        )


def _workload_program(name: str) -> Program:
    from repro.workloads import (
        coap_handler_program,
        fletcher32_program,
        sensor_program,
        thread_counter_program,
    )

    factories: dict[str, Callable[[], Program]] = {
        "thread-counter": thread_counter_program,
        "sensor": sensor_program,
        "coap-handler": coap_handler_program,
        "fletcher32": fletcher32_program,
    }
    try:
        return factories[name]()
    except KeyError:
        raise SpecError(
            f"unknown workload image {name!r}; "
            f"choose from {sorted(factories)}"
        ) from None


# -- hooks and attachments ----------------------------------------------------


@dataclass(frozen=True)
class HookSpec:
    """A launchpad the spec expects compiled into the firmware.

    Default firmware pads (timer, CoAP, sched, ...) never need declaring;
    a spec lists a hook only when it relies on an extra debug-build pad
    (e.g. the fan-out hook) that the reconciler must register first.
    """

    name: str
    mode: HookMode = HookMode.SYNC

    def to_json(self) -> dict:
        return {"name": self.name, "mode": self.mode.value}

    @classmethod
    def from_json(cls, doc: dict) -> "HookSpec":
        return cls(name=doc["name"], mode=HookMode(doc.get("mode", "sync")))


@dataclass(frozen=True)
class AttachmentSpec:
    """Desired container instances of one image on one hook.

    ``count`` stamps N instances from the same image; ``name`` may embed
    ``{i}`` for the instance index (a bare name with ``count > 1`` gets
    ``-{i}`` appended).  ``period_us`` declares the §8.3 timer pattern —
    the reconciler arms a periodic firing of the hook immediately after
    the install, so a spec fully describes a self-driving sensor pipeline.

    ``tenant_policies`` maps tenant names to the per-tenant
    :class:`HookPolicy` overrides the attachment's hook should carry (the
    §11 Hook extension; the OS-side ceiling the grant intersection uses).
    The reconciler diffs them against the live hook and re-installs
    affected slots, so a policy edit in the spec re-grants running
    containers under the new ceiling.
    """

    image: str
    hook: str
    tenant: str | None = None
    name: str | None = None
    count: int = 1
    contract: ContainerContract = field(default_factory=ContainerContract)
    period_us: float | None = None
    tenant_policies: Mapping[str, HookPolicy] = field(default_factory=dict)

    def instance_names(self) -> list[str]:
        base = self.name or self.image
        if self.count == 1 and "{i}" not in base:
            return [base]
        template = base if "{i}" in base else base + "-{i}"
        return [template.format(i=index) for index in range(self.count)]

    def to_json(self) -> dict:
        doc: dict = {"image": self.image, "hook": self.hook}
        if self.tenant is not None:
            doc["tenant"] = self.tenant
        if self.name is not None:
            doc["name"] = self.name
        if self.count != 1:
            doc["count"] = self.count
        if self.contract != ContainerContract():
            doc["contract"] = _contract_to_json(self.contract)
        if self.period_us is not None:
            doc["period_us"] = self.period_us
        if self.tenant_policies:
            doc["tenant_policies"] = {
                tenant: _policy_to_json(policy)
                for tenant, policy in sorted(self.tenant_policies.items())
            }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AttachmentSpec":
        return cls(
            image=doc["image"],
            hook=doc["hook"],
            tenant=doc.get("tenant"),
            name=doc.get("name"),
            count=doc.get("count", 1),
            contract=_contract_from_json(doc.get("contract", {})),
            period_us=doc.get("period_us"),
            tenant_policies={
                tenant: _policy_from_json(policy_doc)
                for tenant, policy_doc
                in doc.get("tenant_policies", {}).items()
            },
        )


def _contract_to_json(contract: ContainerContract) -> dict:
    defaults = ContainerContract()
    doc: dict = {}
    if contract.helpers is not None:
        doc["helpers"] = sorted(contract.helpers)
    if contract.max_instructions != defaults.max_instructions:
        doc["max_instructions"] = contract.max_instructions
    if contract.branch_limit != defaults.branch_limit:
        doc["branch_limit"] = contract.branch_limit
    if contract.memory_regions:
        doc["memory_regions"] = list(contract.memory_regions)
    if contract.stack_size != defaults.stack_size:
        doc["stack_size"] = contract.stack_size
    return doc


def _contract_from_json(doc: dict) -> ContainerContract:
    defaults = ContainerContract()
    helpers = doc.get("helpers")
    return ContainerContract(
        helpers=frozenset(helpers) if helpers is not None else None,
        max_instructions=doc.get("max_instructions",
                                 defaults.max_instructions),
        branch_limit=doc.get("branch_limit", defaults.branch_limit),
        memory_regions=tuple(doc.get("memory_regions", ())),
        stack_size=doc.get("stack_size", defaults.stack_size),
    )


def _policy_to_json(policy: HookPolicy) -> dict:
    defaults = HookPolicy()
    doc: dict = {}
    if policy.allowed_helpers is not None:
        doc["allowed_helpers"] = sorted(policy.allowed_helpers)
    if policy.max_instructions != defaults.max_instructions:
        doc["max_instructions"] = policy.max_instructions
    if policy.branch_limit != defaults.branch_limit:
        doc["branch_limit"] = policy.branch_limit
    if policy.context_writable != defaults.context_writable:
        doc["context_writable"] = policy.context_writable
    if policy.memory_grants:
        doc["memory_grants"] = [
            {"name": grant.name, "start": grant.start,
             "size": grant.size, "perms": int(grant.perms)}
            for grant in policy.memory_grants
        ]
    if policy.max_stack_size != defaults.max_stack_size:
        doc["max_stack_size"] = policy.max_stack_size
    return doc


def _policy_from_json(doc: dict) -> HookPolicy:
    defaults = HookPolicy()
    helpers = doc.get("allowed_helpers")
    return HookPolicy(
        allowed_helpers=frozenset(helpers) if helpers is not None else None,
        max_instructions=doc.get("max_instructions",
                                 defaults.max_instructions),
        branch_limit=doc.get("branch_limit", defaults.branch_limit),
        context_writable=doc.get("context_writable",
                                 defaults.context_writable),
        memory_grants=tuple(
            MemoryGrant(name=grant["name"], start=grant["start"],
                        size=grant["size"],
                        perms=Permission(grant["perms"]))
            for grant in doc.get("memory_grants", ())
        ),
        max_stack_size=doc.get("max_stack_size", defaults.max_stack_size),
    )


# -- the spec -----------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class DesiredInstance:
    """One flattened (hook, name) slot the spec wants occupied."""

    hook: str
    name: str
    tenant: str | None
    image: ImageSpec
    contract: ContainerContract
    period_us: float | None


@dataclass(frozen=True)
class DeploymentSpec:
    """Desired state of one device: tenants, images, attachments."""

    name: str = "deployment"
    tenants: tuple[str, ...] = ()
    hooks: tuple[HookSpec, ...] = ()
    images: Mapping[str, ImageSpec] = field(default_factory=dict)
    attachments: tuple[AttachmentSpec, ...] = ()

    def validate(self) -> None:
        if len(set(self.tenants)) != len(self.tenants):
            raise SpecError("duplicate tenant names in spec")
        from repro.runtimes.base import runtime_names

        known_runtimes = runtime_names()
        for key, image in self.images.items():
            if image.runtime not in known_runtimes:
                raise SpecError(
                    f"image {key!r} targets unknown runtime "
                    f"{image.runtime!r}; "
                    f"registered: {sorted(known_runtimes)}"
                )
        hook_names = [hook.name for hook in self.hooks]
        if len(set(hook_names)) != len(hook_names):
            raise SpecError("duplicate hook declarations in spec")
        seen: set[tuple[str, str]] = set()
        policies: dict[tuple[str, str], HookPolicy] = {}
        for attachment in self.attachments:
            if attachment.count < 1:
                raise SpecError(
                    f"attachment {attachment.name or attachment.image!r} "
                    f"has count {attachment.count} (must be >= 1)"
                )
            if attachment.image not in self.images:
                raise SpecError(
                    "attachment references unknown image "
                    f"{attachment.image!r}"
                )
            if (attachment.tenant is not None
                    and attachment.tenant not in self.tenants):
                raise SpecError(
                    "attachment references unknown tenant "
                    f"{attachment.tenant!r}"
                )
            for tenant_name, policy in attachment.tenant_policies.items():
                if tenant_name not in self.tenants:
                    raise SpecError(
                        "tenant policy references unknown tenant "
                        f"{tenant_name!r}"
                    )
                previous = policies.setdefault(
                    (attachment.hook, tenant_name), policy)
                if previous != policy:
                    raise SpecError(
                        f"conflicting policies for tenant {tenant_name!r} "
                        f"on hook {attachment.hook!r}"
                    )
            for instance_name in attachment.instance_names():
                key = (attachment.hook, instance_name)
                if key in seen:
                    raise SpecError(
                        "two attachments produce container "
                        f"{instance_name!r} on hook {attachment.hook!r}"
                    )
                seen.add(key)

    def hook_tenant_policies(self) -> dict[str, dict[str, HookPolicy]]:
        """Merged desired per-tenant policies, hook -> tenant -> policy.

        ``validate`` guarantees attachments never disagree about one
        (hook, tenant) pair, so merging is conflict-free.
        """
        merged: dict[str, dict[str, HookPolicy]] = {}
        for attachment in self.attachments:
            for tenant_name, policy in attachment.tenant_policies.items():
                merged.setdefault(attachment.hook, {})[tenant_name] = policy
        return merged

    def desired_instances(self) -> list[DesiredInstance]:
        """Flatten attachments into (hook, name) slots, in spec order."""
        instances: list[DesiredInstance] = []
        for attachment in self.attachments:
            image = self.images[attachment.image]
            for instance_name in attachment.instance_names():
                instances.append(DesiredInstance(
                    hook=attachment.hook,
                    name=instance_name,
                    tenant=attachment.tenant,
                    image=image,
                    contract=attachment.contract,
                    period_us=attachment.period_us,
                ))
        return instances

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tenants": list(self.tenants),
            "hooks": [hook.to_json() for hook in self.hooks],
            "images": {key: image.to_json()
                       for key, image in self.images.items()},
            "attachments": [a.to_json() for a in self.attachments],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DeploymentSpec":
        spec = cls(
            name=doc.get("name", "deployment"),
            tenants=tuple(doc.get("tenants", ())),
            hooks=tuple(HookSpec.from_json(h) for h in doc.get("hooks", ())),
            images={key: ImageSpec.from_json(key, image_doc)
                    for key, image_doc in doc.get("images", {}).items()},
            attachments=tuple(AttachmentSpec.from_json(a)
                              for a in doc.get("attachments", ())),
        )
        spec.validate()
        return spec

    def to_cbor(self) -> bytes:
        """Canonical CBOR encoding — the OTA spec-manifest payload shape.

        Deterministic (sorted map keys, definite lengths), so the SHA-256
        digest a signed spec manifest carries is stable across encoders.
        """
        from repro.suit import cbor

        return cbor.encode(self.to_json())

    @classmethod
    def from_cbor(cls, raw: bytes) -> "DeploymentSpec":
        from repro.suit import cbor

        doc = cbor.decode(raw)
        if not isinstance(doc, dict):
            raise SpecError("spec payload must be a CBOR map")
        return cls.from_json(doc)


# -- canonical specs ----------------------------------------------------------


def multi_tenant_spec(sensor_period_us: float = 1_000_000.0) -> DeploymentSpec:
    """The §8.3 / Fig 5 system as a declarative spec.

    Two tenants, three containers: tenant A's periodic sensor reader and
    CoAP response formatter, tenant B's scheduler-hook thread counter.
    """
    from repro.workloads import (
        coap_handler_program,
        sensor_program,
        thread_counter_program,
    )

    return DeploymentSpec(
        name="multi-tenant",
        tenants=("tenant-a", "tenant-b"),
        images={
            "sensor": ImageSpec.from_program(sensor_program()),
            "coap-responder": ImageSpec.from_program(coap_handler_program()),
            "thread-counter": ImageSpec.from_program(
                thread_counter_program()),
        },
        attachments=(
            AttachmentSpec(image="sensor", hook=FC_HOOK_TIMER,
                           tenant="tenant-a", name="sensor",
                           period_us=sensor_period_us),
            AttachmentSpec(image="coap-responder", hook=FC_HOOK_COAP,
                           tenant="tenant-a", name="coap-responder"),
            AttachmentSpec(image="thread-counter", hook=FC_HOOK_SCHED,
                           tenant="tenant-b", name="thread-counter"),
        ),
    )


def fanout_spec(
    tenants: int = 2,
    instances_per_tenant: int = 4,
    image: Program | None = None,
) -> DeploymentSpec:
    """K tenants x M instances of one image on one SYNC hook."""
    if image is None:
        from repro.workloads import thread_counter_program

        image = thread_counter_program()
    return DeploymentSpec(
        name="fanout",
        tenants=tuple(f"tenant-{index}" for index in range(tenants)),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"fanout-image": ImageSpec.from_program(image)},
        attachments=tuple(
            AttachmentSpec(
                image="fanout-image", hook=FC_HOOK_FANOUT,
                tenant=f"tenant-{tenant_index}",
                name=f"fc-{tenant_index}-{{i}}",
                count=instances_per_tenant,
            )
            for tenant_index in range(tenants)
        ),
    )


def wasm_checksum_spec() -> DeploymentSpec:
    """One mini-Wasm fletcher32 checksummer on the fan-out hook."""
    from repro.runtimes.sources import WASM_FLETCHER32

    return DeploymentSpec(
        name="wasm-checksum",
        tenants=("tenant-a",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"checksum": ImageSpec.from_wasm(WASM_FLETCHER32,
                                                name="checksum")},
        attachments=(
            AttachmentSpec(image="checksum", hook=FC_HOOK_FANOUT,
                           tenant="tenant-a", name="checksum"),
        ),
    )


def script_checksum_spec() -> DeploymentSpec:
    """One script fletcher32 checksummer on the fan-out hook."""
    from repro.runtimes.sources import SCRIPT_FLETCHER32_PY

    return DeploymentSpec(
        name="script-checksum",
        tenants=("tenant-a",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"checksum": ImageSpec.from_script(SCRIPT_FLETCHER32_PY,
                                                  name="checksum")},
        attachments=(
            AttachmentSpec(image="checksum", hook=FC_HOOK_FANOUT,
                           tenant="tenant-a", name="checksum"),
        ),
    )


def runtime_matrix_spec() -> DeploymentSpec:
    """One device hosting all three runtimes side by side.

    Three tenants on one SYNC hook: an rBPF thread counter, a mini-Wasm
    fletcher32 and a script fletcher32 — a single firing exercises every
    registered runtime, which is what the fault-isolation and OTA suites
    lean on.
    """
    from repro.runtimes.sources import SCRIPT_FLETCHER32_PY, WASM_FLETCHER32
    from repro.workloads import thread_counter_program

    return DeploymentSpec(
        name="runtime-matrix",
        tenants=("tenant-rbpf", "tenant-wasm", "tenant-script"),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={
            "counter-rbpf": ImageSpec.from_program(
                thread_counter_program(), name="counter-rbpf"),
            "checksum-wasm": ImageSpec.from_wasm(
                WASM_FLETCHER32, name="checksum-wasm"),
            "checksum-script": ImageSpec.from_script(
                SCRIPT_FLETCHER32_PY, name="checksum-script"),
        },
        attachments=(
            AttachmentSpec(image="counter-rbpf", hook=FC_HOOK_FANOUT,
                           tenant="tenant-rbpf", name="counter-rbpf"),
            AttachmentSpec(image="checksum-wasm", hook=FC_HOOK_FANOUT,
                           tenant="tenant-wasm", name="checksum-wasm"),
            AttachmentSpec(image="checksum-script", hook=FC_HOOK_FANOUT,
                           tenant="tenant-script", name="checksum-script"),
        ),
    )


#: Name -> zero-argument spec factory, for the CLI and tests.
BUILTIN_SPECS: dict[str, Callable[[], DeploymentSpec]] = {
    "multi-tenant": multi_tenant_spec,
    "fanout": fanout_spec,
    "wasm-checksum": wasm_checksum_spec,
    "script-checksum": script_checksum_spec,
    "runtime-matrix": runtime_matrix_spec,
}


def builtin_spec(name: str) -> DeploymentSpec:
    try:
        return BUILTIN_SPECS[name]()
    except KeyError:
        raise SpecError(
            f"unknown builtin spec {name!r}; "
            f"choose from {sorted(BUILTIN_SPECS)}"
        ) from None
