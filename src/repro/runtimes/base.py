"""The deployable :class:`ContainerRuntime` protocol and its registry.

A container runtime is the one cost model of its format.  It decodes a
payload into an image, builds the image's VM, and prices both ends of a
container's life: ``startup_cycles`` (the cold start before the first
run) and ``cost_profile`` (the :class:`~repro.rtos.board.CostProfile`
that translates the platform-independent counts of one run into
modelled cycles).  The hosting engine and the deploy plane dispatch
through it, and the paper's Tables 1 and 2 are measured through the
same objects (:mod:`repro.runtimes.comparison`), so a profile edit
reaches both.

The two interpreted formats, Wasm and script, share one adapter here:
:class:`InterpretedImage`, :class:`InterpretedRuntime` and
:class:`InterpretedVM`, and both interpreters count every run through
one :class:`RunMeter`.  A format supplies only its decode step, its
startup formula, its prototype, its VM's ``execute`` and its error
table.

The registry (:func:`container_runtime`) maps the ``runtime`` tag carried
by :class:`~repro.deploy.spec.ImageSpec` and SUIT manifests onto the
implementation, so the whole plan/OTA/publish stack moves rBPF, Wasm and
script containers through one code path.
"""

from __future__ import annotations

import hashlib
import math
import struct
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol

from repro.rtos.board import Board, CostProfile
from repro.vm.errors import (
    BranchLimitFault,
    IllegalInstructionFault,
    VMFault,
)
from repro.vm.imagecache import lookup_prototype
from repro.vm.interpreter import ExecutionResult, ExecutionStats
from repro.vm.memory import AccessList, check_disjoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import MemoryGrant
    from repro.vm.helpers import HelperRegistry
    from repro.vm.interpreter import VMConfig
    from repro.vm.imagecache import InstancePrototype
    from repro.vm.memory import MemoryRegion
    from repro.vm.verifier import VerifierConfig


#: The canonical runtime tags.  ``rbpf`` is the default everywhere a tag
#: is absent — old specs, manifests and NVM records predate the tag and
#: were all rBPF by construction.
RUNTIME_RBPF = "rbpf"
RUNTIME_WASM = "wasm"
RUNTIME_SCRIPT = "script"


class ContainerRuntime(Protocol):
    """One deployable container format behind the hosting engine.

    Implementations exist for rBPF (:mod:`repro.runtimes.rbpf` — the
    paper's native format, kept bit-identical to the pre-registry
    engine), mini-Wasm (:mod:`repro.runtimes.wasm.container`) and the
    script interpreter (:mod:`repro.runtimes.script.container`).  Every
    layer above the engine — spec instantiation, SUIT activation, the
    planner's content addressing — dispatches through this protocol
    instead of assuming :class:`~repro.vm.program.Program`.
    """

    #: Registry tag (``"rbpf"``, ``"wasm"``, ``"script"``, ...).
    name: str
    #: Flash footprint of the runtime engine itself (Table 1).
    rom_bytes: int

    def decode(self, payload: bytes, *, name: str = "app",
               rodata: bytes = b"", data: bytes = b"") -> object:
        """Decode a SUIT payload into an image object.

        The image duck-types the ``Program`` surface the engine and
        planner touch: ``name``, ``runtime``, ``image_hash``,
        ``to_bytes()``, ``code_size``, ``image_size``, ``rodata``,
        ``data``.  Malformed payloads raise (pre-flight refusal).
        """
        ...

    def image_hash(self, text: bytes, rodata: bytes = b"",
                   data: bytes = b"") -> str:
        """Content hash of an encoded image under this runtime.

        Non-rBPF runtimes tag the hash (:func:`tagged_image_hash`), so
        the same bytes deployed under two runtimes are distinct images;
        rBPF keeps the historical untagged hash so existing content
        addressing (image cache, planner convergence) is unchanged.
        """
        ...

    def startup_cycles(self, image: object, board: Board) -> int:
        """Cold-start cost of ``image`` on ``board`` (Table 2's column).

        Transcoding and parsing runtimes charge exactly this at attach;
        rBPF preprocesses nothing, so it is the board's VM setup, and
        its attach charges verification and JIT install instead.
        """
        ...

    def prototype(self, image: object, implementation: str,
                  verifier_config: "VerifierConfig",
                  vm_config: "VMConfig") -> "InstancePrototype":
        """Verify ``image`` and derive what all its instances share,
        charging nothing; raising is a pre-flight rejection.  Runs once
        per key of the process-wide prototype memo, so the result must be
        immutable and depend on the arguments alone.  ``implementation``
        picks the engine build of formats that have several (rBPF)."""
        ...

    def instantiate(self, prototype: "InstancePrototype", image: object,
                    implementation: str, helpers: "HelperRegistry | None",
                    vm_config: "VMConfig",
                    regions: "list[MemoryRegion]") -> object:
        """A fresh VM cloned from ``prototype``: only per-instance state,
        under one access list over its own and the grant ``regions``.

        The VM exposes the engine's duck interface: ``run(context=...,
        context_perms=...)`` (a fault carries the run's counts as
        ``stats``), ``config``, ``access_list``, ``ram_bytes`` and a
        settable ``services``.  An attached container's clone is built
        at its first use, so this charges nothing and refuses nothing:
        every rejection belongs to :meth:`attach`."""
        ...

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               verifier_config: "VerifierConfig", vm_config: "VMConfig",
               grants: "tuple[MemoryGrant, ...]") -> "InstancePrototype":
        """Charge the modelled verify/startup cost to the engine's clock
        and return the container's prototype from :func:`preflight`.

        Any exception is a pre-flight rejection (the engine wraps it in
        ``AttachError``).  The engine clones the instance from the
        returned prototype at the container's first use.
        """
        ...

    def cost_profile(self, board: Board, implementation: str) -> CostProfile:
        """The prices of one run on ``board``: one shared, immutable
        profile per (board model, implementation), holding no helper
        registry.

        The engine takes it once, into the run facts it gives the
        container at attach, and prices every run with it and its own
        live helper registry.
        """
        ...


def _prototype(runtime: ContainerRuntime, image: object,
               implementation: str, verifier_config: "VerifierConfig",
               vm_config: "VMConfig") -> "InstancePrototype":
    """One lookup of ``image``'s prototype in the image cache
    (``runtime.prototype`` derives it on a miss)."""
    return lookup_prototype(
        image, implementation, verifier_config, vm_config,
        partial(runtime.prototype, image, implementation, verifier_config,
                vm_config))


def preflight(runtime: ContainerRuntime, image: object, implementation: str,
              verifier_config: "VerifierConfig", vm_config: "VMConfig",
              grants: "tuple[MemoryGrant, ...]") -> "InstancePrototype":
    """The host side of an attach's pre-flight: ``image``'s prototype
    (verified on a miss) and the region layout, checked before any region
    exists.  The grants may overlap neither each other nor the instance's
    own regions (``prototype.layout``), exactly as the instance's access
    list would refuse them; the own regions sit at fixed bases far apart.
    """
    prototype = _prototype(runtime, image, implementation, verifier_config,
                           vm_config)
    if grants:
        spans = [(grant.start, grant.start + grant.size, grant.name)
                 for grant in grants]
        spans.extend(prototype.layout)
        spans.sort(key=itemgetter(0))  # stable, as the access list sorts
        check_disjoint(spans)
    return prototype


def build_vm(runtime: ContainerRuntime, image: object, implementation: str,
             helpers: "HelperRegistry | None", vm_config: "VMConfig",
             verifier_config: "VerifierConfig",
             regions: "list[MemoryRegion] | None" = None) -> object:
    """A standalone VM for ``image``: one prototype lookup, then the same
    ``runtime.instantiate`` that clones an attached container's VM."""
    return runtime.instantiate(
        _prototype(runtime, image, implementation, verifier_config,
                   vm_config),
        image, implementation, helpers, vm_config,
        [] if regions is None else regions)


def tagged_image_hash(runtime: str, text: bytes, rodata: bytes = b"",
                      data: bytes = b"") -> str:
    """Runtime-tagged content hash (same shape as ``Program.image_hash``).

    The tag is hashed in front of the sections, so identical bytes under
    two runtimes can never collide into one cache/planner identity.
    """
    digest = hashlib.sha256()
    digest.update(runtime.encode("ascii") + b"\x00")
    digest.update(text)
    digest.update(struct.pack("<II", len(rodata), len(data)))
    digest.update(rodata)
    digest.update(data)
    return digest.hexdigest()


class InterpretedImage:
    """One decoded image, presenting the ``Program`` surface.

    The payload is what a SUIT manifest ships, what content addressing
    hashes and what both size columns count; ``code`` is the format's
    decoded form of it.  Decoding is the format's pre-flight check, so a
    malformed payload never becomes an image.
    """

    #: Constants live in the code, state in the interpreter's memory.
    rodata = b""
    data = b""

    def __init__(self, runtime: str, payload: bytes, code: object,
                 name: str = "app"):
        self.runtime = runtime
        self._payload = payload
        self.code = code
        self.name = name
        self._hash: str | None = None

    @property
    def code_size(self) -> int:
        return len(self._payload)

    @property
    def image_size(self) -> int:
        return len(self._payload)

    @property
    def image_hash(self) -> str:
        if self._hash is None:
            self._hash = tagged_image_hash(self.runtime, self._payload)
        return self._hash


class RunMeter:
    """One run's counts and its N_b budget, for both interpreters.

    ``count`` records one executed operation of ``cost_class``; the
    run's (N_b + 1)-th ``control`` count raises
    :class:`~repro.vm.errors.BranchLimitFault`, the interpreted analogue
    of rBPF's taken-branch budget.  ``class_counts`` starts with
    ``classes`` at zero, in their order, so two runs with equal counts
    report equal dicts in one order.  A meter built without a
    ``branch_limit`` has no budget.
    """

    __slots__ = ("executed", "class_counts", "branch_limit")

    def __init__(self, classes: Iterable[str] = (),
                 branch_limit: float = math.inf):
        self.executed = 0
        self.class_counts: dict[str, int] = dict.fromkeys(classes, 0)
        self.branch_limit = branch_limit

    def count(self, cost_class: str) -> None:
        self.executed += 1
        counts = self.class_counts
        counts[cost_class] = counts.get(cost_class, 0) + 1
        if cost_class == "control" and counts["control"] > self.branch_limit:
            raise BranchLimitFault(
                f"control budget N_b={self.branch_limit} exhausted")


class InterpretedVM:
    """Engine-facing VM of one instance, over its format's prototype.

    A format's ``execute(payload, meter)`` runs the image on the
    context's bytes, counting through ``meter``, and returns the run's
    value; :meth:`run` gives it a fresh meter per run and turns the
    format's errors into contained faults.
    """

    #: The format's own error types: every one a contained fault.
    ERRORS: "tuple[type[Exception], ...]" = ()
    #: ``(message substring, fault type)`` pairs: the first substring in
    #: an error's message picks its fault; no match is an illegal
    #: instruction.
    FAULTS: "tuple[tuple[str, type[VMFault]], ...]" = ()

    def __init__(self, image: InterpretedImage, config: "VMConfig",
                 access_list: AccessList, prototype: "InstancePrototype",
                 profile: object, classes: tuple[str, ...]):
        self.image = image
        self.config = config
        self.access_list = access_list
        self.prototype = prototype
        self.profile = profile
        #: The profile's count classes, every run's count keys.
        self.classes = classes

    def run(self, context: bytes | None = None,
            context_perms=None) -> ExecutionResult:
        """One contained run under the granted N_b; a fault carries the
        counts of the run it aborted, in the engine's form."""
        meter = RunMeter(self.classes, self.config.branch_limit)
        try:
            try:
                value = self.execute(bytes(context) if context else b"",
                                     meter)
            except self.ERRORS as error:
                raise self.fault(str(error)) from error
        except VMFault as fault:
            fault.stats = _execution_stats(meter)
            raise
        return ExecutionResult(value=value, stats=_execution_stats(meter))

    def fault(self, message: str) -> VMFault:
        """The contained fault of an error with ``message``."""
        for needle, fault_type in self.FAULTS:
            if needle in message:
                return fault_type(message)
        return IllegalInstructionFault(message)


def _execution_stats(meter: RunMeter) -> ExecutionStats:
    """A run's counts in the engine's platform-independent form."""
    counts = meter.class_counts
    return ExecutionStats(executed=meter.executed,
                          branches_taken=counts.get("control", 0),
                          kind_counts=counts)


class InterpretedRuntime:
    """Deploys one interpreted format through its §6 profile.

    A subclass names its ``name`` tag and its ``vm`` class, and defines
    ``decode_code(payload)`` (the decoded code; raises if malformed),
    ``startup_cycles`` and ``prototype``.
    """

    name: str
    vm: type[InterpretedVM]

    def __init__(self, profile: object, rom_bytes: int,
                 op_cycles: Mapping[str, int]):
        self.profile = profile
        self.rom_bytes = rom_bytes
        self.classes = tuple(op_cycles)
        # Per-class prices only: no dispatch term, no helper calls.
        self._cost = CostProfile(dispatch=0, op_cycles=op_cycles)

    def decode(self, payload: bytes, *, name: str = "app",
               rodata: bytes = b"", data: bytes = b"") -> InterpretedImage:
        if rodata or data:
            raise ValueError(
                f"{self.name} images carry no rodata/data sections")
        payload = bytes(payload)
        return InterpretedImage(self.name, payload,
                                self.decode_code(payload), name)

    def image_hash(self, text: bytes, rodata: bytes = b"",
                   data: bytes = b"") -> str:
        return tagged_image_hash(self.name, text, rodata, data)

    def instantiate(self, prototype: "InstancePrototype",
                    image: InterpretedImage, implementation: str,
                    helpers: "HelperRegistry | None", vm_config: "VMConfig",
                    regions: "list[MemoryRegion]") -> InterpretedVM:
        return self.vm(image, vm_config, AccessList(regions), prototype,
                       self.profile, self.classes)

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               verifier_config: "VerifierConfig", vm_config: "VMConfig",
               grants: "tuple[MemoryGrant, ...]") -> "InstancePrototype":
        image = container.program
        # The cold start a device pays to (re)load the image, charged at
        # attach like rBPF's verify and JIT install.
        engine.kernel.clock.charge(self.startup_cycles(image, engine.board))
        return preflight(self, image, engine.implementation,
                         verifier_config, vm_config, grants)

    def cost_profile(self, board: "Board",
                     implementation: str) -> CostProfile:
        return self._cost


#: Lazily imported built-in implementations (import cycles: the engine
#: imports this module, and the rBPF runtime imports engine-adjacent
#: modules, so construction must be deferred to first lookup).
_BUILTIN_RUNTIMES = {
    RUNTIME_RBPF: ("repro.runtimes.rbpf", "RbpfContainerRuntime"),
    RUNTIME_WASM: ("repro.runtimes.wasm.container", "WasmContainerRuntime"),
    RUNTIME_SCRIPT: ("repro.runtimes.script.container",
                     "ScriptContainerRuntime"),
}

_REGISTRY: dict[str, ContainerRuntime] = {}


def register_runtime(runtime: ContainerRuntime) -> ContainerRuntime:
    """Register (or override) a runtime under its ``name`` tag."""
    _REGISTRY[runtime.name] = runtime
    return runtime


def container_runtime(name: str) -> ContainerRuntime:
    """Resolve a runtime tag to its implementation (KeyError-safe)."""
    runtime = _REGISTRY.get(name)
    if runtime is not None:
        return runtime
    builtin = _BUILTIN_RUNTIMES.get(name)
    if builtin is None:
        raise UnknownRuntimeError(
            f"unknown container runtime {name!r}; "
            f"choose from {sorted(runtime_names())}"
        )
    module_name, class_name = builtin
    module = __import__(module_name, fromlist=[class_name])
    return register_runtime(getattr(module, class_name)())


def runtime_names() -> set[str]:
    """All resolvable runtime tags (built-in plus registered)."""
    return set(_BUILTIN_RUNTIMES) | set(_REGISTRY)


class UnknownRuntimeError(Exception):
    """The runtime tag does not resolve to a registered implementation."""
