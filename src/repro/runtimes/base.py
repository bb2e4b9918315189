"""The deployable :class:`ContainerRuntime` protocol and its registry.

A container runtime is the one cost model of its format.  It decodes a
payload into an image, builds the image's VM, and prices both ends of a
container's life: ``startup_cycles`` (the cold start before the first
run) and ``execution_cycles`` (the
platform-independent counts of one run translated into modelled
cycles).  The hosting engine and the deploy plane dispatch through it,
and the paper's Tables 1 and 2 are measured through the same objects
(:mod:`repro.runtimes.comparison`), so a profile edit reaches both.

The registry (:func:`container_runtime`) maps the ``runtime`` tag carried
by :class:`~repro.deploy.spec.ImageSpec` and SUIT manifests onto the
implementation, so the whole plan/OTA/publish stack moves rBPF, Wasm and
script containers through one code path.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Protocol

from repro.rtos.board import Board

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import GrantedPolicy
    from repro.vm.helpers import HelperRegistry
    from repro.vm.interpreter import ExecutionStats, VMConfig
    from repro.vm.memory import AccessList
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

    def build_vm(self, image: object, implementation: str,
                 helpers: "HelperRegistry | None", vm_config: "VMConfig",
                 access_list: "AccessList",
                 verifier_config: "VerifierConfig") -> object:
        """Verify ``image`` and construct its VM, charging nothing.

        ``implementation`` picks the engine build for formats that have
        several (rBPF); the others have one and ignore it.
        """
        ...

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               granted: "GrantedPolicy", vm_config: "VMConfig",
               access_list: "AccessList",
               verifier_config: "VerifierConfig") -> object:
        """Verify the container's image and build its VM (``build_vm``).

        Charges the runtime's modelled verify/startup cost to the
        engine's virtual clock and returns a VM exposing the engine's
        duck interface: ``run(context=..., context_perms=...)``,
        ``config``, ``access_list``, ``ram_bytes``.  Any exception is a
        pre-flight rejection (the engine wraps it in ``AttachError``).
        """
        ...

    def execution_cycles(self, board: Board, stats: "ExecutionStats",
                         implementation: str,
                         helpers: "HelperRegistry | None" = None) -> int:
        """Translate one run's platform-independent counts into cycles."""
        ...


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
