"""Process-wide program-image cache: one instance prototype per image.

The virtual clock pays verification and §11 transpilation on every
attach, as the paper's evaluation models it.  The *host* shares the
work: rBPF and TinyContainer treat the image as the immutable unit of
deployment, and after the attach step an instance is only its
registers, its stack and some housekeeping (624 B, §10.3).  So an attach
looks up one :class:`InstancePrototype` per (image, runtime, engine
implementation, :class:`~repro.vm.verifier.VerifierConfig`,
:class:`~repro.vm.interpreter.VMConfig`) in :data:`IMAGE_CACHE`, and the
container's first use clones the instance from it.

A miss derives the prototype from scratch: the pre-flight check, the
pre-decoded slot table (:mod:`repro.vm.predecode`) and, for the JIT, the
compiled ``_fc_main`` template, each built once.  The
``VerifierConfig`` is part of the key because contracts grant different
helper sets: a container never inherits a more permissive verdict than
its own contract allows, and a rejection stores nothing.  The template
is pure — all per-run state (registers, memory access list, stats,
helper trampoline, branch budget) is passed in as arguments — so one
compiled function object serves every instance of the image on every
engine.  An image built under a second key is built again; nothing
below the prototype is memoized.

Keys are content hashes, so a hot replace has nothing to invalidate:
stale images age out of the bounded memo (:mod:`repro.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.memo import Memo
from repro.vm.memory import MemoryRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.interpreter import VMConfig
    from repro.vm.verifier import VerifierConfig


@dataclass
class CompiledTemplate:
    """One image's shared JIT artifact (see :mod:`repro.vm.jit`).

    ``entry`` is the compiled ``_fc_main`` function; it closes over
    nothing per-instance and may be shared freely.  ``source`` is kept
    for introspection (``CompiledProgram.jit_source``).
    """

    source: str
    entry: Callable
    #: Template line -> pc of the slow-path load or store on it, so a
    #: memory fault raised there names its instruction.
    slow_pcs: dict[int, int]


@dataclass(frozen=True, slots=True)
class InstancePrototype:
    """What every instance of one image under one set of limits shares.

    Never mutated: ``rodata`` is read-only over immutable bytes, and
    ``data`` is copied into each instance's own region.
    """

    #: What the engine executes: the JIT template, the interpreter's
    #: decoded slot table, or a runtime's validated code.
    code: object
    #: Slots the install step transpiles (0 when nothing is transpiled).
    install_instruction_count: int = 0
    #: The image's ``.rodata``: one read-only region every instance maps.
    rodata: MemoryRegion | None = None
    #: The image's initial ``.data`` bytes, copied into every instance.
    data: bytes = b""
    #: The zero template a run resets the instance's stack from.
    stack_zeros: bytes = b""
    #: ``(start, end, name)`` of every region an instance maps besides
    #: its grants (stack, ``.rodata``, ``.data``), in the order the
    #: instance adds them: an attach checks its grants against these
    #: before any instance exists.
    layout: tuple[tuple[int, int, str], ...] = ()


#: The process-wide cache: one per board-simulating process, shared by
#: every hosting engine (images are content-addressed, so sharing across
#: engines is safe by construction).
IMAGE_CACHE = Memo(256)


def lookup_prototype(
    image,
    implementation: str,
    verifier_config: "VerifierConfig | None",
    vm_config: "VMConfig",
    derive: Callable[[], InstancePrototype],
) -> InstancePrototype:
    """``image``'s shared prototype; ``derive`` (which verifies and may
    raise) runs only on a miss.  A rejected image stores nothing, and a
    narrower contract is a new key: no attach inherits a more permissive
    verdict."""
    return IMAGE_CACHE.get_or_derive(
        (image.image_hash, image.runtime, implementation, verifier_config,
         vm_config), derive)
