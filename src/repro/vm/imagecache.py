"""Process-wide program-image cache: one instance prototype per image.

The virtual clock pays verification and §11 transpilation on every
attach, as the paper's evaluation models it.  The *host* shares the
work: rBPF and TinyContainer treat the image as the immutable unit of
deployment, and after the attach step an instance is only its
registers, its stack and some housekeeping (624 B, §10.3).  So an attach
looks up one :class:`InstancePrototype` per (image, runtime, engine
implementation, :class:`~repro.vm.verifier.VerifierConfig`,
:class:`~repro.vm.interpreter.VMConfig`) and clones the instance from
it.  A prototype is derived on a miss from per-image artifacts, each a
memo of its own because its key is narrower:

* the **pre-decoded slot table** (:mod:`repro.vm.predecode`) depends only
  on the image bytes;
* a **verification result** depends only on the image bytes and the
  :class:`~repro.vm.verifier.VerifierConfig` it ran under (different
  contracts can grant different helper sets, so the config is part of the
  key — a container must never inherit a more permissive verdict than its
  own contract allows);
* the JIT's compiled ``_fc_main`` **template** depends only on the image
  bytes and the ``total_limit`` budget baked into the generated code.
  The template itself is pure: all per-run state (registers, memory
  access list, stats, helper trampoline, branch budget) is passed in as
  arguments, so one compiled function object can serve every container
  instance — and every hosting engine — on the board.

Keys are content hashes, so a hot replace has nothing to invalidate:
stale images age out of the bounded memos (:mod:`repro.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.memo import Memo
from repro.vm.memory import MemoryRegion
from repro.vm.predecode import Decoded, predecode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.interpreter import VMConfig
    from repro.vm.program import Program
    from repro.vm.verifier import VerificationReport, VerifierConfig


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


class ImageCache:
    """Instance prototypes and their per-image artifacts, each a bounded
    memo keyed by content hash; ``hits`` and ``misses`` count all four."""

    def __init__(self, max_entries: int = 256) -> None:
        self._prototypes = Memo(max_entries)
        self._decoded = Memo(max_entries)
        self._reports = Memo(max_entries)
        self._templates = Memo(max_entries)

    @property
    def hits(self) -> int:
        return (self._prototypes.hits + self._decoded.hits
                + self._reports.hits + self._templates.hits)

    @property
    def misses(self) -> int:
        return (self._prototypes.misses + self._decoded.misses
                + self._reports.misses + self._templates.misses)

    def prototype(
        self,
        image,
        implementation: str,
        verifier_config: "VerifierConfig | None",
        vm_config: "VMConfig",
        derive: Callable[[], InstancePrototype],
    ) -> InstancePrototype:
        """``image``'s shared prototype; ``derive`` (which verifies and
        may raise) runs only on a miss.  A rejected image stores nothing,
        and a narrower contract is a new key: no attach inherits a more
        permissive verdict."""
        return self._prototypes.get_or_derive(
            (image.image_hash, image.runtime, implementation,
             verifier_config, vm_config), derive)

    def decoded(self, program: "Program") -> list[Decoded]:
        """Pre-decoded slot table, computed once per image *content*."""
        return self._decoded.get_or_derive(
            program.image_hash, lambda: predecode(program.slots))

    def verify(
        self, program: "Program", config: "VerifierConfig | None" = None
    ) -> "VerificationReport":
        """Pre-flight check through the cache.

        The returned :class:`VerificationReport` is shared between all
        instances of the image and must be treated as immutable.  A
        rejected image re-raises its :class:`VerificationError` on every
        attempt.
        """
        # Lazy import: program.py imports this module at load time, and
        # verifier.py imports program.py — resolving verify() here keeps
        # the module graph acyclic.
        from repro.vm.verifier import VerifierConfig, verify

        if config is None:
            config = VerifierConfig()
        return self._reports.get_or_derive(
            (program.image_hash, config), lambda: verify(program, config))

    def template(
        self,
        program: "Program",
        total_limit: int | None,
        build: Callable[["Program", int | None], CompiledTemplate],
    ) -> CompiledTemplate:
        """Shared JIT template for one (image, total-budget) pair.

        ``build`` is only invoked on a miss.  Callers must have verified
        the image first (the generated code relies on the verifier's
        guarantees); :class:`~repro.vm.jit.CompiledProgram` enforces that
        ordering.
        """
        return self._templates.get_or_derive(
            (program.image_hash, total_limit),
            lambda: build(program, total_limit))

    def clear(self) -> None:
        self._prototypes.clear()
        self._decoded.clear()
        self._reports.clear()
        self._templates.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "prototype_entries": len(self._prototypes),
            "decoded_entries": len(self._decoded),
            "report_entries": len(self._reports),
            "template_entries": len(self._templates),
        }


#: The process-wide cache: one per board-simulating process, shared by
#: every hosting engine (images are content-addressed, so sharing across
#: engines is safe by construction).
IMAGE_CACHE = ImageCache()
