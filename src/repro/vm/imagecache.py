"""Process-wide program-image cache: share verify/JIT work across instances.

The paper charges verification and §11 transpilation once per *attach*,
and that stays true for the **virtual clock** — the hosting engine keeps
charging the full per-slot verify cost (plus the per-slot JIT install
cost) on every attach, exactly as the evaluation models it.  What this
module changes is the **wall-clock** story of the simulator itself: under
the north-star workload, many tenants attach many instances of the *same*
application image, and rBPF / TinyContainer both treat that image as the
immutable unit of deployment.  Immutability is what makes the expensive
install-time artifacts shareable:

* the **pre-decoded slot table** (:mod:`repro.vm.predecode`) depends only
  on the image bytes;
* a **verification result** depends only on the image bytes and the
  :class:`~repro.vm.verifier.VerifierConfig` it ran under (different
  contracts can grant different helper sets, so the config is part of the
  cache key — a container must never inherit a more permissive verdict
  than its own contract allows);
* the JIT's compiled ``_fc_main`` **template** depends only on the image
  bytes and the ``total_limit`` budget baked into the generated code.
  The template itself is pure: all per-run state (registers, memory
  access list, stats, helper trampoline, branch budget) is passed in as
  arguments, so one compiled function object can serve every container
  instance — and every hosting engine — on the board.

Keys are content hashes (:attr:`~repro.vm.program.Program.image_hash`),
so there is nothing to invalidate on hot replace: a new program version
hashes to a new key, and stale images simply age out of the bounded
memos (see :mod:`repro.memo` for the rule every share keeps).  ``clear``
exists for tooling and benchmarks that need a cold cache on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.memo import Memo
from repro.vm.predecode import Decoded, predecode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.program import Program
    from repro.vm.verifier import VerificationReport, VerifierConfig


@dataclass
class CompiledTemplate:
    """One image's shared JIT artifact (see :mod:`repro.vm.jit`).

    ``entry`` is the compiled ``_fc_main`` function; it closes over
    nothing per-instance and may be shared freely.  ``source`` is kept
    for introspection (``CompiledProgram.jit_source``) and the install
    cost model keys on ``install_instruction_count``.
    """

    source: str
    entry: Callable
    install_instruction_count: int
    #: Template line -> pc of the slow-path load or store on it, so a
    #: memory fault raised there names its instruction.
    slow_pcs: dict[int, int]


class ImageCache:
    """The three per-image install artifacts, each a bounded memo keyed
    by content hash; ``hits`` and ``misses`` count all three."""

    def __init__(self, max_entries: int = 256) -> None:
        self._decoded = Memo(max_entries)
        self._reports = Memo(max_entries)
        self._templates = Memo(max_entries)

    @property
    def hits(self) -> int:
        return self._decoded.hits + self._reports.hits + self._templates.hits

    @property
    def misses(self) -> int:
        return (self._decoded.misses + self._reports.misses
                + self._templates.misses)

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
        self._decoded.clear()
        self._reports.clear()
        self._templates.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "decoded_entries": len(self._decoded),
            "report_entries": len(self._reports),
            "template_entries": len(self._templates),
        }


#: The process-wide cache: one per board-simulating process, shared by
#: every hosting engine (images are content-addressed, so sharing across
#: engines is safe by construction).
IMAGE_CACHE = ImageCache()
