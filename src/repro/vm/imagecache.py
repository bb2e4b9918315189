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
hashes to a new key, and stale images simply age out of the bounded LRU.
``invalidate``/``clear`` exist for tooling and benchmarks that need a
cold cache on demand.

The cache is deliberately **not** part of the modelled device: it holds
host-side Python objects, never touches the virtual clock, and the
differential tests assert that executions through shared artifacts stay
bit-identical to cold-built ones.  The simulator is single-threaded per
process, so plain dicts suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.vm.predecode import Decoded, predecode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.program import Program
    from repro.vm.verifier import VerificationReport, VerifierConfig

_MISS = object()


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
    """Bounded LRU cache of per-image install artifacts, keyed by hash."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._decoded: dict[str, list[Decoded]] = {}
        self._reports: dict[tuple[str, "VerifierConfig"], "VerificationReport"] = {}
        self._templates: dict[tuple[str, int | None], CompiledTemplate] = {}
        self.hits = 0
        self.misses = 0

    # -- generic bounded-LRU plumbing --------------------------------------

    def _get(self, table: dict, key) -> Any:
        value = table.pop(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        table[key] = value  # reinsert: dict order doubles as LRU order
        self.hits += 1
        return value

    def _put(self, table: dict, key, value) -> None:
        table[key] = value
        while len(table) > self.max_entries:
            table.pop(next(iter(table)))

    # -- the three shared artifacts ----------------------------------------

    def decoded(self, program: "Program") -> list[Decoded]:
        """Pre-decoded slot table, computed once per image *content*."""
        key = program.image_hash
        value = self._get(self._decoded, key)
        if value is _MISS:
            value = predecode(program.slots)
            self._put(self._decoded, key, value)
        return value

    def verify(
        self, program: "Program", config: "VerifierConfig | None" = None
    ) -> "VerificationReport":
        """Pre-flight check through the cache.

        The returned :class:`VerificationReport` is shared between all
        instances of the image and must be treated as immutable.  Only
        successful verdicts are cached: a rejected image re-raises its
        :class:`VerificationError` on every attempt (rejections are cold
        paths and caching them would pin attacker-controlled keys).
        """
        # Lazy import: program.py imports this module at load time, and
        # verifier.py imports program.py — resolving verify() here keeps
        # the module graph acyclic.
        from repro.vm.verifier import VerifierConfig, verify

        if config is None:
            config = VerifierConfig()
        key = (program.image_hash, config)
        report = self._get(self._reports, key)
        if report is _MISS:
            report = verify(program, config)
            self._put(self._reports, key, report)
        return report

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
        key = (program.image_hash, total_limit)
        template = self._get(self._templates, key)
        if template is _MISS:
            template = build(program, total_limit)
            self._put(self._templates, key, template)
        return template

    # -- maintenance --------------------------------------------------------

    def invalidate(self, image_hash: str) -> None:
        """Drop every artifact derived from one image (tooling hook)."""
        self._decoded.pop(image_hash, None)
        for table in (self._reports, self._templates):
            for key in [k for k in table if k[0] == image_hash]:
                del table[key]

    def clear(self) -> None:
        self._decoded.clear()
        self._reports.clear()
        self._templates.clear()
        self.hits = 0
        self.misses = 0

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
