"""Attach-path regression guard for the shared program-image cache.

The hosting engine's attach step verifies the image and (for the JIT
build) transpiles it.  Since PR 2 both artifacts are shared through the
process-wide :data:`~repro.vm.imagecache.IMAGE_CACHE`, keyed by content
hash: attaching the N-th instance of an already-seen image must cost
dictionary lookups, not a re-verify and a re-compile.  This guard
measures first-attach (cold cache) versus cached-attach wall time per
engine and **fails** if a cached JIT attach is not at least 5x faster
than a cold one — the whole point of the cache is to amortize the §11
install work across instances.

The virtual clock is asserted to be cache-*oblivious*: a cached attach
charges exactly the same modelled cycles as a cold one (the cache is a
host wall-clock optimization, never a device-semantics change).

Each attach uses a fresh :class:`Program` object decoded from the same
bytes — the SUIT-deployment shape — so the guard exercises the content
hash, not Python object identity.
"""

from __future__ import annotations

import time

from repro.core import HostingEngine
from repro.rtos import Kernel, nrf52840
from repro.vm import Program
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads.fletcher32 import fletcher32_program

ENGINES = ("femto-containers", "certfc", "jit")

#: The cached-vs-cold bar for the JIT engine, where the cache removes
#: the dominant transpile+compile cost.  (Interpreter engines only skip
#: the re-verify, so they are held only to "cached is never slower".)
JIT_SPEEDUP_BAR = 5.0

_TRIALS = 7


def _image_bytes() -> bytes:
    return fletcher32_program().to_bytes()


def _attach_once(implementation: str, raw: bytes) -> tuple[float, int]:
    """One load+attach of a fresh engine/program; returns (secs, cycles)."""
    engine = HostingEngine(Kernel(nrf52840()), implementation=implementation)
    program = Program.from_bytes(raw, name="fletcher32")
    container = engine.load(program)
    before = engine.kernel.clock.cycles
    start = time.perf_counter()
    engine.attach(container, "fc.hook.timer")
    elapsed = time.perf_counter() - start
    return elapsed, engine.kernel.clock.cycles - before


def _measure(implementation: str, raw: bytes) -> dict:
    cold_times, cold_cycles = [], []
    for _ in range(_TRIALS):
        IMAGE_CACHE.clear()
        secs, cycles = _attach_once(implementation, raw)
        cold_times.append(secs)
        cold_cycles.append(cycles)

    IMAGE_CACHE.clear()
    _attach_once(implementation, raw)  # warm the cache once
    warm_times, warm_cycles = [], []
    for _ in range(_TRIALS):
        secs, cycles = _attach_once(implementation, raw)
        warm_times.append(secs)
        warm_cycles.append(cycles)

    # The modelled install cost must be identical cold vs cached — the
    # cache must never leak into the virtual clock.
    assert set(cold_cycles) == set(warm_cycles), (implementation, cold_cycles,
                                                  warm_cycles)
    cold, cached = min(cold_times), min(warm_times)
    return {
        "cold_us": round(cold * 1e6, 1),
        "cached_us": round(cached * 1e6, 1),
        "speedup": round(cold / cached, 2),
        "attach_cycles": cold_cycles[0],
    }


def test_attach_guard():
    raw = _image_bytes()
    results = {name: _measure(name, raw) for name in ENGINES}
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    # The cache must amortize the JIT's install work across instances.
    assert results["jit"]["speedup"] >= JIT_SPEEDUP_BAR, results["jit"]
    # Interpreter engines skip only the re-verify; cached attach must at
    # minimum never be slower than cold (generous noise margin).
    for name in ("femto-containers", "certfc"):
        cached = results[name]["cached_us"]
        cold = results[name]["cold_us"]
        assert cached <= cold * 1.5, (name, results[name])
