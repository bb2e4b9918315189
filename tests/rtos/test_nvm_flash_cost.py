"""Every flash path of the NVM journal costs the sum of its steps.

One table row per path a record can take: a healthy write, a redundant
write, a tear in the shadow phase, a tear in the commit phase, a write
into a worn-out primary region, and the repair a read makes from an
intact shadow.  For each row, on every board, the clock advances by
exactly the per-step sum of the board's flash constants (CRC, page
erases, byte programs, read-back, shadow retire) and every wear and
corruption counter moves by exactly the steps taken.  How the store
groups its clock charges is its own business; what a path costs is not.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.rtos import Kernel
from repro.rtos.board import all_boards
from repro.rtos.nvm import NVM_FRAME_HEADER_BYTES, TornWrite

KEY = "suit/slot/app"
OLD = b"o" * 40

#: Counters every row compares, before and after the measured step.
COUNTERS = ("writes", "erases", "reads", "bytes_written", "torn",
            "bitflips", "repairs", "lost", "worn_writes")


def _healthy(nvm, value):
    nvm.write(KEY, value)


def _redundant(nvm, value):
    nvm.write(KEY, value, redundant=True)


def _tear(phase):
    def prepare(nvm, value):
        nvm.write(KEY, OLD)
        nvm.tear_next_write(phase=phase)

    def act(nvm, value):
        with pytest.raises(TornWrite):
            nvm.write(KEY, value)
    return prepare, act


def _wear(nvm, value):
    # One write's erases per region is the budget: the first write
    # wears nothing, the second wears out the primary (the shadow
    # region draws from the spare pool and may erase twice as often).
    frame = len(value) + NVM_FRAME_HEADER_BYTES
    nvm.erase_budget = max(1, -(-frame // nvm.page_bytes))
    nvm.write(KEY, value)


def _torn_commit(nvm, value):
    nvm.write(KEY, OLD)
    nvm.tear_next_write(phase="commit")
    with pytest.raises(TornWrite):
        nvm.write(KEY, value)


def _repair(nvm, value):
    assert nvm.read(KEY) == value


def _nothing(nvm, value):
    pass


def expected(path: str, nvm, value: bytes) -> tuple[int, Counter, Counter]:
    """Cycles, counter deltas and region-erase deltas of one path, as
    the sum of its steps at the store's constants."""
    frame = len(value) + NVM_FRAME_HEADER_BYTES
    pages = max(1, -(-frame // nvm.page_bytes))
    erase, write = nvm.erase_cycles_per_page, nvm.write_cycles_per_byte
    read, crc = nvm.read_cycles_per_byte, nvm.crc_cycles_per_byte
    program = pages * erase + frame * write
    torn = max(1, frame // 2)
    crc_cycles = len(value) * crc
    if path == "healthy":
        return (crc_cycles + 2 * program + frame * read + erase,
                Counter(writes=1, erases=2 * pages + 1,
                        bytes_written=2 * frame),
                Counter({("shadow", KEY): pages, ("primary", KEY): pages}))
    if path in ("redundant", "worn primary"):
        counters = Counter(writes=1, erases=2 * pages,
                           bytes_written=2 * frame)
        if path == "worn primary":
            counters["worn_writes"] = 1
        return (crc_cycles + 2 * program + frame * read, counters,
                Counter({("shadow", KEY): pages, ("primary", KEY): pages}))
    if path == "torn shadow":
        return (crc_cycles + pages * erase + torn * write,
                Counter(erases=pages, bytes_written=torn, torn=1),
                Counter({("shadow", KEY): pages}))
    if path == "torn commit":
        return (crc_cycles + program + pages * erase + torn * write,
                Counter(erases=2 * pages, bytes_written=frame + torn,
                        torn=1),
                Counter({("shadow", KEY): pages, ("primary", KEY): pages}))
    assert path == "repair on read"
    return (frame * read + program + frame * read + erase,
            Counter(reads=1, repairs=1, erases=pages + 1,
                    bytes_written=frame),
            Counter({("primary", KEY): pages}))


#: path -> (set-up outside the measurement, the measured step).
PATHS = {
    "healthy": (_nothing, _healthy),
    "redundant": (_nothing, _redundant),
    "torn shadow": _tear("shadow"),
    "torn commit": _tear("commit"),
    "worn primary": (_wear, _healthy),
    "repair on read": (_torn_commit, _repair),
}


def _counters(nvm) -> Counter:
    return Counter({name: getattr(nvm, name) for name in COUNTERS})


@pytest.mark.parametrize("size", [24, 5000], ids=["one-page", "two-page"])
@pytest.mark.parametrize("board", all_boards(), ids=lambda b: b.name)
@pytest.mark.parametrize("path", PATHS)
def test_path_costs_the_sum_of_its_steps(path, board, size):
    kernel = Kernel(board)
    nvm = board.nvm(kernel)
    value = bytes(range(256)) * (size // 256) + b"v" * (size % 256)
    prepare, act = PATHS[path]
    prepare(nvm, value)
    cycles_before = kernel.clock.cycles
    counters_before = _counters(nvm)
    regions_before = Counter(nvm._region_erases)

    act(nvm, value)

    cycles, counters, regions = expected(path, nvm, value)
    assert kernel.clock.cycles - cycles_before == cycles
    delta = _counters(nvm)
    delta.subtract(counters_before)
    assert +delta == counters
    region_delta = Counter(nvm._region_erases)
    region_delta.subtract(regions_before)
    assert +region_delta == regions


def test_the_paths_leave_the_promised_records():
    """The table's set-ups reach the states their names promise."""
    kernel = Kernel()
    nvm = kernel.board.nvm(kernel)
    _wear(nvm, b"new")
    nvm.write(KEY, b"new")
    assert ("primary", KEY) in nvm._worn
    assert ("shadow", KEY) not in nvm._worn
    assert nvm.read(KEY) == b"new"  # served from the kept shadow
