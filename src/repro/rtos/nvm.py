"""Persistent non-volatile memory (flash) model for one device.

The paper's SUIT update workflow (§6) is designed for hostile field
conditions: power can fail at any instant, and everything that matters
across a reboot — installed images, the anti-rollback sequence state, a
half-fetched payload — must live in flash, not RAM.  This module models
that flash as a small key/value blob store:

* an :class:`NvmStore` **survives reboot**: the kernel, its threads and
  every RAM structure are dropped by :meth:`~repro.rtos.kernel.Kernel
  .power_fail`, but the store object is owned by the *device*, not the
  kernel, and is re-bound to the fresh kernel on boot;
* every write charges modelled **erase + program cycles** on the bound
  kernel's virtual clock (flash pages must be erased before they are
  re-programmed), so crash-safe persistence has a measurable CPU/energy
  cost exactly like on real silicon;
* wear is observable: :attr:`NvmStore.erases`, :attr:`NvmStore.writes`
  and :attr:`NvmStore.bytes_written` count lifetime flash traffic, the
  quantity an OTA design must minimize.

Unlike the PR 6 model, writes are **not** assumed atomic and bits are
**not** assumed immortal — real nRF52-class flash guarantees neither.
Every record is stored as a CRC32-framed journal entry
(``magic | length | crc32 | payload``) and committed through a
**two-phase shadow scheme**:

1. program the new frame into the record's *shadow* region;
2. program it into the *primary* region;
3. read back and, for ordinary records, retire the shadow.

A power failure during phase 1 tears the shadow — the primary still
holds the *old* value.  A failure during phase 2 tears the primary —
:meth:`read` detects the bad CRC and repairs the primary from the
intact shadow.  Either way the store presents the old value or the new
value, never garbage.  Records written with ``redundant=True`` (the
anti-rollback sequence state) keep their shadow as a standing replica,
so even a later *bit flip* in the primary is repaired instead of lost.

Fault hooks for the chaos layer: :meth:`tear_next_write` arms a
one-shot torn write (at the shadow or the commit phase),
:meth:`bit_flip` corrupts a stored frame in place, and
:attr:`erase_budget` models wear-out — a region whose lifetime erase
count exceeds the budget goes bad and silently corrupts whatever is
programmed into it.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Iterator

from repro.memo import Memo
from repro.rtos.errors import PowerFailure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.kernel import Kernel

#: Flash page size (bytes) — nRF52840-class internal flash.
NVM_PAGE_BYTES = 4096
#: Cycles to erase one page before re-programming (≈1.3 ms @ 64 MHz;
#: real nRF52 page erase is ~2-90 ms, this models the typical case).
NVM_ERASE_CYCLES_PER_PAGE = 85_000
#: Cycles to program one byte (word-programming amortized).
NVM_WRITE_CYCLES_PER_BYTE = 40
#: Cycles to read one byte (memory-mapped flash reads are cheap but the
#: GD32V-class uncached parts are not free).
NVM_READ_CYCLES_PER_BYTE = 2
#: Cycles to CRC one byte (software crc32 on a Cortex-M class core).
NVM_CRC_CYCLES_PER_BYTE = 6

#: Journal frame: magic(2) | payload length(4) | crc32(payload)(4).
NVM_FRAME_MAGIC = b"\xf7\xc0"
NVM_FRAME_HEADER = struct.Struct("<4xII")
NVM_FRAME_HEADER_BYTES = 2 + 8


def _frame(payload: bytes) -> bytes:
    return (NVM_FRAME_MAGIC
            + struct.pack("<II", len(payload), zlib.crc32(payload))
            + payload)


#: Frames keyed by the exact payload bytes.  The devices of a fleet
#: publish write byte-identical records (one shared ``bytes`` object from
#: the release cache), so each record is framed -- copied and CRC'd on
#: the host -- once, and every device's flash holds that one immutable
#: frame.  Each write still charges its CRC, erase, program and
#: read-back cycles on the device.
_frames = Memo(64)


def _unframe(frame: bytes | None) -> bytes | None:
    """The frame's payload, or ``None`` for a torn/corrupt/absent frame."""
    if frame is None or len(frame) < NVM_FRAME_HEADER_BYTES:
        return None
    if frame[:2] != NVM_FRAME_MAGIC:
        return None
    length, crc = struct.unpack_from("<II", frame, 2)
    payload = frame[NVM_FRAME_HEADER_BYTES:]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    return payload


class TornWrite(PowerFailure):
    """Raised by an armed torn write after corrupting the in-flight frame.

    Subclasses :class:`~repro.rtos.errors.PowerFailure` so the kernel's
    step loop treats it as the power loss it models — the device halts
    at this exact virtual instant, mid-commit.
    """


class NvmStore:
    """One device's non-volatile key/value flash region.

    Keys are path-like strings (``"suit/slot/<location>"``); values are
    opaque byte blobs.  The store holds a reference to the kernel whose
    virtual clock pays for flash traffic; :meth:`bind` moves that
    reference to the next kernel after a reboot — the *data* needs no
    migration because flash keeps it.
    """

    def __init__(
        self,
        kernel: "Kernel | None" = None,
        page_bytes: int = NVM_PAGE_BYTES,
        erase_cycles_per_page: int = NVM_ERASE_CYCLES_PER_PAGE,
        write_cycles_per_byte: int = NVM_WRITE_CYCLES_PER_BYTE,
        read_cycles_per_byte: int = NVM_READ_CYCLES_PER_BYTE,
        crc_cycles_per_byte: int = NVM_CRC_CYCLES_PER_BYTE,
    ) -> None:
        self.kernel = kernel
        self.page_bytes = page_bytes
        self.erase_cycles_per_page = erase_cycles_per_page
        self.write_cycles_per_byte = write_cycles_per_byte
        self.read_cycles_per_byte = read_cycles_per_byte
        self.crc_cycles_per_byte = crc_cycles_per_byte
        #: Committed journal frames (the record's primary region).
        self._primary: dict[str, bytes] = {}
        #: In-flight commits and standing replicas of redundant records.
        self._shadow: dict[str, bytes] = {}
        #: Which keys asked for a standing replica (``redundant=True``).
        self._redundant: set[str] = set()
        #: Lifetime wear counters.
        self.erases = 0
        self.writes = 0
        self.reads = 0
        self.bytes_written = 0
        #: Corruption bookkeeping.
        self.torn = 0
        self.bitflips = 0
        self.repairs = 0
        self.lost = 0
        self.worn_writes = 0
        #: Wear-out model: a region (one key's primary or shadow copy)
        #: whose lifetime erase count exceeds this budget goes bad —
        #: anything programmed into it comes back corrupt.  ``None``
        #: disables wear-out (the default: healthy silicon).
        self.erase_budget: int | None = None
        self._region_erases: dict[tuple[str, str], int] = {}
        self._worn: set[tuple[str, str]] = set()
        #: One-shot armed tear: ``(phase, key-substring)`` or ``None``.
        self._tear: tuple[str, str] | None = None

    # -- reboot plumbing ---------------------------------------------------

    def bind(self, kernel: "Kernel") -> "NvmStore":
        """Point flash-cost charging at the (new) kernel's clock."""
        self.kernel = kernel
        return self

    def _charge(self, cycles: int) -> None:
        if self.kernel is not None and cycles:
            self.kernel.clock.charge(cycles)

    # -- chaos hooks -------------------------------------------------------

    def tear_next_write(self, phase: str = "commit",
                        match: str = "") -> None:
        """Arm a one-shot torn write (power fails mid-program).

        ``phase`` is ``"shadow"`` (tear during phase 1: the primary
        keeps the old value) or ``"commit"`` (tear during phase 2: the
        shadow holds the new value and repairs the primary on the next
        read).  ``match`` restricts the tear to the first write whose
        key contains it.
        """
        if phase not in ("shadow", "commit"):
            raise ValueError(f"unknown tear phase {phase!r}")
        self._tear = (phase, match)

    @property
    def tear_armed(self) -> bool:
        return self._tear is not None

    def bit_flip(self, key: str) -> bool:
        """Flip one bit in ``key``'s stored primary frame (radiation,
        marginal cell).  Falls back to the shadow copy when no primary
        exists.  Returns whether anything was corrupted."""
        for region in (self._primary, self._shadow):
            frame = region.get(key)
            if frame:
                at = len(frame) // 2
                region[key] = (frame[:at]
                               + bytes([frame[at] ^ 0x40])
                               + frame[at + 1:])
                self.bitflips += 1
                return True
        return False

    # -- wear-out model ----------------------------------------------------

    def _erase_region(self, region: str, key: str, pages: int) -> int:
        """Erase ``pages`` of one region; returns the cycles it took."""
        self.erases += pages
        spot = (region, key)
        count = self._region_erases.get(spot, 0) + pages
        self._region_erases[spot] = count
        cycles = pages * self.erase_cycles_per_page
        if self.erase_budget is None:
            return cycles
        # The shadow area draws from the journal's spare pool (an FTL
        # retires bad blocks into reserve), so it outlives the data
        # region — which is what lets a worn primary keep being served.
        budget = self.erase_budget * (2 if region == "shadow" else 1)
        if count > budget:
            self._worn.add(spot)
        return cycles

    def _program(self, region: str, key: str, frame: bytes) -> int:
        """Erase + program one region; a worn region corrupts the frame.
        Returns the cycles it took."""
        pages = max(1, -(-len(frame) // self.page_bytes))
        cycles = (self._erase_region(region, key, pages)
                  + len(frame) * self.write_cycles_per_byte)
        self.bytes_written += len(frame)
        if (region, key) in self._worn:
            # A cell past its erase budget reads back wrong: flip the
            # last payload byte so the CRC catches it.
            frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            self.worn_writes += 1
        store = self._primary if region == "primary" else self._shadow
        store[key] = frame
        return cycles

    def _maybe_tear(self, phase: str, key: str, frame: bytes,
                    spent: int) -> None:
        """Fire an armed tear: leave a half-programmed frame, charge the
        write's ``spent`` cycles plus the torn program's, and halt."""
        if self._tear is None:
            return
        armed_phase, match = self._tear
        if armed_phase != phase or match not in key:
            return
        self._tear = None
        self.torn += 1
        region = "primary" if phase == "commit" else "shadow"
        store = self._primary if phase == "commit" else self._shadow
        torn_frame = frame[: max(1, len(frame) // 2)]
        # The torn program still wore the page and burned the cycles of
        # the bytes that made it in before power died.
        pages = max(1, -(-len(frame) // self.page_bytes))
        self._charge(spent + self._erase_region(region, key, pages)
                     + len(torn_frame) * self.write_cycles_per_byte)
        self.bytes_written += len(torn_frame)
        store[key] = torn_frame
        raise TornWrite(f"power failed mid-{phase} of {key!r}")

    # -- the blob store ----------------------------------------------------

    def write(self, key: str, value: bytes, redundant: bool = False) -> None:
        """Two-phase shadow-commit one record.

        ``redundant=True`` keeps the shadow copy as a standing replica
        after the commit (anti-rollback state wants two copies);
        ordinary records retire the shadow with one cheap erase.

        The record's CRC, erases, programs and read-back are summed and
        charged to the clock once, when the write completes; a torn
        write charges what it spent up to the tear before it raises.
        """
        value = bytes(value)
        cycles = len(value) * self.crc_cycles_per_byte
        frame = _frames.get_or_derive(value, lambda: _frame(value))
        # Phase 1: program the shadow region.
        self._maybe_tear("shadow", key, frame, cycles)
        cycles += self._program("shadow", key, frame)
        # Phase 2: program the primary region.
        self._maybe_tear("commit", key, frame, cycles)
        cycles += self._program("primary", key, frame)
        # Read-back verify (every SUIT bootloader does).  A healthy
        # region programs the very frame built above, which is intact by
        # construction, so the host re-checks the CRC only of a frame a
        # worn region handed back altered.
        written = self._primary[key]
        cycles += len(written) * self.read_cycles_per_byte
        self.writes += 1
        if redundant:
            self._redundant.add(key)
        elif written is frame or _unframe(written) is not None:
            # Healthy commit: retire the shadow journal entry.
            self._shadow.pop(key, None)
            cycles += self.erase_cycles_per_page
            self.erases += 1
            self._redundant.discard(key)
        # else: the primary region is worn — keep the shadow so the
        # next read can serve (and the caller's data survives).
        self._charge(cycles)

    def read(self, key: str) -> bytes | None:
        """Validated read: repair from shadow on a corrupt primary.

        Returns the payload, or ``None`` when the record is absent or
        both copies are corrupt (the record is then dropped — a real
        driver garbage-collects unreadable journal entries).
        """
        primary = self._primary.get(key)
        payload = _unframe(primary)
        if payload is not None:
            self._charge(len(primary) * self.read_cycles_per_byte)
            self.reads += 1
            return payload
        shadow = self._shadow.get(key)
        shadow_payload = _unframe(shadow)
        if shadow_payload is not None:
            self._charge(len(shadow) * self.read_cycles_per_byte)
            self.reads += 1
            # Torn/corrupt (or missing) primary with an intact shadow:
            # re-commit the journal entry — unless the primary region
            # is worn out, in which case the shadow keeps serving.
            if ("primary", key) not in self._worn:
                self._charge(self._program("primary", key, shadow)
                             + len(shadow) * self.read_cycles_per_byte)
                self.repairs += 1
                if key not in self._redundant:
                    self._shadow.pop(key, None)
                    self._charge(self.erase_cycles_per_page)
                    self.erases += 1
            return shadow_payload
        if primary is not None or shadow is not None:
            # Both copies corrupt: the record is unrecoverable.
            self._primary.pop(key, None)
            self._shadow.pop(key, None)
            self._redundant.discard(key)
            self.lost += 1
        return None

    def delete(self, key: str) -> None:
        """Drop one record (a single cheap erase of its journal entry).

        Idempotent: deleting a key that was never written — or was
        already garbage-collected before a reboot — is a no-op.
        """
        found = self._primary.pop(key, None) is not None
        found = (self._shadow.pop(key, None) is not None) or found
        self._redundant.discard(key)
        if found:
            self._charge(self.erase_cycles_per_page)
            self.erases += 1

    def keys(self, prefix: str = "") -> list[str]:
        live = set(self._primary) | set(self._shadow)
        return sorted(key for key in live if key.startswith(prefix))

    def items(self, prefix: str = "") -> Iterator[tuple[str, bytes]]:
        """Live ``(key, payload)`` pairs; corrupt records are skipped
        (not repaired — iteration must not mutate)."""
        for key in self.keys(prefix):
            payload = _unframe(self._primary.get(key))
            if payload is None:
                payload = _unframe(self._shadow.get(key))
            if payload is not None:
                yield key, payload

    def __contains__(self, key: str) -> bool:
        return key in self._primary or key in self._shadow

    def __len__(self) -> int:
        return len(set(self._primary) | set(self._shadow))

    @property
    def used_bytes(self) -> int:
        """Flash currently occupied by live record payloads."""
        return sum(len(payload) for _, payload in self.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NvmStore({len(self)} records, "
                f"{self.used_bytes} B, {self.erases} erases)")
