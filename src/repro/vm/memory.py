"""Virtual memory regions and the runtime access-list check (paper Fig. 4).

A Femto-Container instance sees a sparse virtual address space made of a
handful of :class:`MemoryRegion` objects: its stack, the hook context
struct, the program's ``.data``/``.rodata`` sections, and whatever extra
regions the hosting engine explicitly granted (for example a read-only view
of a network packet).  Every load and store executed by the VM resolves its
*computed* address against the :class:`AccessList`; anything outside the
granted regions aborts the execution with :class:`MemoryFault`.

Because this check guards every load and store the VM executes, it is the
hottest path of the whole simulator, and it is engineered accordingly:

* regions are kept **sorted by base address**, so :meth:`AccessList.find`
  resolves an address with one :func:`bisect.bisect_right` probe instead of
  a linear scan;
* a **most-recently-used region cache** short-circuits the common case —
  container loads and stores are overwhelmingly stack- or context-local, so
  consecutive accesses usually hit the same region.  A second entry holds
  the region resolved before it, so a program alternating between two
  regions (its context and its stack) resolves neither by bisect.  The
  cache is invalidated whenever the region set changes
  (:meth:`AccessList.add` / :meth:`AccessList.remove`), including a
  ``bind_context`` remap;
* permissions are tested as plain integer bits (``_perm_bits``) on the
  fast paths *and* in :meth:`AccessList.find`: the :class:`Permission`
  enum is built only to name the missing right in a fault message;
* :meth:`MemoryRegion.load` / :meth:`MemoryRegion.store` use preallocated
  :class:`struct.Struct` packers over a ``memoryview`` of the backing
  buffer, so an access allocates no intermediate ``bytes`` slice.

None of this changes what is checked: the permission model and the
fault-at-the-boundary semantics are bit-identical to the reference linear
scan, and the accounting layers above never see the difference.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntFlag
from operator import attrgetter

from repro.vm.errors import MemoryFault

# Conventional base addresses for the standard regions.  They only need to
# be distinct and far apart; the VM never maps real host memory.
STACK_BASE = 0x2000_0000
CONTEXT_BASE = 0x3000_0000
DATA_BASE = 0x4000_0000
RODATA_BASE = 0x5000_0000
GRANT_BASE = 0x6000_0000

#: access width -> (preallocated little-endian packer, value mask).
_PACKERS: dict[int, tuple[struct.Struct, int]] = {
    1: (struct.Struct("<B"), 0xFF),
    2: (struct.Struct("<H"), 0xFFFF),
    4: (struct.Struct("<I"), 0xFFFF_FFFF),
    8: (struct.Struct("<Q"), 0xFFFF_FFFF_FFFF_FFFF),
}

#: Same table as a dense tuple indexed by width, for the hot path.
_PACKERS_BY_SIZE: tuple[tuple[struct.Struct, int] | None, ...] = tuple(
    _PACKERS.get(size) for size in range(9)
)


class Permission(IntFlag):
    """Access rights attached to a region in the allow list."""

    NONE = 0
    READ = 1
    WRITE = 2
    READ_WRITE = READ | WRITE


@dataclass
class MemoryRegion:
    """A contiguous virtual region over a fixed-size host buffer.

    The buffer is a ``bytearray`` for every region the VM or the host
    may write (stack, context, ``.data``, grants).  A region that is
    ``READ``-only for its whole life may instead be backed by immutable
    ``bytes`` shared with other regions (a program's ``.rodata`` is one
    buffer for all its instances): every store is permission-checked
    before it reaches the buffer, so a write into it ends as a
    :class:`MemoryFault`, never a host error.
    """

    name: str
    start: int
    data: bytearray | bytes
    perms: Permission

    def __post_init__(self) -> None:
        # Cached geometry and a zero-copy view for the struct packers.  A
        # backing bytearray must never be resized (regions are fixed-size
        # hardware-like mappings); the exported memoryview enforces that.
        # ``_perm_bits`` dodges IntFlag.__and__, which allocates an enum
        # instance per test; permissions are immutable after construction.
        self._end = self.start + len(self.data)
        self._view = memoryview(self.data)
        self._perm_bits = int(self.perms)

    @classmethod
    def from_bytes(
        cls, name: str, start: int, content: bytes, perms: Permission
    ) -> "MemoryRegion":
        return cls(name=name, start=start, data=bytearray(content), perms=perms)

    @classmethod
    def zeroed(
        cls, name: str, start: int, size: int, perms: Permission
    ) -> "MemoryRegion":
        return cls(name=name, start=start, data=bytearray(size), perms=perms)

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self._end

    def contains(self, addr: int, size: int) -> bool:
        """True when ``[addr, addr+size)`` lies fully inside the region."""
        return self.start <= addr and addr + size <= self._end

    def load(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as an unsigned little-endian int."""
        entry = _PACKERS.get(size)
        if entry is not None:
            return entry[0].unpack_from(self._view, addr - self.start)[0]
        off = addr - self.start
        return int.from_bytes(self.data[off : off + size], "little")

    def store(self, addr: int, size: int, value: int) -> None:
        """Write ``value`` as ``size`` little-endian bytes at ``addr``."""
        entry = _PACKERS.get(size)
        if entry is not None:
            entry[0].pack_into(self._view, addr - self.start, value & entry[1])
            return
        off = addr - self.start
        self.data[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    def read_bytes(self, addr: int, size: int) -> bytes:
        off = addr - self.start
        return bytes(self.data[off : off + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        off = addr - self.start
        self.data[off : off + len(payload)] = payload


_start_of = attrgetter("start")


def check_disjoint(spans: list[tuple[int, int, str]]) -> None:
    """Refuse a region layout: ``spans`` are ``(start, end, name)``
    sorted by start, and the first two that overlap raise a
    ``ValueError`` naming both.  Building an :class:`AccessList` runs
    this check, and so does an attach before any region exists."""
    for index in range(1, len(spans)):
        if spans[index - 1][1] > spans[index][0]:
            raise ValueError(f"region {spans[index][2]!r} overlaps "
                             f"{spans[index - 1][2]!r}")


@dataclass
class AccessList:
    """The allow list of Fig. 4: the only memory a container may touch.

    ``regions`` is kept sorted by base address (regions are disjoint, so
    the order is total); mutate it only through :meth:`add` and
    :meth:`remove` so the bisect index and the MRU cache stay coherent.
    Construction sorts and overlap-checks the given regions once, which
    is how an instance's clone builds its list.
    """

    regions: list[MemoryRegion] = field(default_factory=list)

    def __post_init__(self) -> None:
        regions = self.regions
        regions.sort(key=_start_of)
        self._starts = [region.start for region in regions]
        check_disjoint([(region.start, region._end, region.name)
                        for region in regions])
        #: The region resolved last (the JIT's window refill reads it),
        #: and the one resolved before that.
        self._mru: MemoryRegion | None = None
        self._mru2: MemoryRegion | None = None

    # -- region-set maintenance -------------------------------------------

    def _resync(self) -> None:
        """Re-derive the index after a detected out-of-band mutation."""
        self.regions.sort(key=_start_of)
        self._starts = [region.start for region in self.regions]
        self._mru = self._mru2 = None

    def add(self, region: MemoryRegion) -> MemoryRegion:
        """Grant access to ``region``; returns it for chaining."""
        if len(self._starts) != len(self.regions):  # defensive resync
            self._resync()
        index = bisect_right(self._starts, region.start)
        if index > 0 and self.regions[index - 1].end > region.start:
            raise ValueError(
                f"region {region.name!r} overlaps {self.regions[index - 1].name!r}"
            )
        if index < len(self.regions) and region.end > self.regions[index].start:
            raise ValueError(
                f"region {region.name!r} overlaps {self.regions[index].name!r}"
            )
        self.regions.insert(index, region)
        self._starts.insert(index, region.start)
        self._mru = self._mru2 = None
        return region

    def remove(self, region: MemoryRegion) -> bool:
        """Revoke a grant; returns False when the region was not present."""
        try:
            index = self.regions.index(region)
        except ValueError:
            return False
        del self.regions[index]
        if index < len(self._starts):
            del self._starts[index]
        else:  # pragma: no cover - only after out-of-band mutation
            self._resync()
        self._mru = self._mru2 = None
        return True

    def grant_bytes(
        self, name: str, start: int, content: bytes, perms: Permission
    ) -> MemoryRegion:
        return self.add(MemoryRegion.from_bytes(name, start, content, perms))

    # -- the runtime check (hot path) -------------------------------------

    def find(self, addr: int, size: int, write: bool) -> MemoryRegion:
        """Resolve a checked access; raises :class:`MemoryFault` on denial.

        This is the hot path of the memory-protection system: the address is
        the *computed* runtime address (register + offset), so the check
        cannot be hoisted to verification time.  A hit on either MRU entry
        skips the bisect entirely; permissions are re-checked on every
        resolution.
        """
        region = self._mru
        if region is None or not (
            region.start <= addr and addr + size <= region._end
        ):
            previous = region
            region = self._mru2
            if region is None or not (
                region.start <= addr and addr + size <= region._end
            ):
                starts = self._starts
                if len(starts) != len(self.regions):  # defensive resync
                    self._resync()
                    starts, previous = self._starts, None
                index = bisect_right(starts, addr) - 1
                region = self.regions[index] if index >= 0 else None
                if region is None or addr + size > region._end:
                    raise MemoryFault(
                        f"{'write' if write else 'read'} of {size} B at "
                        f"0x{addr:08x} outside all granted regions"
                    )
            self._mru2 = previous
            self._mru = region
        if region._perm_bits & (2 if write else 1):  # WRITE / READ
            return region
        needed = Permission.WRITE if write else Permission.READ
        raise MemoryFault(
            f"{'write' if write else 'read'} of {size} B at "
            f"0x{addr:08x} denied: region {region.name!r} lacks "
            f"{needed.name} permission"
        )

    def span(self, lo: int, hi: int, perms: int) -> MemoryRegion | None:
        """The one region holding all of ``[lo, hi)`` with every permission
        bit in ``perms`` (1 READ, 2 WRITE), or None; never raises.

        The JIT's versioned loops ask this once at loop entry for the
        whole range an affine pointer walks.  It leaves the MRU cache
        alone, and a range split over two adjacent regions answers None
        (the caller then checks access by access).
        """
        if len(self._starts) != len(self.regions):  # defensive resync
            self._resync()
        index = bisect_right(self._starts, lo) - 1
        if index < 0:
            return None
        region = self.regions[index]
        if hi <= region._end and region._perm_bits & perms == perms:
            return region
        return None

    def load(self, addr: int, size: int) -> int:
        # Inlined MRU + packer fast path: one VM load is one call frame.
        region = self._mru
        if (region is not None and region.start <= addr
                and addr + size <= region._end and region._perm_bits & 1):
            entry = _PACKERS_BY_SIZE[size] if size < 9 else None
            if entry is not None:
                return entry[0].unpack_from(region._view, addr - region.start)[0]
        return self.find(addr, size, False).load(addr, size)

    def store(self, addr: int, size: int, value: int) -> None:
        region = self._mru
        if (region is not None and region.start <= addr
                and addr + size <= region._end and region._perm_bits & 2):
            entry = _PACKERS_BY_SIZE[size] if size < 9 else None
            if entry is not None:
                entry[0].pack_into(region._view, addr - region.start,
                                   value & entry[1])
                return
        self.find(addr, size, True).store(addr, size, value)

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Checked bulk read used by helpers that take VM pointers."""
        if size == 0:
            return b""
        return self.find(addr, size, False).read_bytes(addr, size)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        """Checked bulk write used by helpers that fill VM buffers."""
        if not payload:
            return
        self.find(addr, len(payload), True).write_bytes(addr, payload)

    def read_cstring(self, addr: int, max_len: int = 256) -> bytes:
        """Read a NUL-terminated string, fully checked, region by region.

        Helpers that take string pointers (``bpf_printf``) use this.  The
        containing region is resolved once and then scanned in place — not
        re-resolved per byte — but the semantics are unchanged: a string
        running off the end of a granted region faults exactly at the
        boundary (unless an adjacent granted region continues it), like
        the byte-wise walk of the C runtime.
        """
        out = bytearray()
        remaining = max_len
        while remaining > 0:
            region = self.find(addr, 1, False)
            data = region.data
            offset = addr - region.start
            window = min(len(data), offset + remaining)
            nul = data.find(b"\x00", offset, window)
            if nul >= 0:
                out += data[offset:nul]
                return bytes(out)
            out += data[offset:window]
            consumed = window - offset
            remaining -= consumed
            addr += consumed
        return bytes(out)

    def ram_bytes(self) -> int:
        """Total backing RAM of all granted regions (for accounting)."""
        return sum(region.size for region in self.regions)
