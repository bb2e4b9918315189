"""Fault-boundary and cache-coherence tests for the AccessList fast path.

The bisect + MRU-cache implementation must be observationally identical to
the reference linear scan: accesses fault exactly at region boundaries,
never partially succeed, and the MRU cache never serves stale regions
after the region set changes (most importantly after ``bind_context``
remaps the context region between hook firings).
"""

from __future__ import annotations

import pytest

from repro.vm import Interpreter, MemoryFault, assemble
from repro.vm.memory import CONTEXT_BASE, AccessList, MemoryRegion, Permission


@pytest.fixture
def adjacent():
    """Two directly adjacent regions with different permissions."""
    acl = AccessList()
    acl.grant_bytes("lo", 0x1000, bytes(range(32)), Permission.READ_WRITE)
    acl.grant_bytes("hi", 0x1020, b"\xaa" * 32, Permission.READ)
    return acl


class TestStraddlingAccess:
    def test_access_straddling_adjacent_regions_denied(self, adjacent):
        """A load spanning the seam of two *adjacent* grants must fault:
        regions are distinct protection domains even when contiguous."""
        with pytest.raises(MemoryFault):
            adjacent.load(0x1020 - 4, 8)

    def test_store_straddling_adjacent_regions_denied(self, adjacent):
        with pytest.raises(MemoryFault):
            adjacent.store(0x1020 - 1, 2, 0xFFFF)

    def test_last_byte_of_low_region_ok(self, adjacent):
        assert adjacent.load(0x101F, 1) == 31

    def test_first_byte_of_high_region_ok(self, adjacent):
        assert adjacent.load(0x1020, 1) == 0xAA

    def test_straddle_denied_even_after_mru_warmup(self, adjacent):
        # Warm the MRU cache on the low region, then straddle from it.
        adjacent.load(0x1000, 8)
        with pytest.raises(MemoryFault):
            adjacent.load(0x101C, 8)

    def test_cstring_continues_across_adjacent_regions(self, adjacent):
        """read_cstring resolves per region but must keep walking into an
        adjacent grant, exactly like the byte-wise reference walk."""
        adjacent.write_bytes(0x1000 + 28, b"abcd")  # runs to the seam
        # 'hi' region continues with 0xAA bytes, no NUL within max_len.
        assert adjacent.read_cstring(0x1000 + 28, max_len=8) == (
            b"abcd" + b"\xaa" * 4
        )

    def test_cstring_faults_at_unmapped_boundary(self, adjacent):
        # No terminator before the end of the *high* region, and nothing
        # is mapped after it: the walk must fault exactly at the edge.
        with pytest.raises(MemoryFault):
            adjacent.read_cstring(0x1020, max_len=64)


class TestZeroSizeAccess:
    def test_zero_size_read_inside_region(self, adjacent):
        assert adjacent.read_bytes(0x1010, 0) == b""

    def test_zero_size_read_outside_any_region(self, adjacent):
        # The reference implementation short-circuits empty reads before
        # consulting the allow list; keep that contract.
        assert adjacent.read_bytes(0xDEAD_0000, 0) == b""

    def test_zero_size_write_is_noop(self, adjacent):
        adjacent.write_bytes(0xDEAD_0000, b"")
        adjacent.write_bytes(0x1020, b"")  # read-only region: still a no-op


class TestPermissionFaults:
    def test_write_to_read_only_region_denied(self, adjacent):
        with pytest.raises(MemoryFault, match="lacks WRITE"):
            adjacent.store(0x1020, 1, 0)

    def test_write_denied_even_on_mru_hit(self, adjacent):
        adjacent.load(0x1020, 4)  # make the read-only region the MRU
        with pytest.raises(MemoryFault, match="lacks WRITE"):
            adjacent.store(0x1024, 4, 1)

    def test_read_of_write_only_region_denied(self):
        acl = AccessList()
        acl.add(MemoryRegion.zeroed("wo", 0x2000, 16, Permission.WRITE))
        acl.store(0x2000, 4, 7)
        with pytest.raises(MemoryFault, match="lacks READ"):
            acl.load(0x2000, 4)


class TestMruInvalidation:
    def test_bind_context_remap_invalidates_mru(self):
        """After bind_context replaces the context region, the old (larger)
        region must not be served from the MRU cache."""
        program = assemble("ldxb r0, [r1+0]\n    exit")
        vm = Interpreter(program)
        vm.bind_context(b"\x11" * 16)
        # Warm the MRU on the 16-byte context region.
        assert vm.access_list.load(CONTEXT_BASE + 12, 1) == 0x11
        # Remap with a *smaller* context: the tail must now be unmapped.
        vm.bind_context(b"\x22" * 4)
        assert vm.access_list.load(CONTEXT_BASE, 1) == 0x22
        with pytest.raises(MemoryFault):
            vm.access_list.load(CONTEXT_BASE + 12, 1)

    def test_bind_context_remap_changes_permissions(self):
        program = assemble("mov r0, 0\n    exit")
        vm = Interpreter(program)
        vm.bind_context(b"\x00" * 8, perms=Permission.READ_WRITE)
        vm.access_list.store(CONTEXT_BASE, 1, 0x7F)  # warm MRU for writes
        vm.bind_context(b"\x00" * 8, perms=Permission.READ)
        with pytest.raises(MemoryFault, match="lacks WRITE"):
            vm.access_list.store(CONTEXT_BASE, 1, 0x7F)

    def test_remove_invalidates_mru(self):
        acl = AccessList()
        region = acl.grant_bytes("g", 0x3000, bytes(8), Permission.READ)
        acl.load(0x3000, 8)
        assert acl.remove(region) is True
        with pytest.raises(MemoryFault, match="outside all granted"):
            acl.load(0x3000, 8)

    def test_remove_invalidates_the_second_mru_entry(self):
        """A revoked region held as the older of the two MRU entries
        must not be served either."""
        acl = AccessList()
        revoked = acl.grant_bytes("a", 0x3000, bytes(8), Permission.READ)
        acl.grant_bytes("b", 0x5000, bytes(8), Permission.READ)
        acl.load(0x3000, 8)
        acl.load(0x5000, 8)  # "a" is now the older entry
        assert acl.remove(revoked) is True
        with pytest.raises(MemoryFault, match="outside all granted"):
            acl.load(0x3000, 8)

    def test_alternating_regions_keep_the_last_one_first(self):
        """Context/stack alternation hits the second entry and swaps it
        in, so ``_mru`` always names the region resolved last (the JIT
        refills its windows from it)."""
        acl = AccessList()
        a = acl.grant_bytes("a", 0x3000, bytes(8), Permission.READ_WRITE)
        b = acl.grant_bytes("b", 0x5000, bytes(8), Permission.READ_WRITE)
        for region in (a, b, a, b, a):
            acl.store(region.start, 4, 7)
            assert acl._mru is region
        assert acl.load(0x5004, 4) == 0 and acl._mru is b

    def test_remove_absent_region_is_noop(self):
        acl = AccessList()
        stray = MemoryRegion.zeroed("stray", 0x4000, 8, Permission.READ)
        assert acl.remove(stray) is False

    def test_vm_sees_fresh_context_after_rebind(self):
        """End-to-end: consecutive runs with different contexts (the hook
        firing pattern) read fresh bytes through the VM's load path."""
        program = assemble("ldxb r0, [r1+0]\n    exit")
        vm = Interpreter(program)
        assert vm.run(context=b"\x0a").value == 0x0A
        assert vm.run(context=b"\x0b").value == 0x0B
