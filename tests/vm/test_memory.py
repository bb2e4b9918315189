"""MemoryRegion / AccessList unit tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.vm import MemoryFault
from repro.vm.memory import AccessList, MemoryRegion, Permission


@pytest.fixture
def access():
    acl = AccessList()
    acl.grant_bytes("rw", 0x1000, bytes(64), Permission.READ_WRITE)
    acl.grant_bytes("ro", 0x2000, b"\x11" * 32, Permission.READ)
    return acl


class TestRegion:
    def test_contains_boundaries(self):
        region = MemoryRegion.zeroed("r", 100, 10, Permission.READ)
        assert region.contains(100, 1)
        assert region.contains(109, 1)
        assert region.contains(100, 10)
        assert not region.contains(99, 1)
        assert not region.contains(109, 2)
        assert not region.contains(110, 1)

    def test_little_endian_load_store(self):
        region = MemoryRegion.zeroed("r", 0, 8, Permission.READ_WRITE)
        region.store(0, 4, 0x11223344)
        assert region.data[0] == 0x44
        assert region.load(0, 4) == 0x11223344

    def test_store_truncates_to_width(self):
        region = MemoryRegion.zeroed("r", 0, 8, Permission.READ_WRITE)
        region.store(0, 1, 0x1FF)
        assert region.load(0, 1) == 0xFF


class TestAccessList:
    def test_read_write_in_rw_region(self, access):
        access.store(0x1000, 8, 0xABCD)
        assert access.load(0x1000, 8) == 0xABCD

    def test_read_in_ro_region(self, access):
        assert access.load(0x2000, 1) == 0x11

    def test_write_in_ro_region_denied(self, access):
        with pytest.raises(MemoryFault, match="lacks WRITE"):
            access.store(0x2000, 1, 0)

    def test_unmapped_address_denied(self, access):
        with pytest.raises(MemoryFault, match="outside all granted"):
            access.load(0x3000, 1)

    def test_access_straddling_regions_denied(self, access):
        with pytest.raises(MemoryFault):
            access.load(0x1000 + 60, 8)

    def test_overlapping_grant_rejected(self, access):
        with pytest.raises(ValueError, match="overlaps"):
            access.grant_bytes("bad", 0x1010, bytes(4), Permission.READ)

    def test_adjacent_grant_allowed(self, access):
        access.grant_bytes("next", 0x1040, bytes(4), Permission.READ)

    def test_construction_sorts_and_rejects_overlap(self):
        low = MemoryRegion.zeroed("low", 0x1000, 16, Permission.READ)
        high = MemoryRegion.zeroed("high", 0x1010, 16, Permission.READ)
        assert AccessList([high, low]).regions == [low, high]
        clash = MemoryRegion.zeroed("clash", 0x100f, 4, Permission.READ)
        with pytest.raises(ValueError, match="overlaps"):
            AccessList([high, clash, low])

    def test_bulk_read_write(self, access):
        access.write_bytes(0x1000, b"hello")
        assert access.read_bytes(0x1000, 5) == b"hello"

    def test_bulk_write_to_ro_denied(self, access):
        with pytest.raises(MemoryFault):
            access.write_bytes(0x2000, b"x")

    def test_empty_bulk_ops_are_noops(self, access):
        assert access.read_bytes(0x1000, 0) == b""
        access.write_bytes(0x1000, b"")

    def test_read_cstring_stops_at_nul(self, access):
        access.write_bytes(0x1000, b"hi\x00there")
        assert access.read_cstring(0x1000) == b"hi"

    def test_read_cstring_faults_at_region_end(self, access):
        # Fill the RO region with no terminator: the walk must fault at
        # the boundary rather than read adjacent memory.
        with pytest.raises(MemoryFault):
            access.read_cstring(0x2000, max_len=64)

    def test_ram_accounting(self, access):
        assert access.ram_bytes() == 96

    @given(addr=st.integers(0, 0x4000), size=st.sampled_from([1, 2, 4, 8]))
    def test_find_partitions_address_space(self, addr, size):
        """Every (addr, size) either resolves to exactly one region that
        fully contains it, or faults — no partial grants."""
        acl = AccessList()
        acl.grant_bytes("rw", 0x1000, bytes(64), Permission.READ_WRITE)
        acl.grant_bytes("ro", 0x2000, b"\x11" * 32, Permission.READ)
        try:
            region = acl.find(addr, size, write=False)
        except MemoryFault:
            inside = [r for r in acl.regions if r.contains(addr, size)]
            assert not inside
        else:
            assert region.contains(addr, size)
