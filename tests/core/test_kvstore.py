"""Key-value store semantics and RAM accounting."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core import KeyValueStore
from repro.core.kvstore import ENTRY_BYTES, STORE_HEADER_BYTES


class TestSemantics:
    def test_missing_key_reads_zero(self):
        store = KeyValueStore("s")
        assert store.fetch(42) == 0

    def test_store_fetch_roundtrip(self):
        store = KeyValueStore("s")
        store.store(1, 99)
        assert store.fetch(1) == 99

    def test_values_truncate_to_32_bits(self):
        store = KeyValueStore("s")
        store.store(1, 1 << 40)
        assert store.fetch(1) == 0

    def test_keys_truncate_to_32_bits(self):
        store = KeyValueStore("s")
        store.store(1 << 32, 7)  # aliases key 0
        assert store.fetch(0) == 7

    def test_overwrite(self):
        store = KeyValueStore("s")
        store.store(5, 1)
        store.store(5, 2)
        assert store.fetch(5) == 2
        assert len(store) == 1

    def test_delete(self):
        store = KeyValueStore("s")
        store.store(5, 1)
        assert store.delete(5)
        assert not store.delete(5)
        assert store.fetch(5) == 0

    def test_statistics(self):
        store = KeyValueStore("s")
        store.store(1, 1)
        store.fetch(1)
        store.fetch(2)
        assert store.stores == 1
        assert store.fetches == 2

    @given(st.dictionaries(st.integers(0, 2**32 - 1),
                           st.integers(0, 2**32 - 1), max_size=32))
    def test_model_equivalence(self, entries):
        store = KeyValueStore("s")
        for key, value in entries.items():
            store.store(key, value)
        assert store.snapshot() == entries
        for key, value in entries.items():
            assert store.fetch(key) == value


class TestRamAccounting:
    def test_empty_store_is_header_only(self):
        assert KeyValueStore("s").ram_bytes == STORE_HEADER_BYTES

    def test_ram_grows_per_entry(self):
        store = KeyValueStore("s")
        for key in range(5):
            store.store(key, key)
        assert store.ram_bytes == STORE_HEADER_BYTES + 5 * ENTRY_BYTES

    def test_overwrite_does_not_grow(self):
        store = KeyValueStore("s")
        store.store(1, 1)
        before = store.ram_bytes
        store.store(1, 2)
        assert store.ram_bytes == before
