"""Spec GC: aging out stored images without touching anti-rollback state.

Detached-but-stored payloads pin :attr:`StorageRegistry.ram_bytes`
forever on a bounded device.  ``gc_horizon`` drops the image *bytes* of
slots whose install sequence fell far behind the registry's newest —
but never the slot itself: the anti-rollback sequence survives eviction
(a replayed old manifest is still refused) and the newest sequence's
slot, the live one, is never evicted.
"""

from __future__ import annotations

import pytest

from repro.suit.storage import StorageRegistry


def filled(gc_horizon=None, max_slots=None) -> StorageRegistry:
    registry = StorageRegistry(max_slots=max_slots, gc_horizon=gc_horizon)
    for sequence in range(1, 5):
        registry.install(f"slot{sequence}", b"x" * 100, sequence)
    return registry


class TestManualGc:
    def test_gc_ages_out_far_behind_slots(self):
        registry = filled()
        before = registry.ram_bytes
        evicted = registry.gc(horizon=2)
        assert evicted == ["slot1", "slot2"]
        assert registry.ram_bytes == before - 200
        assert registry.gc_evictions == 2

    def test_gc_preserves_sequences(self):
        """GC frees RAM, never replay protection: the evicted slot's
        sequence stays, so the old manifest is still refused."""
        registry = filled()
        registry.gc(horizon=1)
        for sequence in range(1, 5):
            assert registry.highest_sequence(f"slot{sequence}") == sequence
        assert not registry.peek("slot1").occupied

    def test_gc_never_evicts_the_live_sequence(self):
        registry = filled()
        registry.gc(horizon=1)
        assert registry.peek("slot4").occupied  # newest survives any horizon

    def test_gc_without_horizon_is_a_no_op(self):
        registry = filled()
        assert registry.gc() == []
        assert registry.ram_bytes == 400

    def test_non_positive_horizon_rejected(self):
        registry = filled()
        with pytest.raises(ValueError):
            registry.gc(horizon=0)

    def test_empty_registry_gc(self):
        assert StorageRegistry(gc_horizon=3).gc() == []


class TestAutoGc:
    def test_install_triggers_gc(self):
        registry = StorageRegistry(gc_horizon=2)
        registry.install("a", b"x" * 100, 1)
        registry.install("b", b"x" * 100, 2)
        assert registry.ram_bytes == 200
        registry.install("c", b"x" * 100, 3)  # 1 <= 3 - 2: "a" ages out
        assert not registry.peek("a").occupied
        assert registry.peek("b").occupied and registry.peek("c").occupied
        assert registry.ram_bytes == 200

    def test_reinstall_under_newer_sequence_refills_the_slot(self):
        """An evicted location is not dead — a *newer* manifest for it
        installs normally (only replays are refused, by the worker)."""
        registry = StorageRegistry(gc_horizon=2)
        for sequence, location in enumerate(("a", "b", "c"), start=1):
            registry.install(location, b"x" * 100, sequence)
        assert not registry.peek("a").occupied
        registry.install("a", b"y" * 50, 4)
        assert registry.peek("a").occupied
        assert registry.highest_sequence("a") == 4
        # ...and by then "b" (sequence 2 <= 4 - 2) has aged out instead.
        assert not registry.peek("b").occupied

    def test_gcd_slot_still_counts_against_the_budget(self):
        """Eviction frees RAM, not the slot-count budget: the location
        must survive for anti-rollback, so it still occupies one of
        ``max_slots`` (unlike ``release_if_empty`` after a failed
        fetch, which undoes a reservation that never installed)."""
        registry = StorageRegistry(max_slots=3, gc_horizon=1)
        for sequence, location in enumerate(("a", "b", "c"), start=1):
            registry.install(location, b"x" * 10, sequence)
        from repro.suit.storage import StorageFullError

        with pytest.raises(StorageFullError):
            registry.slot("d")

    def test_worker_wires_the_horizon_through(self):
        from repro.core import HostingEngine
        from repro.rtos import Kernel
        from repro.scenarios import build_fleet_publisher

        publisher = build_fleet_publisher(devices=1)
        worker = publisher.fleet.devices[0].radio.worker
        assert worker.storage.gc_horizon is None  # default: disabled

        from repro.net import CoapClient, Interface, Link, UdpStack
        from repro.suit import SpecUpdateWorker, ed25519

        kernel = Kernel()
        engine = HostingEngine(kernel)
        link = Link(kernel)
        iface = link.attach(Interface("2001:db8::x"))
        client = CoapClient(kernel, UdpStack(iface).socket(49001))
        worker = SpecUpdateWorker(
            engine, client, trust_anchor=ed25519.public_key(bytes(range(32))),
            repo_addr="2001:db8::y", storage_gc_horizon=5,
        )
        assert worker.storage.gc_horizon == 5
