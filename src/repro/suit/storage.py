"""Device-side storage slots for container images, keyed by hook UUID.

The paper stores deployed applications in RAM, addressed by the SUIT
storage-location identifier (the hook UUID).  A slot remembers the image
and the sequence number that installed it — the anti-rollback state.

A registry may be bounded (``max_slots``): a real device has a fixed
storage budget, and an update naming a storage location the device has no
room for must fail cleanly *before* any install happens — the update
worker turns :class:`StorageFullError` into a distinct rejection status.

A registry may also garbage-collect (``gc_horizon``): a slot whose image
was superseded long ago — its install sequence is ``gc_horizon`` or more
behind the registry's newest sequence — has its image *bytes* dropped so
detached-but-stored payloads stop pinning ``ram_bytes`` forever.  GC
never touches anti-rollback state: the slot (and its sequence number)
survives eviction, so a replayed old manifest is still refused, and the
slot holding the newest sequence — the live one — is never evicted.
Sequences are assumed to be drawn from one maintainer-wide epoch counter
(as :class:`~repro.deploy.publish.FleetPublisher` does), which is what
makes cross-location comparison meaningful.

A registry may be backed by an :class:`~repro.rtos.nvm.NvmStore`
(``nvm``): installs and GC then persist the slot — image, name and
anti-rollback sequence — to simulated flash, and :meth:`restore`
rebuilds the registry after a power cycle.  Only *installed* state is
persisted; a reservation (an empty slot created by :meth:`slot` before a
fetch) lives purely in RAM, which is exactly why a crash mid-fetch can
never strand a reservation: power loss returns it automatically.

Corruption safety: flash records carry CRC framing and shadow copies
(see :mod:`repro.rtos.nvm`), but a record can still come back
unreadable (both copies torn, a bit flip in an unreplicated record).
:meth:`restore` **degrades instead of raising**: an unreadable slot
record is dropped — the image can be re-fetched — and counted in
:attr:`StorageRegistry.corrupt_dropped`.  The anti-rollback *sequence*,
however, must never be dropped: :meth:`install` writes it twice — once
inside the slot record and once as a small **redundant** record under
``suit/seq/<location>`` whose shadow copy is kept as a standing
replica — and :meth:`restore` replays those records last, so even a
device that lost a whole slot record still refuses replayed manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.suit import cbor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.nvm import NvmStore

#: NVM key prefix under which slots are persisted.
NVM_SLOT_PREFIX = "suit/slot/"
#: NVM key prefix of the redundant anti-rollback sequence records.
NVM_SEQ_PREFIX = "suit/seq/"


def _encode_record(record: dict, cache: dict | None) -> bytes:
    """Canonical CBOR of one NVM record, memoized in ``cache`` under the
    record's exact fields (wall-clock only)."""
    if cache is None:
        return cbor.encode(record)
    key = ("nvm-record", *record.items())
    encoded = cache.get(key)
    if encoded is None:
        encoded = cbor.encode(record)
        cache[key] = encoded
    return encoded


class StorageFullError(Exception):
    """No free slot for a new storage location (device budget exhausted)."""


@dataclass
class StorageSlot:
    """One hook's application image slot."""

    location: str
    image: bytes = b""
    sequence_number: int = -1
    installs: int = 0
    #: Human-readable name from the installing manifest; persisted so a
    #: rebooted device can re-activate what it had without the manifest.
    name: str = ""
    #: Runtime tag from the installing manifest (persisted for the same
    #: reason; slots from before runtimes existed restore as rBPF).
    runtime: str = "rbpf"

    @property
    def occupied(self) -> bool:
        return bool(self.image)


@dataclass
class StorageRegistry:
    """All slots of one device."""

    slots: dict[str, StorageSlot] = field(default_factory=dict)
    #: Maximum number of distinct storage locations; None means unbounded.
    max_slots: int | None = None
    #: Auto-GC horizon: after every install, occupied slots whose
    #: sequence is this far (or further) behind the newest sequence are
    #: evicted.  None disables automatic GC; :meth:`gc` still works.
    gc_horizon: int | None = None
    #: Lifetime count of images dropped by GC (observability).
    gc_evictions: int = 0
    #: Optional persistent backing store (survives power failure).
    nvm: "NvmStore | None" = None
    #: Slot records dropped by :meth:`restore` because both flash
    #: copies were unreadable (observability; images are re-fetchable).
    corrupt_dropped: int = 0

    def peek(self, location: str) -> StorageSlot | None:
        """The slot for ``location`` if it exists, without creating it."""
        return self.slots.get(location)

    def slot(self, location: str) -> StorageSlot:
        if location not in self.slots:
            if (self.max_slots is not None
                    and len(self.slots) >= self.max_slots):
                raise StorageFullError(
                    f"no free storage slot for {location!r} "
                    f"({len(self.slots)}/{self.max_slots} in use)"
                )
            self.slots[location] = StorageSlot(location=location)
        return self.slots[location]

    def release_if_empty(self, location: str) -> None:
        """Drop an unoccupied slot (undo a reservation that never
        installed — a failed fetch must not consume the budget).

        Only *virgin* reservations are dropped: a slot that is
        unoccupied because GC evicted its image still carries the
        anti-rollback sequence of the install it once held, and deleting
        it would let a replayed old manifest back in.
        """
        slot = self.slots.get(location)
        if slot is not None and not slot.occupied and slot.sequence_number < 0:
            del self.slots[location]

    def install(self, location: str, image: bytes,
                sequence_number: int, name: str = "",
                runtime: str = "rbpf",
                cache: dict | None = None) -> StorageSlot:
        """Store ``image`` in ``location``'s slot and persist it.

        ``cache`` is a fleet publish's release cache (see
        :attr:`~repro.suit.worker.SuitUpdateWorker.release_cache`): N
        devices installing the same release persist byte-identical
        records, so their canonical CBOR is encoded once and shared.
        """
        slot = self.slot(location)
        slot.image = bytes(image)
        slot.sequence_number = sequence_number
        slot.installs += 1
        if name:
            slot.name = name
        slot.runtime = runtime
        self._persist(slot, cache)
        if self.gc_horizon is not None:
            self.gc()
        return slot

    def gc(self, horizon: int | None = None) -> list[str]:
        """Age out images whose sequence is ``horizon`` or more behind.

        Drops the image *bytes* of every occupied slot with
        ``sequence <= newest - horizon``; the slot itself — and with it
        the anti-rollback sequence — is kept, so storage freed by GC
        can never be re-filled by a replayed manifest.  The newest
        sequence's slot is by construction never evicted (``horizon``
        must be positive).  Returns the evicted locations.
        """
        if horizon is None:
            horizon = self.gc_horizon
        if horizon is None:
            return []
        if horizon < 1:
            raise ValueError(f"gc horizon must be >= 1, got {horizon}")
        newest = max((slot.sequence_number
                      for slot in self.slots.values()), default=-1)
        evicted = []
        for slot in self.slots.values():
            if slot.occupied and slot.sequence_number <= newest - horizon:
                slot.image = b""
                evicted.append(slot.location)
                self._persist(slot)
        self.gc_evictions += len(evicted)
        return evicted

    def highest_sequence(self, location: str) -> int:
        slot = self.peek(location)
        return slot.sequence_number if slot is not None else -1

    @property
    def ram_bytes(self) -> int:
        """RAM pinned by stored images."""
        return sum(len(slot.image) for slot in self.slots.values())

    # -- persistence -----------------------------------------------------------

    def _persist(self, slot: StorageSlot,
                 cache: dict | None = None) -> None:
        """Write one installed slot's durable state to NVM (if backed).

        Two records, in a deliberate order: the big slot record first
        (image + metadata), then the small **redundant** anti-rollback
        sequence record.  A power cut before the sequence record lands
        leaves the new image installed under the old (lower) sequence
        floor — safe, the floor only ever lags — while the reverse
        order could raise the floor above an image that never made it,
        bricking the slot against its own re-install.

        Only the host-side encoding is shared through ``cache``: every
        record is still framed, CRC'd, programmed and read back on this
        device's flash, at this device's cycle cost.
        """
        if self.nvm is None or slot.sequence_number < 0:
            return
        record = {
            "location": slot.location,
            "image": slot.image,
            "sequence": slot.sequence_number,
            "installs": slot.installs,
            "name": slot.name,
            "runtime": slot.runtime,
        }
        self.nvm.write(NVM_SLOT_PREFIX + slot.location,
                       _encode_record(record, cache))
        seq_record = {"location": slot.location,
                      "sequence": slot.sequence_number}
        self.nvm.write(NVM_SEQ_PREFIX + slot.location,
                       _encode_record(seq_record, cache), redundant=True)

    def _read_record(self, key: str) -> dict | None:
        """One validated, decoded NVM record — or ``None`` if unreadable."""
        raw = self.nvm.read(key)
        if raw is None:
            return None
        try:
            record = cbor.decode(raw)
        except Exception:
            return None
        return record if isinstance(record, dict) else None

    def restore(self) -> list[StorageSlot]:
        """Reload every persisted slot from NVM after a power cycle.

        Returns the restored slots (for the caller to re-activate).
        RAM-only reservations from before the crash do not reappear —
        they were never persisted — so the slot budget comes back
        exactly as large as the durable state requires.

        Corrupt slot records (both flash copies unreadable) are dropped
        and counted in :attr:`corrupt_dropped` — their image is gone
        but re-fetchable.  The redundant ``suit/seq/`` records are
        replayed afterwards: any anti-rollback sequence they carry is
        re-imposed on the (possibly skeleton) slot, so no corruption
        scenario short of losing *three* flash copies can regress a
        device's replay floor.
        """
        if self.nvm is None:
            return []
        restored = []
        for key in self.nvm.keys(NVM_SLOT_PREFIX):
            record = self._read_record(key)
            if record is None or "location" not in record:
                # Unreadable even via the shadow copy: drop the slot
                # gracefully (the seq pass below still restores its
                # anti-rollback floor).
                self.nvm.delete(key)
                self.corrupt_dropped += 1
                continue
            slot = StorageSlot(
                location=record["location"],
                image=bytes(record.get("image", b"")),
                sequence_number=record.get("sequence", -1),
                installs=record.get("installs", 0),
                name=record.get("name", ""),
                runtime=record.get("runtime", "rbpf"),
            )
            self.slots[slot.location] = slot
            restored.append(slot)
        for key in self.nvm.keys(NVM_SEQ_PREFIX):
            record = self._read_record(key)
            if record is None or "location" not in record:
                continue
            location = record["location"]
            sequence = record.get("sequence", -1)
            slot = self.slots.get(location)
            if slot is None:
                # The slot record was lost: resurrect an empty skeleton
                # carrying the anti-rollback floor (never droppable).
                slot = StorageSlot(location=location,
                                   sequence_number=sequence)
                self.slots[location] = slot
            else:
                slot.sequence_number = max(slot.sequence_number, sequence)
        return restored
