"""Key-value stores — the Femto-Container persistence mechanism (§7).

In lieu of a file system, applications load and store 32-bit values by
numerical key.  Three scopes exist, mirroring the paper exactly:

* **local** — private to one container instance, persists across its
  invocations;
* **tenant** — shared by all containers of one tenant (the "optional third
  intermediate-level" store of §7), isolated from other tenants;
* **global** — shared by every container on the device (used by the §8
  examples to hand values from one tenant's sensor container to the
  device-wide thread-counter).

RAM accounting mirrors the C implementation: a fixed per-store header plus
a linked-list entry per key (key + value + next pointer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Per-store housekeeping struct (list head, lock, owner), bytes.
STORE_HEADER_BYTES = 20
#: Per-entry footprint: 4 B key + 4 B value + 4 B next pointer.
ENTRY_BYTES = 12

_VALUE_MASK = (1 << 32) - 1


@dataclass
class KeyValueStore:
    """One store instance with RIOT-style RAM accounting."""

    name: str
    scope: str = "local"
    _entries: dict[int, int] = field(default_factory=dict)
    #: Lifetime statistics (observability for tests and examples).
    fetches: int = 0
    stores: int = 0

    def fetch(self, key: int) -> int:
        """Read the value for ``key``; missing keys read as 0.

        Matches the C helper semantics: ``bpf_fetch_*`` leaves the output
        zeroed when the key does not exist yet.
        """
        self.fetches += 1
        return self._entries.get(key & _VALUE_MASK, 0)

    def store(self, key: int, value: int) -> None:
        """Store a 32-bit value under a 32-bit key."""
        self.stores += 1
        self._entries[key & _VALUE_MASK] = value & _VALUE_MASK

    def delete(self, key: int) -> bool:
        return self._entries.pop(key & _VALUE_MASK, None) is not None

    def keys(self) -> list[int]:
        return sorted(self._entries)

    def snapshot(self) -> dict[int, int]:
        """Copy of the contents (examples/tests observability)."""
        return dict(self._entries)

    @property
    def ram_bytes(self) -> int:
        """Current RAM footprint of this store (§10.3 accounting)."""
        return STORE_HEADER_BYTES + ENTRY_BYTES * len(self._entries)

    def __contains__(self, key: int) -> bool:
        return (key & _VALUE_MASK) in self._entries

    def __len__(self) -> int:
        return len(self._entries)
