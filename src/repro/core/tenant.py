"""Tenants: the mutually-distrusting parties deploying containers (§2, §3).

A tenant owns a set of containers and one tenant-scoped key-value store
shared among them.  The threat model's "malicious tenant" is exercised in
tests by running adversarial bytecode under a tenant and asserting that
neither the OS, nor other tenants' stores and memory, are reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.kvstore import KeyValueStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer

#: Per-tenant housekeeping struct: identity, permissions, container list
#: head, store reference (the "(and housekeeping)" of §10.3's 340 B).
TENANT_STRUCT_BYTES = 40


@dataclass
class Tenant:
    """One code-deploying party on the device."""

    name: str
    store: KeyValueStore = field(default=None)  # type: ignore[assignment]
    #: The tenant's live containers: loaded or attached, in adoption
    #: order (a re-attached container re-joins at the end, as on its
    #: hook).  The engine adopts on load and attach and releases on
    #: detach and on a rejected attach, so a replaced or detached
    #: instance neither counts toward :attr:`ram_bytes` nor stays
    #: reachable from here.
    containers: list["FemtoContainer"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = KeyValueStore(name=f"{self.name}-store", scope="tenant")

    def adopt(self, container: "FemtoContainer") -> None:
        if container not in self.containers:
            self.containers.append(container)

    def release(self, container: "FemtoContainer") -> None:
        """Forget a container that left the device (idempotent)."""
        if container in self.containers:
            self.containers.remove(container)

    @property
    def ram_bytes(self) -> int:
        """Tenant-attributable RAM: housekeeping, store and containers."""
        return TENANT_STRUCT_BYTES + self.store.ram_bytes + sum(
            container.ram_bytes for container in self.containers
        )

    def __hash__(self) -> int:
        return hash(self.name)
