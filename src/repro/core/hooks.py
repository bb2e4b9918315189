"""Hooks (launchpads) — the only places containers can execute from (§5, §7).

Hooks are pre-compiled into the RTOS firmware; attaching or replacing a
container on a hook needs no firmware change, but adding a *new* hook does
(that asymmetry is the core of the paper's update story).  Each hook has a
UUID, which SUIT manifests use as the storage-location identifier when
deploying a container over the network.

Execution modes:

* ``sync`` — the hook fires inline on a hot code path (the scheduler hook
  of Listing 2): the container runs synchronously and its cost is added to
  the path (Table 4 measures exactly this).
* ``thread`` — the firing posts an event to the container's worker thread
  (the paper's "each Femto-Container runs in a separate thread"); used by
  timer- and network-triggered business logic.
"""

from __future__ import annotations

import enum
import uuid as uuid_module
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.policy import HookPolicy
from repro.memo import Memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer

#: Namespace for deterministic hook UUIDs (uuid5 of the hook name).
_HOOK_NAMESPACE = uuid_module.UUID("8d1b6b2e-70e5-4b86-9f3a-4f1d1ad0fc55")

# Well-known hook names (the firmware's pre-provisioned launchpads).
FC_HOOK_SCHED = "fc.hook.sched"
FC_HOOK_TIMER = "fc.hook.timer"
FC_HOOK_COAP = "fc.hook.coap"
FC_HOOK_SENSOR_READ = "fc.hook.sensor-read"
FC_HOOK_NET_RX = "fc.hook.net-rx"
#: Synchronous benchmark launchpad for the multi-instance fan-out
#: scenario (one image, K tenants x M instances on one hook).  Not part
#: of the default firmware build — scenarios register it explicitly, the
#: way a debug firmware would compile in an extra pad.
FC_HOOK_FANOUT = "fc.hook.fanout"


class HookMode(enum.Enum):
    SYNC = "sync"
    THREAD = "thread"


#: The OS-side ceiling of a hook that sets none: one frozen value every
#: such hook on every device shares.
DEFAULT_HOOK_POLICY = HookPolicy()

#: Hook name -> ``(UUID, its string form)``: a launchpad's identity is
#: part of the firmware, derived once per name for every device.
_IDENTITIES = Memo(256)


def _identity(name: str) -> tuple[uuid_module.UUID, str]:
    """A hook name's UUID and the string key engines index it by."""

    def derive() -> tuple[uuid_module.UUID, str]:
        uuid = uuid_module.uuid5(_HOOK_NAMESPACE, name)
        return uuid, str(uuid)

    return _IDENTITIES.get_or_derive(name, derive)


@dataclass
class Hook:
    """One launchpad compiled into the firmware."""

    name: str
    mode: HookMode = HookMode.SYNC
    policy: HookPolicy = DEFAULT_HOOK_POLICY
    uuid: uuid_module.UUID = None  # type: ignore[assignment]
    #: Containers attached, in attach order (multiple tenants may share a
    #: hook; §10.3 "Multiple containers can be attached to the same
    #: launchpad hook").
    containers: list["FemtoContainer"] = field(default_factory=list)
    #: Number of times the hook fired (including with no container).
    fires: int = 0
    #: Fig 3's "Bypass with Default Result": the value the launchpad uses
    #: when no container is attached or an attached container faulted.
    default_result: int = 0
    #: §11 extension: per-tenant privilege overrides.  The paper notes
    #: "there is only one fixed set of privileges possible per hook. In
    #: case 2 tenants have different privileges, a second hook must be
    #: made available" — this map removes that limitation without
    #: duplicating hooks.
    tenant_policies: dict[str, HookPolicy] = field(default_factory=dict)
    #: ``str(uuid)``, the key SUIT manifests name this hook by.
    uuid_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.uuid is None:
            self.uuid, self.uuid_key = _identity(self.name)
        else:
            self.uuid_key = str(self.uuid)

    def policy_for(self, tenant_name: str | None) -> HookPolicy:
        """Resolve the OS-side ceiling for a given tenant."""
        if tenant_name is not None and tenant_name in self.tenant_policies:
            return self.tenant_policies[tenant_name]
        return self.policy

    @property
    def occupied(self) -> bool:
        return bool(self.containers)
