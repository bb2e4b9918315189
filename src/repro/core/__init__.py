"""The Femto-Container middleware — the paper's primary contribution.

Public surface: :class:`~repro.core.engine.HostingEngine` (attach/execute
containers on hooks), :class:`~repro.core.container.FemtoContainer`,
tenants, contracts, key-value stores and the helper system-call layer.
"""

from repro.core.container import (
    ContainerRun,
    ContainerState,
    FaultRecord,
    FemtoContainer,
)
from repro.core.engine import HookFiring, HostingEngine
from repro.core.errors import AttachError, EngineError, UnknownHookError
from repro.core.hooks import (
    FC_HOOK_COAP,
    FC_HOOK_FANOUT,
    FC_HOOK_NET_RX,
    FC_HOOK_SCHED,
    FC_HOOK_SENSOR_READ,
    FC_HOOK_TIMER,
    Hook,
    HookMode,
)
from repro.core.kvstore import KeyValueStore
from repro.core.policy import (
    ContainerContract,
    GrantedPolicy,
    HookPolicy,
    MemoryGrant,
    PolicyError,
    grant,
)
from repro.core.syscalls import (
    COAP_CODE_CHANGED,
    COAP_CODE_CONTENT,
    DEFAULT_HELPERS,
    CoapResponseContext,
    format_s16_dfp,
)
from repro.core.tenant import Tenant

__all__ = [
    "AttachError",
    "COAP_CODE_CHANGED",
    "COAP_CODE_CONTENT",
    "CoapResponseContext",
    "DEFAULT_HELPERS",
    "ContainerContract",
    "ContainerRun",
    "ContainerState",
    "EngineError",
    "FC_HOOK_COAP",
    "FC_HOOK_FANOUT",
    "FC_HOOK_NET_RX",
    "FC_HOOK_SCHED",
    "FC_HOOK_SENSOR_READ",
    "FC_HOOK_TIMER",
    "FaultRecord",
    "FemtoContainer",
    "GrantedPolicy",
    "Hook",
    "HookFiring",
    "HookMode",
    "HookPolicy",
    "HostingEngine",
    "KeyValueStore",
    "MemoryGrant",
    "PolicyError",
    "Tenant",
    "UnknownHookError",
    "format_s16_dfp",
    "grant",
]
