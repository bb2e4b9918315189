"""Helper (system call) registry exposed to Femto-Container applications.

Applications escape the sandbox only through the eBPF ``call`` instruction.
Each helper has a numeric id (the ``call`` immediate), a name, and a *cost
key* used by the per-platform cycle models to charge realistic syscall
costs.  The concrete helper implementations that bridge into the RTOS live
in :mod:`repro.core.syscalls`; this module only defines the registry
machinery and the stable id assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.vm.errors import HelperFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.interpreter import Interpreter


# Stable helper id assignment (mirrors the femto-containers bpfapi layout).
BPF_PRINTF = 0x01
BPF_MEMCPY = 0x02
BPF_STORE_LOCAL = 0x10
BPF_STORE_GLOBAL = 0x11
BPF_FETCH_LOCAL = 0x12
BPF_FETCH_GLOBAL = 0x13
BPF_STORE_TENANT = 0x14
BPF_FETCH_TENANT = 0x15
BPF_NOW_MS = 0x20
BPF_SAUL_REG_FIND_NTH = 0x30
BPF_SAUL_REG_FIND_TYPE = 0x31
BPF_SAUL_REG_READ = 0x32
BPF_SAUL_REG_WRITE = 0x33
BPF_GCOAP_RESP_INIT = 0x40
BPF_COAP_OPT_FINISH = 0x41
BPF_COAP_ADD_FORMAT = 0x42
BPF_COAP_GET_PDU = 0x43
BPF_FMT_S16_DFP = 0x50
BPF_FMT_U32_DEC = 0x51
BPF_ZTIMER_NOW = 0x60
BPF_ZTIMER_PERIODIC_WAKEUP = 0x61

HELPER_NAMES = {
    BPF_PRINTF: "bpf_printf",
    BPF_MEMCPY: "bpf_memcpy",
    BPF_STORE_LOCAL: "bpf_store_local",
    BPF_STORE_GLOBAL: "bpf_store_global",
    BPF_FETCH_LOCAL: "bpf_fetch_local",
    BPF_FETCH_GLOBAL: "bpf_fetch_global",
    BPF_STORE_TENANT: "bpf_store_tenant",
    BPF_FETCH_TENANT: "bpf_fetch_tenant",
    BPF_NOW_MS: "bpf_now_ms",
    BPF_SAUL_REG_FIND_NTH: "bpf_saul_reg_find_nth",
    BPF_SAUL_REG_FIND_TYPE: "bpf_saul_reg_find_type",
    BPF_SAUL_REG_READ: "bpf_saul_reg_read",
    BPF_SAUL_REG_WRITE: "bpf_saul_reg_write",
    BPF_GCOAP_RESP_INIT: "bpf_gcoap_resp_init",
    BPF_COAP_OPT_FINISH: "bpf_coap_opt_finish",
    BPF_COAP_ADD_FORMAT: "bpf_coap_add_format",
    BPF_COAP_GET_PDU: "bpf_coap_get_pdu",
    BPF_FMT_S16_DFP: "bpf_fmt_s16_dfp",
    BPF_FMT_U32_DEC: "bpf_fmt_u32_dec",
    BPF_ZTIMER_NOW: "bpf_ztimer_now",
    BPF_ZTIMER_PERIODIC_WAKEUP: "bpf_ztimer_periodic_wakeup",
}

#: name -> id lookup used by the assembler (``call bpf_fetch_global``).
HELPER_IDS = {name: hid for hid, name in HELPER_NAMES.items()}

#: Helper function signature: (vm, r1, r2, r3, r4, r5) -> r0.
HelperFn = Callable[["Interpreter", int, int, int, int, int], int]


@dataclass(frozen=True)
class Helper:
    """A registered system call."""

    helper_id: int
    name: str
    fn: HelperFn
    #: Key into the board syscall-cost table ("kv", "saul", "coap", "fmt",
    #: "time", "trace", "mem").
    cost_key: str = "trace"


class HelperRegistry:
    """The set of helpers a hosting engine exposes to its containers.

    Every engine's registry starts as a :meth:`share` of the one default
    table (:data:`repro.core.syscalls.DEFAULT_HELPERS`), the way every
    device's firmware links the same bpfapi: the table and its id set
    are built once per process.  A :meth:`register` copies the table
    first, so it changes this registry alone.
    """

    __slots__ = ("table", "_ids", "_shared")

    def __init__(self) -> None:
        #: helper id -> :class:`Helper`.  The interpreter dispatches a
        #: ``call`` straight from it; change it only through
        #: :meth:`register`.
        self.table: dict[int, Helper] = {}
        self._ids: frozenset[int] | None = None
        #: ``table`` is also another registry's: copy before writing.
        self._shared = False

    def share(self) -> "HelperRegistry":
        """A registry over this one's table (and id set), copied by
        whichever of the two registers first."""
        other = HelperRegistry.__new__(HelperRegistry)
        other.table = self.table
        other._ids = self.ids()
        other._shared = self._shared = True
        return other

    def register(self, helper_id: int, fn: HelperFn, name: str | None = None,
                 cost_key: str = "trace") -> Helper:
        """Register ``fn`` under ``helper_id``; replaces any previous entry."""
        helper = Helper(
            helper_id=helper_id,
            name=name or HELPER_NAMES.get(helper_id, f"helper_0x{helper_id:02x}"),
            fn=fn,
            cost_key=cost_key,
        )
        if self._shared:
            self.table = dict(self.table)
            self._shared = False
        self.table[helper_id] = helper
        self._ids = None
        return helper

    def call(self, vm: "Interpreter", helper_id: int,
             r1: int, r2: int, r3: int, r4: int, r5: int) -> int:
        helper = self.table.get(helper_id)
        if helper is None:
            raise HelperFault(f"unknown helper id 0x{helper_id:02x}")
        result = helper.fn(vm, r1, r2, r3, r4, r5)
        return 0 if result is None else int(result) & 0xFFFFFFFFFFFFFFFF

    def ids(self) -> frozenset[int]:
        """The registered ids (rebuilt only after a :meth:`register`)."""
        if self._ids is None:
            self._ids = frozenset(self.table)
        return self._ids

    def __contains__(self, helper_id: int) -> bool:
        return helper_id in self.table
