"""Helper (system call) implementations bridging containers to the RTOS.

These are the concrete functions behind the helper ids of
:mod:`repro.vm.helpers`: key-value store access, timers, SAUL sensor reads,
CoAP response construction and string formatting — the complete bpfapi
surface used by the paper's examples (Listing 2, the §8.3 sensor/CoAP
snippets).

Every pointer argument a container passes is a *virtual* address resolved
through its access list, so a malicious container cannot use helpers to
escape its sandbox: reads and writes through helper pointers fault exactly
like direct load/store instructions would.

Like the firmware they model, the helpers are built once: each is a plain
function of the calling VM, which reaches the engine that attached it as
``vm.services``, so one table (:data:`DEFAULT_HELPERS`) serves every
engine in the process.  A VM no engine attached reaches no engine: its
helper calls fault.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vm import helpers as h
from repro.vm.errors import HelperFault
from repro.vm.helpers import HelperRegistry
from repro.vm.memory import MemoryRegion, Permission

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.kvstore import KeyValueStore
    from repro.vm.interpreter import Interpreter

#: Virtual address where the CoAP PDU payload buffer is mapped.
PDU_PAYLOAD_BASE = 0x6800_0000

#: CoAP code constants containers use (subset of RFC 7252).
COAP_CODE_CONTENT = 0x45  # 2.05
COAP_CODE_CHANGED = 0x44  # 2.04

_U32 = (1 << 32) - 1


@dataclass
class CoapResponseContext:
    """The ``bpf_coap_ctx_t`` a CoAP-triggered container manipulates.

    The network stack creates one per request; the hosting engine maps its
    payload buffer into the container's address space for the duration of
    the execution.
    """

    token_length: int = 2
    payload_capacity: int = 64
    code: int = 0
    content_format: int | None = None
    payload_length: int = 0
    region: MemoryRegion = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.region is None:
            self.region = MemoryRegion.zeroed(
                "coap-pdu", PDU_PAYLOAD_BASE, self.payload_capacity,
                Permission.READ_WRITE,
            )

    @property
    def header_length(self) -> int:
        """Bytes before the payload: base header, token, options, marker."""
        options = 0 if self.content_format is None else 2
        return 4 + self.token_length + options + 1

    def payload_bytes(self) -> bytes:
        return self.region.read_bytes(PDU_PAYLOAD_BASE, self.payload_length)


def _current(vm: "Interpreter") -> "FemtoContainer":
    """The container running on ``vm``'s engine; a VM no engine runs
    reaches no container."""
    engine = vm.services
    container = None if engine is None else engine.current_container
    if container is None:
        raise HelperFault("helper called outside a container execution")
    return container


def _engine(vm: "Interpreter") -> "HostingEngine":
    """The engine that attached ``vm``."""
    engine = vm.services
    if engine is None:
        raise HelperFault("helper called outside a hosting engine")
    return engine


def _current_pdu(vm: "Interpreter") -> CoapResponseContext:
    pdu = _engine(vm).current_pdu
    if pdu is None:
        raise HelperFault("CoAP helper called outside a CoAP-triggered run")
    return pdu


def format_s16_dfp(value: int, fp_digits: int) -> str:
    """RIOT's ``fmt_s16_dfp``: render value * 10^fp_digits as decimal."""
    if value >= 1 << 15:
        value -= 1 << 16
    if fp_digits == 0:
        return str(value)
    if fp_digits > 0:
        return str(value) + "0" * fp_digits
    divisor = 10 ** (-fp_digits)
    sign = "-" if value < 0 else ""
    magnitude = abs(value)
    return f"{sign}{magnitude // divisor}.{magnitude % divisor:0{-fp_digits}d}"


def _format_printf(fmt: bytes, args: list[int]) -> str:
    """Minimal C-style formatter supporting %d/%u/%x/%c/%%."""
    out: list[str] = []
    arg_index = 0
    i = 0
    text = fmt.decode("ascii", errors="replace")
    while i < len(text):
        ch = text[i]
        if ch != "%" or i + 1 >= len(text):
            out.append(ch)
            i += 1
            continue
        spec = text[i + 1]
        i += 2
        if spec == "%":
            out.append("%")
            continue
        value = args[arg_index] if arg_index < len(args) else 0
        arg_index += 1
        if spec == "d":
            signed = value - (1 << 64) if value >= 1 << 63 else value
            out.append(str(signed))
        elif spec == "u":
            out.append(str(value))
        elif spec == "x":
            out.append(format(value, "x"))
        elif spec == "c":
            out.append(chr(value & 0x7F))
        else:
            out.append("%" + spec)
    return "".join(out)


# -- tracing / memory ---------------------------------------------------------


def bpf_printf(vm: "Interpreter", fmt_ptr, a1, a2, a3, _r5):
    fmt = vm.access_list.read_cstring(fmt_ptr)
    _engine(vm).trace_log.append(_format_printf(fmt, [a1, a2, a3]))
    return 0


def bpf_memcpy(vm: "Interpreter", dst, src, length, _r4, _r5):
    length &= 0xFFFF
    payload = vm.access_list.read_bytes(src, length)
    vm.access_list.write_bytes(dst, payload)
    return dst


# -- key-value stores ---------------------------------------------------------


def _tenant_store(vm: "Interpreter") -> KeyValueStore:
    container = _current(vm)
    if container.tenant is None:
        raise HelperFault("container has no tenant for tenant-store access")
    return container.tenant.store


def bpf_store_local(vm: "Interpreter", key, value, _r3, _r4, _r5):
    _current(vm).local_store.store(key & _U32, value & _U32)
    return 0


def bpf_store_global(vm: "Interpreter", key, value, _r3, _r4, _r5):
    _current(vm)
    vm.services.global_store.store(key & _U32, value & _U32)
    return 0


def bpf_store_tenant(vm: "Interpreter", key, value, _r3, _r4, _r5):
    _tenant_store(vm).store(key & _U32, value & _U32)
    return 0


def bpf_fetch_local(vm: "Interpreter", key, value_ptr, _r3, _r4, _r5):
    value = _current(vm).local_store.fetch(key & _U32)
    vm.access_list.store(value_ptr, 4, value)
    return 0


def bpf_fetch_global(vm: "Interpreter", key, value_ptr, _r3, _r4, _r5):
    _current(vm)
    value = vm.services.global_store.fetch(key & _U32)
    vm.access_list.store(value_ptr, 4, value)
    return 0


def bpf_fetch_tenant(vm: "Interpreter", key, value_ptr, _r3, _r4, _r5):
    value = _tenant_store(vm).fetch(key & _U32)
    vm.access_list.store(value_ptr, 4, value)
    return 0


# -- time ---------------------------------------------------------------------


def bpf_now_ms(vm: "Interpreter", _r1, _r2, _r3, _r4, _r5):
    return int(_engine(vm).kernel.clock.time_ms)


def bpf_ztimer_now(vm: "Interpreter", _r1, _r2, _r3, _r4, _r5):
    return int(_engine(vm).kernel.clock.time_us)


def bpf_ztimer_periodic_wakeup(vm, _last_ptr, _period, _r3, _r4, _r5):
    # Containers are event-driven; periodic scheduling is configured on
    # the hook, so inside the VM this is a no-op acknowledgement.
    return 0


# -- SAUL ---------------------------------------------------------------------


def bpf_saul_reg_find_nth(vm: "Interpreter", index, _r2, _r3, _r4, _r5):
    device = _engine(vm).saul.find_nth(index)
    return 0 if device is None else index + 1


def bpf_saul_reg_find_type(vm: "Interpreter", device_class, _2, _3, _4, _5):
    found = _engine(vm).saul.find_type(device_class)
    return 0 if found is None else found[0] + 1


def _device(vm: "Interpreter", handle: int):
    device = _engine(vm).saul.find_nth(handle - 1) if handle else None
    if device is None:
        raise HelperFault(f"invalid SAUL handle {handle}")
    return device


def bpf_saul_reg_read(vm: "Interpreter", handle, phydat_ptr, _3, _4, _5):
    data = _device(vm, handle).read()
    values = [
        max(-(1 << 15), min(v, (1 << 15) - 1)) for v in data.values[:3]
    ]
    values += [0] * (3 - len(values))
    packed = struct.pack("<hhhBb", *values, 0, data.scale)
    vm.access_list.write_bytes(phydat_ptr, packed)
    return len(data.values)


def bpf_saul_reg_write(vm: "Interpreter", handle, value, _3, _4, _5):
    return _device(vm, handle).write(value & _U32)


# -- CoAP response construction -----------------------------------------------


def bpf_gcoap_resp_init(vm: "Interpreter", _ctx, code, _3, _4, _5):
    _current_pdu(vm).code = code & 0xFF
    return 0


def bpf_coap_add_format(vm: "Interpreter", _ctx, content_format, _3, _4, _5):
    _current_pdu(vm).content_format = content_format & 0xFFFF
    return 0


def bpf_coap_opt_finish(vm: "Interpreter", _ctx, _flags, _3, _4, _5):
    return _current_pdu(vm).header_length


def bpf_coap_get_pdu(vm: "Interpreter", _ctx, _r2, _3, _4, _5):
    pdu = _current_pdu(vm)
    if all(region is not pdu.region for region in vm.access_list.regions):
        vm.access_list.add(pdu.region)
    return PDU_PAYLOAD_BASE


# -- formatting ---------------------------------------------------------------


def bpf_fmt_u32_dec(vm: "Interpreter", buf_ptr, value, _3, _4, _5):
    text = str(value & _U32).encode("ascii")
    vm.access_list.write_bytes(buf_ptr, text)
    return len(text)


def bpf_fmt_s16_dfp(vm: "Interpreter", buf_ptr, value, fp_digits, _4, _5):
    fp = fp_digits - (1 << 64) if fp_digits >= 1 << 63 else fp_digits
    text = format_s16_dfp(value & 0xFFFF, int(fp)).encode("ascii")
    vm.access_list.write_bytes(buf_ptr, text)
    return len(text)


# -- the firmware's helper table ----------------------------------------------

#: The full bpfapi helper set, built once per process.  Each engine's
#: ``helpers`` is a :meth:`~repro.vm.helpers.HelperRegistry.share` of
#: it, copied only if that engine registers a helper of its own.
DEFAULT_HELPERS = HelperRegistry()
for _helper_id, _fn, _cost_key in (
    (h.BPF_PRINTF, bpf_printf, "trace"),
    (h.BPF_MEMCPY, bpf_memcpy, "mem"),
    (h.BPF_STORE_LOCAL, bpf_store_local, "kv"),
    (h.BPF_STORE_GLOBAL, bpf_store_global, "kv"),
    (h.BPF_FETCH_LOCAL, bpf_fetch_local, "kv"),
    (h.BPF_FETCH_GLOBAL, bpf_fetch_global, "kv"),
    (h.BPF_STORE_TENANT, bpf_store_tenant, "kv"),
    (h.BPF_FETCH_TENANT, bpf_fetch_tenant, "kv"),
    (h.BPF_NOW_MS, bpf_now_ms, "time"),
    (h.BPF_ZTIMER_NOW, bpf_ztimer_now, "time"),
    (h.BPF_ZTIMER_PERIODIC_WAKEUP, bpf_ztimer_periodic_wakeup, "time"),
    (h.BPF_SAUL_REG_FIND_NTH, bpf_saul_reg_find_nth, "saul"),
    (h.BPF_SAUL_REG_FIND_TYPE, bpf_saul_reg_find_type, "saul"),
    (h.BPF_SAUL_REG_READ, bpf_saul_reg_read, "saul"),
    (h.BPF_SAUL_REG_WRITE, bpf_saul_reg_write, "saul"),
    (h.BPF_GCOAP_RESP_INIT, bpf_gcoap_resp_init, "coap"),
    (h.BPF_COAP_ADD_FORMAT, bpf_coap_add_format, "coap"),
    (h.BPF_COAP_OPT_FINISH, bpf_coap_opt_finish, "coap"),
    (h.BPF_COAP_GET_PDU, bpf_coap_get_pdu, "coap"),
    (h.BPF_FMT_U32_DEC, bpf_fmt_u32_dec, "fmt"),
    (h.BPF_FMT_S16_DFP, bpf_fmt_s16_dfp, "fmt"),
):
    DEFAULT_HELPERS.register(_helper_id, _fn, cost_key=_cost_key)
del _helper_id, _fn, _cost_key
