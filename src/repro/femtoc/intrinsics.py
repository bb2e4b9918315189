"""femtoC intrinsics: the callable surface of a container.

Each intrinsic lowers to an eBPF helper call (or an inline load for the
``ctx_*`` accessors).  This mirrors the real toolchain, where the C
sources call the ``bpf_*`` helpers declared in ``bpf/bpfapi/helpers.h``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vm import helpers as h


@dataclass(frozen=True)
class Intrinsic:
    """One helper-backed builtin function."""

    name: str
    helper_id: int
    arg_count: int
    #: "value"   -> plain args in r1..rN, result in r0;
    #: "fetch"   -> (key) with an output pointer in r2, returns the value;
    #: "saul"    -> (handle) with a phydat pointer in r2, returns val[0].
    form: str = "value"


INTRINSICS: dict[str, Intrinsic] = {
    "store_local": Intrinsic("store_local", h.BPF_STORE_LOCAL, 2),
    "store_global": Intrinsic("store_global", h.BPF_STORE_GLOBAL, 2),
    "store_tenant": Intrinsic("store_tenant", h.BPF_STORE_TENANT, 2),
    "fetch_local": Intrinsic("fetch_local", h.BPF_FETCH_LOCAL, 1, "fetch"),
    "fetch_global": Intrinsic("fetch_global", h.BPF_FETCH_GLOBAL, 1, "fetch"),
    "fetch_tenant": Intrinsic("fetch_tenant", h.BPF_FETCH_TENANT, 1, "fetch"),
    "now_ms": Intrinsic("now_ms", h.BPF_NOW_MS, 0),
    "ztimer_now": Intrinsic("ztimer_now", h.BPF_ZTIMER_NOW, 0),
    "saul_find": Intrinsic("saul_find", h.BPF_SAUL_REG_FIND_TYPE, 1),
    "saul_read": Intrinsic("saul_read", h.BPF_SAUL_REG_READ, 1, "saul"),
    "saul_write": Intrinsic("saul_write", h.BPF_SAUL_REG_WRITE, 2),
    "gcoap_resp_init": Intrinsic("gcoap_resp_init", h.BPF_GCOAP_RESP_INIT, 2),
    "coap_add_format": Intrinsic("coap_add_format", h.BPF_COAP_ADD_FORMAT, 2),
    "coap_opt_finish": Intrinsic("coap_opt_finish", h.BPF_COAP_OPT_FINISH, 2),
    "coap_get_pdu": Intrinsic("coap_get_pdu", h.BPF_COAP_GET_PDU, 1),
}

#: Context accessors: name -> the load mnemonic of their width.
CTX_ACCESSORS = {
    "ctx_u8": "ldxb",
    "ctx_u16": "ldxh",
    "ctx_u32": "ldxw",
    "ctx_u64": "ldxdw",
}
