"""Helper (system call) implementations: kv, time, SAUL, CoAP, formatting."""

from __future__ import annotations

import struct

import pytest

from repro.core import (
    CoapResponseContext,
    FC_HOOK_COAP,
    FC_HOOK_TIMER,
    HostingEngine,
    format_s16_dfp,
)
from repro.core.syscalls import PDU_PAYLOAD_BASE
from repro.rtos import (
    Kernel,
    nrf52840,
    synthetic_switch,
    synthetic_temperature,
)
from repro.vm import assemble


def attach(engine, source, tenant=None, rodata=b""):
    container = engine.load(assemble(source, rodata=rodata), tenant=tenant)
    engine.attach(container, FC_HOOK_TIMER)
    return container


class TestKvHelpers:
    FETCH_ADD_STORE = """
    mov r1, 5
    mov r2, r10
    call {fetch}
    ldxw r3, [r10+0]
    add r3, 1
    mov r1, 5
    mov r2, r3
    call {store}
    mov r0, r3
    exit
"""

    @pytest.mark.parametrize("scope,fetch,store", [
        ("local", "bpf_fetch_local", "bpf_store_local"),
        ("global", "bpf_fetch_global", "bpf_store_global"),
        ("tenant", "bpf_fetch_tenant", "bpf_store_tenant"),
    ])
    def test_fetch_increment_store(self, engine, scope, fetch, store):
        tenant = engine.create_tenant("T") if scope == "tenant" else None
        source = self.FETCH_ADD_STORE.format(fetch=fetch, store=store)
        container = attach(engine, source, tenant=tenant)
        assert engine.execute(container).value == 1
        assert engine.execute(container).value == 2
        store_obj = {
            "local": container.local_store,
            "global": engine.global_store,
            "tenant": tenant.store if tenant else None,
        }[scope]
        assert store_obj.fetch(5) == 2

    def test_local_stores_are_per_container(self, engine):
        source = self.FETCH_ADD_STORE.format(
            fetch="bpf_fetch_local", store="bpf_store_local")
        one = attach(engine, source)
        two = attach(engine, source)
        engine.execute(one)
        engine.execute(one)
        assert engine.execute(two).value == 1  # not 3

    def test_tenant_store_requires_tenant(self, engine):
        source = "mov r1, 1\n    mov r2, 2\n    call bpf_store_tenant\n    exit"
        orphan = attach(engine, source)
        run = engine.execute(orphan)
        assert not run.ok and run.fault.kind == "HelperFault"


class TestTimeHelpers:
    def test_now_ms_tracks_clock(self, engine, kernel):
        container = attach(engine, "call bpf_now_ms\n    exit")
        kernel.clock.charge_us(5_000)
        assert engine.execute(container).value == 5

    def test_ztimer_now_microseconds(self, engine, kernel):
        container = attach(engine, "call bpf_ztimer_now\n    exit")
        kernel.clock.charge_us(1234)
        assert engine.execute(container).value >= 1234


class TestSaulHelpers:
    READ_TEMP = """
    mov r1, 0x82
    call bpf_saul_reg_find_type
    jne r0, 0, ok
    mov r0, 0
    exit
ok:
    mov r1, r0
    mov r2, r10
    add r2, 8
    call bpf_saul_reg_read
    ldxh r0, [r10+8]
    exit
"""

    def test_find_and_read_temperature(self, engine, kernel):
        engine.saul.register(synthetic_temperature(kernel, seed=1))
        container = attach(engine, self.READ_TEMP)
        value = engine.execute(container).value
        assert 1700 <= value <= 2600  # centi-degrees, plausible range

    def test_find_type_missing_returns_zero(self, engine):
        container = attach(engine, self.READ_TEMP)
        assert engine.execute(container).value == 0

    def test_write_actuator(self, engine):
        device = synthetic_switch()
        engine.saul.register(device)
        source = """
    mov r1, 0x01
    call bpf_saul_reg_find_type
    mov r1, r0
    mov r2, 1
    call bpf_saul_reg_write
    exit
"""
        container = attach(engine, source)
        engine.execute(container)
        assert device.read().value == 1

    def test_bad_handle_faults_contained(self, engine):
        source = "mov r1, 99\n    mov r2, r10\n    call bpf_saul_reg_read\n    exit"
        container = attach(engine, source)
        run = engine.execute(container)
        assert not run.ok


class TestFormatHelpers:
    def test_fmt_u32_dec(self, engine):
        source = """
    mov r1, r10
    mov r2, 12345
    call bpf_fmt_u32_dec
    exit
"""
        container = attach(engine, source)
        run = engine.execute(container)
        assert run.value == 5
        assert bytes(container.vm.stack.data[:5]) == b"12345"

    def test_fmt_s16_dfp_positive(self):
        assert format_s16_dfp(2150, -2) == "21.50"

    def test_fmt_s16_dfp_negative_value(self):
        assert format_s16_dfp((-525) & 0xFFFF, -2) == "-5.25"

    def test_fmt_s16_dfp_zero_digits(self):
        assert format_s16_dfp(42, 0) == "42"

    def test_fmt_s16_dfp_positive_exponent(self):
        assert format_s16_dfp(42, 2) == "4200"

    def test_memcpy_between_regions(self, engine):
        source = """
    mov r1, r10          ; dst: stack
    lddwr r2, 0          ; src: rodata
    mov r3, 5            ; length
    call bpf_memcpy
    ldxb r0, [r10+0]
    exit
"""
        container = attach(engine, source, rodata=b"hello")
        run = engine.execute(container)
        assert run.ok
        assert run.value == ord("h")
        assert bytes(container.vm.stack.data[:5]) == b"hello"


class TestCoapHelpers:
    def test_full_response_construction(self, engine):
        from repro.workloads import coap_handler_program

        tenant = engine.create_tenant("A")
        tenant.store.store(0x10, 777)
        container = engine.load(coap_handler_program(), tenant=tenant)
        engine.attach(container, FC_HOOK_COAP)
        pdu = CoapResponseContext(token_length=2)
        run = engine.execute(container, struct.pack("<Q", 1), pdu=pdu)
        assert run.ok
        assert pdu.code == 0x45
        assert pdu.content_format == 0
        assert pdu.payload_bytes() == b"777"
        assert run.value == pdu.header_length + 3

    def test_coap_helper_outside_coap_run_faults(self, engine):
        source = "mov r1, 1\n    mov r2, 0x45\n    call bpf_gcoap_resp_init\n    exit"
        container = attach(engine, source)
        run = engine.execute(container)  # no pdu passed
        assert not run.ok

    def test_pdu_region_unmapped_after_run(self, engine):
        source = """
    mov r1, 1
    call bpf_coap_get_pdu
    mov r0, r0
    exit
"""
        container = engine.load(assemble(source))
        engine.attach(container, FC_HOOK_COAP)
        pdu = CoapResponseContext()
        run = engine.execute(container, struct.pack("<Q", 1), pdu=pdu)
        assert run.ok and run.value == PDU_PAYLOAD_BASE
        # A later non-CoAP run must not still see the PDU buffer.
        probe = engine.load(assemble(
            f"lddw r1, 0x{PDU_PAYLOAD_BASE:x}\n    ldxb r0, [r1]\n    exit"
        ))
        engine.attach(probe, FC_HOOK_COAP)
        run2 = engine.execute(probe)
        assert not run2.ok


def on_both_engines(source, setup=lambda engine: None):
    """One run of ``source`` on a fresh interpreter device and a fresh JIT
    device: ``implementation -> (engine, container, run)``.  Both runs
    complete with the same value and the same counts."""
    outcomes = {}
    for implementation in ("femto-containers", "jit"):
        engine = HostingEngine(Kernel(nrf52840()),
                               implementation=implementation)
        setup(engine)
        container = attach(engine, source)
        outcomes[implementation] = (engine, container,
                                    engine.execute(container))
    interpreted = outcomes["femto-containers"][2]
    compiled = outcomes["jit"][2]
    assert interpreted.ok and compiled.ok
    assert compiled.value == interpreted.value
    assert compiled.stats == interpreted.stats
    return outcomes


class TestPaperHelpersOnBothEngines:
    """Helpers of the paper's table that no shipped workload calls."""

    @pytest.mark.parametrize("value,digits,text", [
        (2150, -2, b"21.50"), (-525, -2, b"-5.25"), (42, 1, b"420")])
    def test_fmt_s16_dfp(self, value, digits, text):
        source = f"""
    mov r1, r10
    mov r2, {value}
    mov r3, {digits}
    call bpf_fmt_s16_dfp
    exit
"""
        for _, container, run in on_both_engines(source).values():
            assert run.value == len(text)
            assert bytes(container.vm.stack.data[:len(text)]) == text

    @pytest.mark.parametrize("index,handle,switched", [(1, 2, 1), (7, 0, 0)])
    def test_saul_reg_find_nth(self, index, handle, switched):
        """The n-th driver's handle (n + 1, or 0 past the end) is one
        ``bpf_saul_reg_write`` accepts."""
        source = f"""
    mov r1, {index}
    call bpf_saul_reg_find_nth
    mov r6, r0
    jeq r6, 0, done
    mov r1, r6
    mov r2, 1
    call bpf_saul_reg_write
done:
    mov r0, r6
    exit
"""
        switches = []

        def setup(engine):
            engine.saul.register(synthetic_temperature(engine.kernel))
            switches.append(synthetic_switch())
            engine.saul.register(switches[-1])

        outcomes = on_both_engines(source, setup)
        for (_, _, run), switch in zip(outcomes.values(), switches):
            assert run.value == handle
            assert switch.read().values == (switched,)

    def test_ztimer_periodic_wakeup_is_an_acknowledgement(self):
        """Periodic firing is configured on the hook, so inside the VM the
        helper returns 0, writes nothing and arms no timer."""
        source = """
    stw [r10+0], 77
    mov r1, r10
    mov r2, 1000
    call bpf_ztimer_periodic_wakeup
    exit
"""
        for engine, container, run in on_both_engines(source).values():
            assert run.value == 0
            assert bytes(container.vm.stack.data[:4]) == struct.pack("<I", 77)
            assert engine.kernel.timers.pending == 0
