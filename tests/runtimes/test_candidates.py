"""§6 comparison: Tables 1 & 2 rows, pinned and shape-checked."""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import Hook, HookMode
from repro.deploy import ImageSpec
from repro.rtos import Kernel, nrf52840
from repro.runtimes import (
    MICROPYTHON_PROFILE,
    RIOTJS_PROFILE,
    fletcher32_rows,
    host_os_rom_bytes,
    native_row,
    runtime_row,
)
from repro.runtimes.script.container import ScriptContainerRuntime
from repro.runtimes.sources import (
    SCRIPT_FLETCHER32_JS,
    SCRIPT_FLETCHER32_PY,
    WASM_FLETCHER32,
)
from repro.runtimes.wasm.asm import assemble as wasm_assemble
from repro.runtimes.wasm.container import WasmContainerRuntime
from repro.workloads.fletcher32 import FLETCHER32_INPUT, fletcher32_reference


@pytest.fixture(scope="module")
def metrics():
    return {m.name: m for m in fletcher32_rows(nrf52840())}


def _script_row(profile, source):
    return runtime_row(profile.name, ScriptContainerRuntime(profile),
                       source.encode(), FLETCHER32_INPUT, nrf52840())


class TestPinnedRows:
    #: (rom B, ram B, code B, cold us, run us) on nrf52840(), Table 2 order.
    ROWS = {
        "Native C": (0, 0, 74, 0.0, 27.03125),
        "WASM3": (65536, 87336, 180, 17103.125, 966.96875),
        "rBPF": (4560, 620, 344, 1.0, 1567.859375),
        "RIOTjs": (123904, 18432, 737, 5589.21875, 14715.734375),
        "MicroPython": (103424, 8396, 500, 21913.28125, 16342.75),
    }

    def test_rows_are_exact(self):
        rows = fletcher32_rows(nrf52840())
        assert [m.name for m in rows] == list(self.ROWS)
        for m in rows:
            assert m.result == 0x6C56E4EC, m.name
            assert (m.rom_bytes, m.ram_bytes, m.code_size,
                    m.cold_start_us, m.run_us) == self.ROWS[m.name], m.name


class TestOneCostModel:
    @pytest.mark.parametrize("row, spec", [
        ("WASM3", ImageSpec.from_wasm(WASM_FLETCHER32)),
        ("MicroPython", ImageSpec.from_script(SCRIPT_FLETCHER32_PY)),
    ])
    def test_attach_charges_the_rows_cold_start(self, metrics, row, spec):
        """A deployed container pays exactly the table's cold start."""
        board = nrf52840()
        engine = HostingEngine(Kernel(board))
        engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
        container = engine.load(spec.instantiate("fletcher32"), name="f")
        before = engine.kernel.clock.cycles
        engine.attach(container, FC_HOOK_FANOUT)
        charged = engine.kernel.clock.cycles - before
        assert charged == container.runtime.startup_cycles(
            container.program, board)
        assert board.us(charged) == metrics[row].cold_start_us


class TestCorrectness:
    def test_every_candidate_computes_the_same_checksum(self, metrics):
        expected = fletcher32_reference(FLETCHER32_INPUT)
        for name, m in metrics.items():
            assert m.result == expected, name


class TestTable1Shape:
    def test_rbpf_rom_10x_smaller_than_all(self, metrics):
        """§6 headline: 'a Femto-Container runtime based on eBPF
        virtualization requires 10x less memory footprint'."""
        rbpf = metrics["rBPF"].rom_bytes
        for name in ("WASM3", "RIOTjs", "MicroPython"):
            assert metrics[name].rom_bytes >= 10 * rbpf, name

    def test_rom_ordering_matches_paper(self, metrics):
        assert (metrics["rBPF"].rom_bytes
                < metrics["WASM3"].rom_bytes
                < metrics["MicroPython"].rom_bytes
                < metrics["RIOTjs"].rom_bytes)

    def test_ram_extremes_paper_ratios(self, metrics):
        """'the biggest RAM budget requires 140 times more RAM than the
        smallest budget' (wasm vs rbpf)."""
        ratio = metrics["WASM3"].ram_bytes / metrics["rBPF"].ram_bytes
        assert 100 <= ratio <= 180

    def test_script_interpreters_need_100kb_class_rom(self, metrics):
        for name in ("RIOTjs", "MicroPython"):
            assert metrics[name].rom_bytes > 100_000

    def test_rbpf_ram_is_one_instance(self, metrics):
        assert metrics["rBPF"].ram_bytes == 620  # Table 1's 0.6 kB

    def test_rom_overhead_vs_host_os(self, metrics):
        """Fig 2: rBPF adds ~8 %, MicroPython ~200 % to the OS image."""
        host = host_os_rom_bytes()
        assert metrics["rBPF"].rom_bytes / host < 0.10
        assert metrics["MicroPython"].rom_bytes / host > 1.5


class TestTable2Shape:
    def test_native_is_fastest(self, metrics):
        native = metrics["Native C"].run_us
        for name, m in metrics.items():
            if name != "Native C":
                assert m.run_us > 10 * native, name

    def test_script_interpreters_about_600x_slower(self, metrics):
        native = metrics["Native C"].run_us
        for name in ("RIOTjs", "MicroPython"):
            slowdown = metrics[name].slowdown_vs(native)
            assert 400 <= slowdown <= 800, (name, slowdown)

    def test_wasm_about_2x_faster_than_rbpf_at_runtime(self, metrics):
        ratio = metrics["rBPF"].run_us / metrics["WASM3"].run_us
        assert 1.3 <= ratio <= 3.0

    def test_cold_start_spread_about_1000x(self, metrics):
        """'startup time varies almost 1000 fold'."""
        fastest = metrics["rBPF"].cold_start_us
        slowest = max(m.cold_start_us for m in metrics.values())
        assert slowest / fastest > 500

    def test_rbpf_cold_start_is_microseconds(self, metrics):
        assert metrics["rBPF"].cold_start_us <= 2.0

    def test_transcoding_runtimes_pay_startup(self, metrics):
        """WASM3 and MicroPython pre-process; rBPF does not."""
        assert metrics["WASM3"].cold_start_us > 10_000
        assert metrics["MicroPython"].cold_start_us > 15_000
        assert metrics["RIOTjs"].cold_start_us > 3_000

    def test_code_size_ordering(self, metrics):
        assert (metrics["Native C"].code_size
                < metrics["WASM3"].code_size
                < metrics["rBPF"].code_size
                < metrics["MicroPython"].code_size
                < metrics["RIOTjs"].code_size)


class TestRowIndependence:
    def test_runtimes_are_reusable(self):
        board = nrf52840()
        runtime = WasmContainerRuntime()
        payload = wasm_assemble(WASM_FLETCHER32).encode()
        first = runtime_row("WASM3", runtime, payload, FLETCHER32_INPUT, board)
        second = runtime_row("WASM3", runtime, payload, FLETCHER32_INPUT, board)
        assert first.run_us == second.run_us

    def test_profiles_differ(self):
        upy = _script_row(MICROPYTHON_PROFILE, SCRIPT_FLETCHER32_PY)
        js = _script_row(RIOTJS_PROFILE, SCRIPT_FLETCHER32_JS)
        assert upy.cold_start_us > js.cold_start_us
        assert upy.rom_bytes != js.rom_bytes

    def test_native_and_rbpf_rows(self, metrics):
        native = native_row(nrf52840())
        assert 20 <= native.run_us <= 35           # paper: 27 us
        assert 1000 <= metrics["rBPF"].run_us <= 2500  # paper: 2133 us
