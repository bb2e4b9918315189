"""Table 1 — Memory requirements for Femto-Container runtimes.

Paper (Cortex-M4):
    WASM3        64 KiB ROM   85 KiB RAM
    rBPF        4.4 KiB ROM  0.6 KiB RAM
    RIOTjs      121 KiB ROM   18 KiB RAM
    MicroPython 101 KiB ROM  8.2 KiB RAM
    Host OS    52.5 KiB ROM 16.3 KiB RAM
"""

from __future__ import annotations

from conftest import record

from repro.analysis import format_table
from repro.rtos import nrf52840
from repro.runtimes import fletcher32_rows, host_os_ram_bytes, host_os_rom_bytes

PAPER_ROWS = {
    "WASM3": (64.0, 85.0),
    "rBPF": (4.4, 0.6),
    "RIOTjs": (121.0, 18.0),
    "MicroPython": (101.0, 8.2),
}


def collect():
    return {m.name: m for m in fletcher32_rows(nrf52840())
            if m.name != "Native C"}


def test_table1_runtime_memory(benchmark):
    metrics = benchmark(collect)

    rows = []
    for name in ("WASM3", "rBPF", "RIOTjs", "MicroPython"):
        m = metrics[name]
        paper_rom, paper_ram = PAPER_ROWS[name]
        rows.append([
            name,
            f"{m.rom_bytes / 1024:.1f}",
            f"{paper_rom:.1f}",
            f"{m.ram_bytes / 1024:.2f}",
            f"{paper_ram:.2f}",
        ])
    rows.append([
        "Host OS (no VM)",
        f"{host_os_rom_bytes() / 1024:.1f}", "52.5",
        f"{host_os_ram_bytes() / 1024:.2f}", "16.30",
    ])
    record("table1_runtime_memory", format_table(
        ["Runtime", "ROM KiB", "paper", "RAM KiB", "paper"], rows,
        title="Table 1: memory requirements for Femto-Container runtimes",
    ))

    # Shape assertions (who wins, by what factor).
    rbpf = metrics["rBPF"]
    for name in ("WASM3", "RIOTjs", "MicroPython"):
        assert metrics[name].rom_bytes >= 10 * rbpf.rom_bytes
    assert metrics["WASM3"].ram_bytes / rbpf.ram_bytes >= 100
    assert rbpf.rom_bytes / host_os_rom_bytes() < 0.10
