"""Table 2 — Size and performance of fletcher32 logic per runtime.

Paper (Cortex-M4 @ 64 MHz):
    Runtime      code size  cold start   run time
    Native C         74 B        --         27 us
    WASM3           322 B    17 096 us     980 us
    rBPF            456 B         1 us    2133 us
    RIOTjs          593 B     5589 us   14 726 us
    MicroPython     497 B    21 907 us  16 325 us
"""

from __future__ import annotations

from conftest import record

from repro.analysis import format_table, format_us
from repro.rtos import nrf52840
from repro.runtimes import fletcher32_rows

PAPER = {
    "Native C": (74, None, 27),
    "WASM3": (322, 17_096, 980),
    "rBPF": (456, 1, 2_133),
    "RIOTjs": (593, 5_589, 14_726),
    "MicroPython": (497, 21_907, 16_325),
}


def collect():
    return fletcher32_rows(nrf52840())


def test_table2_fletcher32(benchmark):
    metrics = benchmark(collect)
    by_name = {m.name: m for m in metrics}
    native = by_name["Native C"].run_us

    rows = []
    for m in metrics:
        paper_code, paper_cold, paper_run = PAPER[m.name]
        rows.append([
            m.name,
            f"{m.code_size} B ({paper_code})",
            f"{format_us(m.cold_start_us)} ({paper_cold or '--'})",
            f"{format_us(m.run_us)} ({paper_run})",
            f"{m.run_us / native:.0f}x",
        ])
    record("table2_fletcher32", format_table(
        ["Runtime", "code size (paper)", "cold start (paper)",
         "run time (paper)", "vs native"], rows,
        title="Table 2: fletcher32 logic hosted in different runtimes "
              "(Cortex-M4 @ 64 MHz)",
    ))

    # §6 narrative assertions.
    assert by_name["rBPF"].cold_start_us <= 2.0
    assert by_name["WASM3"].run_us < by_name["rBPF"].run_us
    for script in ("RIOTjs", "MicroPython"):
        assert 400 <= by_name[script].run_us / native <= 800
    assert 25 <= by_name["WASM3"].run_us / native <= 50
    assert 40 <= by_name["rBPF"].run_us / native <= 100
    spread = max(m.cold_start_us for m in metrics) / by_name["rBPF"].cold_start_us
    assert spread > 500  # "startup time varies almost 1000 fold"
