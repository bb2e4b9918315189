#!/usr/bin/env python3
"""§6: the ultra-lightweight virtualization shoot-out, reproduced.

Runs the fletcher32(360 B) workload natively and through every deployable
container runtime — mini-WebAssembly (WASM3-class), rBPF, and the script
interpreter under its RIOTjs and MicroPython profiles — and prints Tables 1
and 2, ending with the paper's conclusion: why Femto-Containers chose eBPF.

Run with:  python examples/runtime_comparison.py
"""

from repro.analysis import format_table, format_us
from repro.rtos import nrf52840
from repro.runtimes import fletcher32_rows, host_os_ram_bytes, host_os_rom_bytes
from repro.workloads.fletcher32 import FLETCHER32_INPUT, fletcher32_reference


def main() -> None:
    board = nrf52840()
    expected = fletcher32_reference(FLETCHER32_INPUT)
    metrics = fletcher32_rows(board)
    for m in metrics:
        assert m.result == expected, f"{m.name} computed a wrong checksum!"
    print(f"all five runtimes computed fletcher32 = 0x{expected:08x} "
          "over the same 360 B input\n")

    rows = [
        [m.name, f"{m.rom_bytes / 1024:.1f}", f"{m.ram_bytes / 1024:.2f}"]
        for m in metrics if m.name != "Native C"
    ]
    rows.append(["Host OS (without VM)",
                 f"{host_os_rom_bytes() / 1024:.1f}",
                 f"{host_os_ram_bytes() / 1024:.2f}"])
    print(format_table(["Runtime", "ROM KiB", "RAM KiB"], rows,
                       title="Table 1: runtime memory requirements"))

    native = next(m for m in metrics if m.name == "Native C")
    rows = [
        [m.name, f"{m.code_size} B",
         format_us(m.cold_start_us) if m.cold_start_us else "--",
         format_us(m.run_us),
         f"{m.run_us / native.run_us:.0f}x"]
        for m in metrics
    ]
    print()
    print(format_table(
        ["Runtime", "code size", "cold start", "run time", "vs native"],
        rows, title="Table 2: fletcher32 on Cortex-M4 @ 64 MHz"))

    rbpf = next(m for m in metrics if m.name == "rBPF")
    smallest_other = min(m.rom_bytes for m in metrics
                         if m.name not in ("Native C", "rBPF"))
    print("\nwhy eBPF won (§6.1):")
    print(f"  - ROM: {smallest_other / rbpf.rom_bytes:.0f}x smaller than the "
          "next-best runtime")
    print(f"  - cold start: {format_us(rbpf.cold_start_us)} vs tens of "
          "milliseconds for transcoding/parsing runtimes")
    print("  - no heap, 620 B per instance: many concurrent VMs fit")
    print("  - ~1.5 kLoC implementation: small enough to formally verify")
    print("  - the 2x runtime deficit vs WASM 'will have no significant "
          "impact in practice for the use cases we target'")


if __name__ == "__main__":
    main()
