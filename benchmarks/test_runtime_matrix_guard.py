"""Cross-runtime cost-model guard for the multi-runtime deploy plane.

Runs the same fletcher32 workload as an rBPF container, a mini-Wasm
container and a script container on one hosting engine, and prints the
per-runtime code size, attach (startup) cycles, execution cycles and RAM
footprint.

The guarded invariants are the §6 story of the paper: every runtime must
produce the *same* checksum (the deploy plane is semantics-preserving
across runtimes), while the modelled per-run cost must order
``script > wasm > rbpf`` — rBPF with install-time transpilation is the
cheapest hook-path runtime, which is why the paper picks it.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import Hook, HookMode
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.runtimes.sources import SCRIPT_FLETCHER32_PY, WASM_FLETCHER32
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import Permission
from repro.workloads import FLETCHER32_INPUT, fletcher32_reference
from repro.workloads.fletcher32 import (
    INPUT_BASE,
    fletcher32_program,
    make_context,
)

_COLUMNS = ("code_bytes", "attach_cycles", "exec_cycles", "ram_bytes")

_SPECS = {
    "rbpf": lambda: ImageSpec.from_program(fletcher32_program()),
    "wasm": lambda: ImageSpec.from_wasm(WASM_FLETCHER32, name="fletcher32"),
    "script": lambda: ImageSpec.from_script(SCRIPT_FLETCHER32_PY,
                                            name="fletcher32"),
}


def _measure(runtime: str) -> dict:
    IMAGE_CACHE.clear()
    spec = _SPECS[runtime]()
    engine = HostingEngine(Kernel(), implementation="jit")
    engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
    container = engine.load(spec.instantiate("fletcher32"), name="fletcher32")

    before = engine.kernel.clock.cycles
    engine.attach(container, FC_HOOK_FANOUT)
    attach_cycles = engine.kernel.clock.cycles - before

    if runtime == "rbpf":
        # The eBPF program takes a {data_ptr, len} context and reads the
        # input buffer through a granted region.
        container.vm.access_list.grant_bytes(
            "in", INPUT_BASE, FLETCHER32_INPUT, Permission.READ)
        context = bytearray(make_context())
    else:
        context = bytearray(FLETCHER32_INPUT)
    run = engine.execute(container, context=context)
    assert run.ok, run.fault

    return {
        "code_bytes": len(spec.text) + len(spec.rodata) + len(spec.data),
        "attach_cycles": attach_cycles,
        "exec_cycles": run.cycles,
        "ram_bytes": container.ram_bytes,
        "value": run.value,
    }


def test_runtime_matrix_guard():
    ref = fletcher32_reference(FLETCHER32_INPUT)
    rows = {runtime: _measure(runtime) for runtime in _SPECS}

    # Semantics preservation: one workload, three runtimes, one answer.
    for runtime, row in rows.items():
        assert row["value"] == ref, (runtime, hex(row["value"]))

    print()
    print(format_table(
        ["Runtime", *_COLUMNS],
        [[runtime, *(row[key] for key in _COLUMNS)]
         for runtime, row in rows.items()],
        title=f"fletcher32 per runtime, jit engine (checksum 0x{ref:08x})",
    ))
    # The §6 ordering: per-run cost script > wasm > rbpf, full stop.
    assert (rows["script"]["exec_cycles"]
            > rows["wasm"]["exec_cycles"]
            > rows["rbpf"]["exec_cycles"]), rows
