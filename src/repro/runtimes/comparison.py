"""The §6 comparison (Tables 1 and 2), measured through the container runtimes.

Every virtualized row runs the paper's fletcher32 workload once over the
canonical 360 B input through a deployable
:class:`~repro.runtimes.base.ContainerRuntime`: the runtime decodes the
payload and builds the VM, prices the run with ``execution_cycles`` and
the cold start with ``startup_cycles`` — the calls that price deployed
containers — so the tables and the deploy plane share one cost model per
runtime.  Only "Native C" is a plain model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtos.board import Board
from repro.rtos.firmware import HOST_OS_RAM, os_modules
from repro.runtimes.base import ContainerRuntime
from repro.runtimes.profiles import RIOTJS_PROFILE
from repro.runtimes.rbpf import RbpfContainerRuntime
from repro.runtimes.script.container import ScriptContainerRuntime
from repro.runtimes.sources import (
    SCRIPT_FLETCHER32_JS,
    SCRIPT_FLETCHER32_PY,
    WASM_FLETCHER32,
)
from repro.runtimes.wasm.asm import assemble as wasm_assemble
from repro.runtimes.wasm.container import WasmContainerRuntime
from repro.vm.interpreter import VMConfig
from repro.vm.memory import AccessList, Permission
from repro.vm.verifier import VerifierConfig
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    INPUT_BASE,
    fletcher32_program,
    fletcher32_reference,
    make_context,
    native_instruction_estimate,
)

#: The tables measure rBPF's original interpreter build; the other
#: formats have one implementation each and ignore the tag.
TABLE_IMPLEMENTATION = "rbpf"

#: Native Thumb-2 code for fletcher32: ~37 16-bit instructions (Table 2).
NATIVE_CODE_SIZE = 74


@dataclass
class RuntimeMetrics:
    """One row of Tables 1/2 for one virtualization technique."""

    name: str
    rom_bytes: int
    ram_bytes: int
    code_size: int
    cold_start_us: float
    run_us: float
    result: int

    def slowdown_vs(self, native_run_us: float) -> float:
        """Execution-speed penalty vs native (the §6 '600x/77x/37x')."""
        if native_run_us <= 0:
            raise ValueError("native run time must be positive")
        return self.run_us / native_run_us


def host_os_rom_bytes() -> int:
    """The IoT-ready RIOT image without any VM (Table 1 last row)."""
    return sum(module.flash_bytes for module in os_modules())


def host_os_ram_bytes() -> int:
    return HOST_OS_RAM


def native_row(board: Board) -> RuntimeMetrics:
    """Table 2's "Native C" row: the un-virtualized reference."""
    cycles = board.native_cycles(native_instruction_estimate())
    return RuntimeMetrics(
        name="Native C",
        rom_bytes=0,
        ram_bytes=0,
        code_size=NATIVE_CODE_SIZE,
        cold_start_us=0.0,
        run_us=board.us(cycles),
        result=fletcher32_reference(FLETCHER32_INPUT),
    )


def runtime_row(name: str, runtime: ContainerRuntime, payload: bytes,
                context: bytes, board: Board,
                access_list: AccessList | None = None) -> RuntimeMetrics:
    """Run ``payload`` once under ``runtime`` and report its row.

    ``context`` is what a hook hands the container; ``access_list``
    grants whatever else the program reads (rBPF's input buffer).
    """
    image = runtime.decode(payload, name="fletcher32")
    vm = runtime.build_vm(image, TABLE_IMPLEMENTATION, None, VMConfig(),
                          access_list or AccessList(), VerifierConfig())
    execution = vm.run(context=context)
    run_cycles = runtime.execution_cycles(board, execution.stats,
                                          TABLE_IMPLEMENTATION)
    return RuntimeMetrics(
        name=name,
        rom_bytes=runtime.rom_bytes,
        ram_bytes=vm.ram_bytes,
        code_size=image.code_size,
        cold_start_us=board.us(runtime.startup_cycles(image, board)),
        run_us=board.us(run_cycles),
        result=execution.value,
    )


def fletcher32_rows(board: Board) -> list[RuntimeMetrics]:
    """The §6 line-up, in the paper's Table 2 order."""
    rbpf_input = AccessList()
    rbpf_input.grant_bytes("fletcher-input", INPUT_BASE, FLETCHER32_INPUT,
                           Permission.READ)
    return [
        native_row(board),
        runtime_row("WASM3", WasmContainerRuntime(),
                    wasm_assemble(WASM_FLETCHER32).encode(),
                    FLETCHER32_INPUT, board),
        runtime_row("rBPF", RbpfContainerRuntime(),
                    fletcher32_program().to_bytes(), make_context(), board,
                    rbpf_input),
        runtime_row("RIOTjs", ScriptContainerRuntime(RIOTJS_PROFILE),
                    SCRIPT_FLETCHER32_JS.encode(), FLETCHER32_INPUT, board),
        runtime_row("MicroPython", ScriptContainerRuntime(),
                    SCRIPT_FLETCHER32_PY.encode(), FLETCHER32_INPUT, board),
    ]
