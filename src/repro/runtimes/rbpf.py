"""The rBPF container runtime — the paper's native format.

This is the pre-registry hosting-engine attach/cost path moved behind the
:class:`~repro.runtimes.base.ContainerRuntime` protocol, verbatim: the
same verify charge before construction, the same JIT transpilation charge
after it, the same per-implementation cycle model from
:meth:`~repro.rtos.board.Board.vm_execution_cycles`.  The engine
differential suite pins modelled cycles for pure-rBPF workloads
bit-identical to the seed.  Table 2's rBPF row is measured through it
on the ``"rbpf"`` interpreter build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtimes.base import RUNTIME_RBPF
from repro.runtimes.profiles import RBPF_RUNTIME_ROM
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.jit import CompiledProgram
from repro.vm.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import GrantedPolicy
    from repro.rtos.board import Board
    from repro.vm.helpers import HelperRegistry
    from repro.vm.interpreter import ExecutionStats, VMConfig
    from repro.vm.memory import AccessList
    from repro.vm.verifier import VerifierConfig


class RbpfContainerRuntime:
    """Deploys eBPF/rBPF images (every engine implementation)."""

    name = RUNTIME_RBPF
    rom_bytes = RBPF_RUNTIME_ROM

    def decode(self, payload: bytes, *, name: str = "app",
               rodata: bytes = b"", data: bytes = b"") -> Program:
        return Program.from_bytes(payload, name=name, rodata=rodata,
                                  data=data)

    def image_hash(self, text: bytes, rodata: bytes = b"",
                   data: bytes = b"") -> str:
        # Untagged on purpose: the historical content address of every
        # already-deployed rBPF image (cache keys, planner convergence).
        return Program.from_bytes(text, rodata=rodata, data=data).image_hash

    def startup_cycles(self, image: Program, board: "Board") -> int:
        # rBPF preprocesses nothing: cold start is the VM setup alone
        # (Table 2's ~1 us).  Verify and JIT install are attach charges.
        return board.vm_setup_cycles

    def build_vm(self, image: Program, implementation: str,
                 helpers: "HelperRegistry | None", vm_config: "VMConfig",
                 access_list: "AccessList",
                 verifier_config: "VerifierConfig") -> object:
        from repro.core.container import VM_CLASSES

        vm_class = VM_CLASSES[implementation]
        if vm_class is CompiledProgram:
            # compile_program verifies internally, then transpiles.
            return CompiledProgram(
                image, helpers=helpers, config=vm_config,
                access_list=access_list, verifier_config=verifier_config,
            )
        IMAGE_CACHE.verify(image, verifier_config)
        return vm_class(image, helpers=helpers, config=vm_config,
                        access_list=access_list)

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               granted: "GrantedPolicy", vm_config: "VMConfig",
               access_list: "AccessList",
               verifier_config: "VerifierConfig") -> object:
        board = engine.board
        clock = engine.kernel.clock
        clock.charge(
            len(container.program.slots) * board.verify_cycles_per_slot
        )
        vm = self.build_vm(container.program, engine.implementation,
                           engine.helpers, vm_config, access_list,
                           verifier_config)
        if isinstance(vm, CompiledProgram):
            clock.charge(
                vm.install_instruction_count * board.jit_install_cycles_per_slot
            )
        return vm

    def execution_cycles(self, board: "Board", stats: "ExecutionStats",
                         implementation: str,
                         helpers: "HelperRegistry | None" = None) -> int:
        return board.vm_execution_cycles(stats, implementation, helpers)
