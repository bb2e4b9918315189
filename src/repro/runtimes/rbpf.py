"""The rBPF container runtime — the paper's native format.

This is the pre-registry hosting-engine attach/cost path moved behind the
:class:`~repro.runtimes.base.ContainerRuntime` protocol: the same verify
charge before the VM is built, the same JIT transpilation charge after
it, the same per-implementation cycle model from
:meth:`~repro.rtos.board.Board.cost_profile`.  The engine
differential suite pins modelled cycles for pure-rBPF workloads
bit-identical to the seed.  Table 2's rBPF row is measured through it
on the ``"rbpf"`` interpreter build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.container import VM_CLASSES
from repro.runtimes.base import RUNTIME_RBPF, preflight
from repro.runtimes.profiles import RBPF_RUNTIME_ROM
from repro.vm.interpreter import Interpreter
from repro.vm.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import MemoryGrant
    from repro.rtos.board import Board, CostProfile
    from repro.vm.helpers import HelperRegistry
    from repro.vm.imagecache import InstancePrototype
    from repro.vm.interpreter import VMConfig
    from repro.vm.memory import MemoryRegion
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

    def prototype(self, image: Program, implementation: str,
                  verifier_config: "VerifierConfig",
                  vm_config: "VMConfig") -> "InstancePrototype":
        # Every engine build verifies; the JIT then transpiles.
        return VM_CLASSES[implementation].derive_prototype(
            image, verifier_config, vm_config)

    def instantiate(self, prototype: "InstancePrototype", image: Program,
                    implementation: str, helpers: "HelperRegistry | None",
                    vm_config: "VMConfig",
                    regions: "list[MemoryRegion]") -> Interpreter:
        return VM_CLASSES[implementation].instantiate(
            prototype, image, helpers, vm_config, regions)

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               verifier_config: "VerifierConfig", vm_config: "VMConfig",
               grants: "tuple[MemoryGrant, ...]") -> "InstancePrototype":
        board = engine.board
        clock = engine.kernel.clock
        image = container.program
        clock.charge(len(image.slots) * board.verify_cycles_per_slot)
        prototype = preflight(self, image, engine.implementation,
                              verifier_config, vm_config, grants)
        install = prototype.install_instruction_count
        if install:
            clock.charge(install * board.jit_install_cycles_per_slot)
        return prototype

    def cost_profile(self, board: "Board",
                     implementation: str) -> "CostProfile":
        return board.cost_profile(implementation)
