"""The eBPF/rBPF virtual machine substrate of the Femto-Container runtime.

Public surface:

* :mod:`repro.vm.isa` — instruction-set constants;
* :class:`~repro.vm.instruction.Instruction` and the binary codec;
* :func:`~repro.vm.asm.assemble` / :func:`~repro.vm.disasm.disassemble`;
* :func:`~repro.vm.verifier.verify` — the pre-flight checker;
* :class:`~repro.vm.interpreter.Interpreter` — the Femto-Container VM;
* :class:`~repro.vm.certfc.CertFCInterpreter` — the verified-build model;
* :func:`~repro.vm.jit.compile_program` — §11 install-time transpilation;
* :mod:`repro.vm.compress` — §11 variable-length encoding;
* :class:`~repro.vm.supervisor.ContainerSupervisor` — crash-loop
  quarantine with exponential-backoff probation.
"""

from repro.vm.asm import assemble
from repro.vm.certfc import CertFCInterpreter
from repro.vm.disasm import disassemble
from repro.vm.errors import (
    AssemblerError,
    BranchLimitFault,
    DivisionFault,
    EncodingError,
    HelperFault,
    IllegalInstructionFault,
    MemoryFault,
    VerificationError,
    VMError,
    VMFault,
)
from repro.vm.helpers import HelperRegistry
from repro.vm.imagecache import IMAGE_CACHE, CompiledTemplate
from repro.vm.instruction import Instruction
from repro.vm.interpreter import (
    ExecutionResult,
    ExecutionStats,
    Interpreter,
    RbpfInterpreter,
    VMConfig,
)
from repro.vm.jit import CompiledProgram, compile_program
from repro.vm.memory import AccessList, MemoryRegion, Permission
from repro.vm.program import Program
from repro.vm.supervisor import (
    ContainerSupervisor,
    SlotHealth,
    SupervisorConfig,
)
from repro.vm.verifier import VerificationReport, VerifierConfig, verify

__all__ = [
    "AccessList",
    "AssemblerError",
    "BranchLimitFault",
    "CertFCInterpreter",
    "CompiledProgram",
    "ContainerSupervisor",
    "DivisionFault",
    "EncodingError",
    "ExecutionResult",
    "ExecutionStats",
    "HelperFault",
    "HelperRegistry",
    "IMAGE_CACHE",
    "CompiledTemplate",
    "IllegalInstructionFault",
    "Instruction",
    "Interpreter",
    "MemoryFault",
    "MemoryRegion",
    "Permission",
    "Program",
    "RbpfInterpreter",
    "SlotHealth",
    "SupervisorConfig",
    "VMConfig",
    "VMError",
    "VMFault",
    "VerificationError",
    "VerificationReport",
    "VerifierConfig",
    "assemble",
    "compile_program",
    "disassemble",
    "verify",
]
