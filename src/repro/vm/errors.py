"""Exception hierarchy for the Femto-Container virtual machine.

Faults raised while a container runs are *contained*: the hosting engine
catches :class:`VMFault` subclasses, aborts the single container execution
and reports the fault without ever propagating it into the host RTOS — this
is the fault-isolation contract the paper verifies formally.
"""

from __future__ import annotations


class VMError(Exception):
    """Base class for everything the VM subsystem raises."""


class EncodingError(VMError):
    """Malformed binary or textual instruction encoding."""


class AssemblerError(VMError):
    """Error while assembling eBPF text source."""


class VerificationError(VMError):
    """The pre-flight checker rejected the application.

    Carries the slot index of the offending instruction when applicable.
    """

    def __init__(self, message: str, pc: int | None = None):
        super().__init__(message if pc is None else f"[pc={pc}] {message}")
        self.pc = pc


class VMFault(VMError):
    """Base class for runtime faults that abort a container execution.

    ``stats`` is the :class:`~repro.vm.interpreter.ExecutionStats` of the
    run the fault aborted, counted up to the fault; the engine that ran
    it attaches them on the way out of ``run()``, so the hosting engine
    charges a faulted run for the work it did.
    """

    stats = None

    def __init__(self, message: str, pc: int | None = None):
        super().__init__(message if pc is None else f"[pc={pc}] {message}")
        self.pc = pc

    def at_pc(self, pc: int) -> "VMFault":
        """Name ``pc`` as this fault's instruction, unless it names one.

        The access list and helpers raise below the instruction stream;
        the engine running the instruction fills in its pc on the way out.
        """
        if self.pc is None:
            self.pc = pc
            self.args = (f"[pc={pc}] {self.args[0]}",)
        return self


class MemoryFault(VMFault):
    """Load/store outside the regions granted by the access list (Fig. 4)."""


class DivisionFault(VMFault):
    """Division or modulo by zero at runtime."""


class IllegalInstructionFault(VMFault):
    """Opcode not handled at runtime (defense in depth after verification)."""


class BranchLimitFault(VMFault):
    """The N_b taken-branch budget was exhausted (finite-execution bound)."""


class HelperFault(VMFault):
    """A helper call failed or referenced an unknown/forbidden helper id."""
