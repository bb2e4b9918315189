"""The rBPF / Femto-Container bytecode interpreter.

The interpreter mirrors the C implementation described in the paper §7:

* a register machine with eleven 64-bit registers; ``r10`` is a read-only
  pointer to the *beginning* of a 512-byte stack provided by the hosting
  engine;
* a computed-dispatch main loop driven by the **pre-decoded** slot table
  (:mod:`repro.vm.predecode`): every per-instruction fact — cost class,
  access width, masked immediate, resolved branch target — is flattened
  once per program, so the loop performs zero dict lookups per executed
  instruction;
* runtime memory-access checks of every computed load/store address against
  the access list (Fig. 4) — illegal access aborts execution;
* finite execution enforced by the N_b taken-branch budget (the program
  length itself is bounded by the verifier's N_i budget, so any execution
  runs at most N_i * N_b instructions).

Instruction accounting: the interpreter counts executed instructions per
:class:`~repro.vm.isa.InstructionKind` and helper invocations per id.  The
per-platform cycle models in :mod:`repro.rtos.board` translate those counts
into virtual clock ticks; the interpreter itself is time-agnostic, and the
accounting is **engine-independent** — the template JIT and the CertFC
build produce bit-identical :class:`ExecutionStats` for the same program.

Per-run state is reused across executions: the register file and the
zeroing template for the stack live on the instance, so a hosting engine
firing hooks at high rate does not reallocate VM state per event.  The
:class:`ExecutionStats` object returned by :meth:`Interpreter.run` is
always fresh (engines keep them in run histories), but its ``kind_counts``
dict is cloned from a prebuilt zero table instead of rebuilt key by key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vm import isa
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    HelperFault,
    IllegalInstructionFault,
    VMFault,
)
from repro.vm.helpers import HelperRegistry
from repro.vm.memory import (
    CONTEXT_BASE,
    DATA_BASE,
    RODATA_BASE,
    STACK_BASE,
    AccessList,
    MemoryRegion,
    Permission,
)
from repro.vm.program import Program

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


def _s64(value: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed."""
    return value - (1 << 64) if value >= (1 << 63) else value


def _s32(value: int) -> int:
    """Reinterpret an unsigned 32-bit value as signed."""
    value &= _M32
    return value - (1 << 32) if value >= (1 << 31) else value


def _byteswap(value: int, width_bits: int) -> int:
    width_bytes = width_bits // 8
    return int.from_bytes(
        (value & ((1 << width_bits) - 1)).to_bytes(width_bytes, "little"), "big"
    )


@dataclass(frozen=True)
class VMConfig:
    """Runtime limits of one container execution."""

    #: N_b — taken branches allowed before the execution is aborted.
    branch_limit: int = 10_000
    #: Optional absolute cap on executed instructions (defense in depth;
    #: N_i * N_b already bounds execution when None).
    total_limit: int | None = None
    #: Size of the engine-provided stack (the eBPF spec mandates 512 B).
    stack_size: int = isa.STACK_SIZE


@dataclass
class ExecutionStats:
    """What one execution did, in platform-independent units."""

    executed: int = 0
    branches_taken: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)
    helper_calls: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "ExecutionStats") -> None:
        self.executed += other.executed
        self.branches_taken += other.branches_taken
        for key, count in other.kind_counts.items():
            self.kind_counts[key] = self.kind_counts.get(key, 0) + count
        for key, count in other.helper_calls.items():
            self.helper_calls[key] = self.helper_calls.get(key, 0) + count


@dataclass
class ExecutionResult:
    """Return value and accounting of one container execution."""

    value: int
    stats: ExecutionStats


#: Prebuilt zero table cloned into each run's ``kind_counts``.
_ZERO_KINDS = {kind: 0 for kind in isa.InstructionKind.ALL}


class Interpreter:
    """Baseline interpreter; also the base class for the CertFC variant.

    ``implementation`` tags which engine build this models ("rbpf" or
    "femto-containers"); the per-platform cost tables key on it.
    """

    implementation = "femto-containers"
    #: Extra per-instance RAM beyond registers+stack (housekeeping structs).
    housekeeping_bytes = 24

    def __init__(
        self,
        program: Program,
        helpers: HelperRegistry | None = None,
        config: VMConfig | None = None,
        access_list: AccessList | None = None,
    ) -> None:
        self.program = program
        self.helpers = helpers or HelperRegistry()
        self.config = config or VMConfig()
        self.access_list = access_list or AccessList()
        self.stack = MemoryRegion.zeroed(
            "stack", STACK_BASE, self.config.stack_size, Permission.READ_WRITE
        )
        self.access_list.add(self.stack)
        if program.rodata:
            self.access_list.grant_bytes(
                ".rodata", RODATA_BASE, program.rodata, Permission.READ
            )
        self.data_region: MemoryRegion | None = None
        if program.data:
            self.data_region = self.access_list.grant_bytes(
                ".data", DATA_BASE, program.data, Permission.READ_WRITE
            )
        self._context_region: MemoryRegion | None = None
        #: Opaque service object (the hosting engine) helpers may use.
        self.services = None
        # Reusable per-run state (see the module docstring).
        self._regs: list[int] = [0] * isa.REG_COUNT
        self._stack_zeros = bytes(self.config.stack_size)

    # -- engine-facing surface ---------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """Per-instance RAM: registers + stack + housekeeping structs.

        11 registers x 8 B + 512 B stack + 24 B housekeeping = 624 B,
        matching the paper's per-instance figure (§10.3, Table 3).
        """
        return isa.REG_COUNT * 8 + self.config.stack_size + self.housekeeping_bytes

    def bind_context(
        self, content: bytes, perms: Permission = Permission.READ_WRITE
    ) -> MemoryRegion:
        """Map the hook context struct at the conventional address.

        Hook launchpads fire with identically-shaped context structs run
        after run (the scheduler hook packs the same 16 bytes on every
        context switch), so when the previously-bound region matches in
        size and permissions its backing buffer is overwritten in place:
        no region allocation, no access-list churn, and the MRU region
        cache stays warm across fires.  A shape or permission change
        falls back to the remap path.  The context region is only ever
        unmapped through this method, which is what keeps the in-place
        reuse sound.
        """
        region = self._context_region
        if (
            region is not None
            and region.perms == perms
            and region._end - region.start == len(content)
        ):
            region.data[:] = content
            return region
        if region is not None:
            self.access_list.remove(region)
        self._context_region = self.access_list.grant_bytes(
            "context", CONTEXT_BASE, content, perms
        )
        return self._context_region

    def context_bytes(self) -> bytes:
        """Snapshot of the (possibly VM-modified) context struct."""
        if self._context_region is None:
            return b""
        return bytes(self._context_region.data)

    # -- execution ----------------------------------------------------------

    def run(
        self, context: bytes | None = None,
        context_perms: Permission = Permission.READ_WRITE,
    ) -> ExecutionResult:
        """Execute the program once, from slot 0 until ``exit``.

        ``context`` (when given) is copied into the context region and its
        address passed in r1, mirroring the launchpad calling convention of
        Listing 1.  Faults propagate as :class:`VMFault` subclasses; the
        hosting engine is responsible for catching them.
        """
        if context is not None:
            self.bind_context(context, context_perms)
        # Fresh stack for each run: the engine hands out a zeroed stack.
        # One slice assignment from the prebuilt template, not a byte loop.
        self.stack.data[:] = self._stack_zeros

        regs = self._regs
        for i in range(isa.REG_COUNT):
            regs[i] = 0
        regs[isa.REG_STACK] = STACK_BASE
        if self._context_region is not None:
            regs[isa.REG_CTX] = CONTEXT_BASE

        stats = ExecutionStats(kind_counts=_ZERO_KINDS.copy())
        value = self._dispatch_loop(regs, stats)
        return ExecutionResult(value=value, stats=stats)

    # Hook for the CertFC defensive variant.
    def _pre_execute_check(self, ins, regs: list[int], pc: int) -> None:
        """Per-instruction defensive check; no-op in the optimized build."""

    def _dispatch_loop(self, regs: list[int], stats: ExecutionStats) -> int:
        decoded = self.program.decoded
        n_slots = len(decoded)
        access = self.access_list
        kind_counts = stats.kind_counts
        branch_limit = self.config.branch_limit
        total_limit = self.config.total_limit

        try:
            return self._execute(regs, stats, decoded, n_slots, access,
                                 kind_counts, branch_limit, total_limit)
        finally:
            # kind_counts is live-updated; derive the totals so that even a
            # faulted execution carries exact accounting (the engine charges
            # cycles for aborted runs too).
            stats.executed = sum(kind_counts.values())

    def _execute(self, regs, stats, decoded, n_slots, access, kind_counts,
                 branch_limit, total_limit) -> int:
        pc = 0
        executed = 0
        branches = 0
        load = access.load
        store = access.store
        # CertFC hooks every instruction; the optimized build skips the
        # callback entirely instead of calling a no-op.
        pre_check = None
        if type(self)._pre_execute_check is not Interpreter._pre_execute_check:
            pre_check = self._pre_execute_check

        CLS_ALU64 = isa.CLS_ALU64
        CLS_ALU = isa.CLS_ALU
        CLS_LDX = isa.CLS_LDX
        CLS_STX = isa.CLS_STX
        CLS_ST = isa.CLS_ST
        CLS_LD = isa.CLS_LD
        ALU_END = isa.ALU_END
        CALL = isa.CALL
        EXIT = isa.EXIT

        while True:
            if pc >= n_slots or pc < 0:
                raise VMFault("program counter escaped program text", pc)
            d = decoded[pc]
            kind = d.kind
            if kind is None:
                raise IllegalInstructionFault(
                    f"illegal opcode 0x{d.opcode:02x}", pc
                )
            if pre_check is not None:
                pre_check(d.ins, regs, pc)
            executed += 1
            kind_counts[kind] += 1
            if total_limit is not None and executed > total_limit:
                raise BranchLimitFault(
                    f"execution exceeded the total budget of {total_limit} "
                    "instructions",
                    pc,
                )

            cls = d.cls

            if cls == CLS_ALU64:
                regs[d.dst] = self._alu(
                    d.op, regs[d.dst],
                    regs[d.src] if d.use_reg else d.imm64,
                    pc, width64=True,
                )
                pc += 1
            elif cls == CLS_ALU:
                if d.op == ALU_END:
                    regs[d.dst] = self._endian(d.opcode, regs[d.dst], d.imm, pc)
                else:
                    operand = regs[d.src] if d.use_reg else d.imm
                    regs[d.dst] = self._alu(d.op, regs[d.dst] & _M32,
                                            operand & _M32, pc, width64=False)
                pc += 1
            elif cls == CLS_LDX:
                addr = (regs[d.src] + d.offset) & _M64
                regs[d.dst] = load(addr, d.size)
                pc += 1
            elif cls == CLS_STX:
                addr = (regs[d.dst] + d.offset) & _M64
                store(addr, d.size, regs[d.src])
                pc += 1
            elif cls == CLS_ST:
                addr = (regs[d.dst] + d.offset) & _M64
                store(addr, d.size, d.imm64)
                pc += 1
            elif cls == CLS_LD:
                value = d.wide_value
                if value is None:
                    raise IllegalInstructionFault("truncated wide instruction",
                                                  pc)
                regs[d.dst] = value
                pc += 2
            elif d.opcode == CALL:
                helper_id = d.imm
                stats.helper_calls[helper_id] = (
                    stats.helper_calls.get(helper_id, 0) + 1
                )
                try:
                    regs[0] = self.helpers.call(
                        self, helper_id,
                        regs[1], regs[2], regs[3], regs[4], regs[5],
                    )
                except VMFault:
                    raise
                except Exception as exc:  # contain helper implementation bugs
                    raise HelperFault(
                        f"helper 0x{helper_id:02x} failed: {exc}", pc
                    ) from exc
                pc += 1
            elif d.opcode == EXIT:
                return regs[0]
            else:  # CLS_JMP / CLS_JMP32 (the only remaining valid classes)
                if self._branch_taken(d, regs):
                    branches += 1
                    stats.branches_taken = branches
                    if branches > branch_limit:
                        raise BranchLimitFault(
                            f"taken-branch budget N_b={branch_limit} exhausted",
                            pc,
                        )
                    pc = d.target
                else:
                    pc += 1

    # -- instruction groups ---------------------------------------------------

    def _alu(self, op: int, dst: int, operand: int, pc: int,
             width64: bool) -> int:
        mask = _M64 if width64 else _M32
        if op == isa.ALU_ADD:
            result = dst + operand
        elif op == isa.ALU_SUB:
            result = dst - operand
        elif op == isa.ALU_MUL:
            result = dst * operand
        elif op == isa.ALU_DIV:
            if operand & mask == 0:
                raise DivisionFault("division by zero", pc)
            result = (dst & mask) // (operand & mask)
        elif op == isa.ALU_MOD:
            if operand & mask == 0:
                raise DivisionFault("modulo by zero", pc)
            result = (dst & mask) % (operand & mask)
        elif op == isa.ALU_OR:
            result = dst | operand
        elif op == isa.ALU_AND:
            result = dst & operand
        elif op == isa.ALU_XOR:
            result = dst ^ operand
        elif op == isa.ALU_LSH:
            result = dst << (operand & (63 if width64 else 31))
        elif op == isa.ALU_RSH:
            result = (dst & mask) >> (operand & (63 if width64 else 31))
        elif op == isa.ALU_ARSH:
            shift = operand & (63 if width64 else 31)
            signed = _s64(dst & _M64) if width64 else _s32(dst)
            result = signed >> shift
        elif op == isa.ALU_NEG:
            result = -dst
        elif op == isa.ALU_MOV:
            result = operand
        else:  # pragma: no cover - full opcode table handled above
            raise IllegalInstructionFault(f"unhandled ALU op 0x{op:02x}", pc)
        return result & mask

    def _endian(self, op: int, dst: int, width: int, pc: int) -> int:
        if width not in (16, 32, 64):
            raise IllegalInstructionFault(f"byteswap width {width}", pc)
        if op == isa.LE:
            # Host byte order in eBPF is little endian: `le` truncates.
            return dst & ((1 << width) - 1)
        return _byteswap(dst, width)

    def _branch_taken(self, d, regs: list[int]) -> bool:
        op = d.opcode
        if op == isa.JA:
            return True
        wide = d.cls == isa.CLS_JMP
        lhs = regs[d.dst]
        rhs = regs[d.src] if d.use_reg else d.imm64
        if not wide:
            lhs &= _M32
            rhs &= _M32
        kind = d.op
        if kind == isa.JMP_JEQ:
            return lhs == rhs
        if kind == isa.JMP_JNE:
            return lhs != rhs
        if kind == isa.JMP_JGT:
            return lhs > rhs
        if kind == isa.JMP_JGE:
            return lhs >= rhs
        if kind == isa.JMP_JLT:
            return lhs < rhs
        if kind == isa.JMP_JLE:
            return lhs <= rhs
        if kind == isa.JMP_JSET:
            return bool(lhs & rhs)
        signed = (_s64, _s32)[0 if wide else 1]
        slhs, srhs = signed(lhs), signed(rhs)
        if kind == isa.JMP_JSGT:
            return slhs > srhs
        if kind == isa.JMP_JSGE:
            return slhs >= srhs
        if kind == isa.JMP_JSLT:
            return slhs < srhs
        if kind == isa.JMP_JSLE:
            return slhs <= srhs
        raise IllegalInstructionFault(f"unhandled jump op 0x{op:02x}")


class RbpfInterpreter(Interpreter):
    """The original single-VM rBPF build (PEMWN'20 baseline)."""

    implementation = "rbpf"
    # rBPF keeps slightly less housekeeping (no hook/tenant bookkeeping).
    housekeeping_bytes = 20
