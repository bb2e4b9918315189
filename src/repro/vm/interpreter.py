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

Per-run state is reused across executions: the register file lives on
the instance and the stack's zero template on its shared prototype, so
a run resets registers (from one shared entry template) and stack with
one slice assignment each, a same-shaped context is copied into the
region the previous run mapped, and a hosting engine firing hooks at a
high rate reallocates no VM state per event.  The
:class:`ExecutionStats` object returned by :meth:`Interpreter.run` is
always fresh (engines keep them in run histories), but its
``kind_counts`` dict is cloned from a prebuilt zero table instead of
rebuilt key by key, in the one order every eBPF engine reports.  The
dispatch loop is a single frame per run: its constants arrive in one
tuple unpack, ALU64 ``mov`` and ``add``, the bulk of real programs, are
executed inline, a ``call`` is dispatched straight from the helper
registry's table, and the run's instruction total is published from
its local on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memo import seal_hash
from repro.vm import isa
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    HelperFault,
    IllegalInstructionFault,
    VMFault,
)
from repro.vm.helpers import HelperRegistry
from repro.vm.imagecache import InstancePrototype, lookup_prototype
from repro.vm.memory import (
    CONTEXT_BASE,
    DATA_BASE,
    RODATA_BASE,
    STACK_BASE,
    AccessList,
    MemoryRegion,
    Permission,
)
from repro.vm.predecode import predecode
from repro.vm.program import Program
from repro.vm.verifier import VerifierConfig, verify

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
    """Runtime limits of one container execution.

    A run has one bound: the verifier caps a program at N_i instructions
    and the VM caps it at N_b taken branches, so it executes at most
    N_i * (N_b + 1) instructions on every engine.
    """

    #: N_b — taken branches allowed before the execution is aborted.
    branch_limit: int = 10_000
    #: Size of the engine-provided stack (the eBPF spec mandates 512 B).
    stack_size: int = isa.STACK_SIZE

    def __post_init__(self) -> None:
        seal_hash(self)

    def __hash__(self) -> int:
        return self._hash


@dataclass(slots=True)
class ExecutionStats:
    """What one execution did, in platform-independent units."""

    executed: int = 0
    branches_taken: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)
    helper_calls: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class ExecutionResult:
    """Return value and accounting of one container execution."""

    value: int
    stats: ExecutionStats


#: Prebuilt zero table cloned into each run's ``kind_counts``.
_ZERO_KINDS = {kind: 0 for kind in isa.InstructionKind.ALL}

#: The register file at entry: all zero but ``r10``, the stack pointer.
_REGS_AT_ENTRY = tuple(STACK_BASE if index == isa.REG_STACK else 0
                       for index in range(isa.REG_COUNT))

#: The dispatch loop's constants, unpacked into its locals in one step.
_DISPATCH_CONSTANTS = (isa.CLS_ALU64, isa.CLS_ALU, isa.CLS_LDX, isa.CLS_STX,
                       isa.CLS_ST, isa.CLS_LD, isa.ALU_END, isa.ALU_MOV,
                       isa.ALU_ADD, isa.CALL, isa.EXIT)


class Interpreter:
    """Baseline interpreter; also the base class for the CertFC variant.

    ``implementation`` tags which engine build this models ("rbpf" or
    "femto-containers"); the per-platform cost tables key on it.
    """

    implementation = "femto-containers"
    #: Extra per-instance RAM beyond registers+stack (housekeeping structs).
    housekeeping_bytes = 24
    #: Whether the dispatch loop calls :meth:`_pre_execute_check` before
    #: every instruction: set for a subclass that overrides it (CertFC).
    _checks_each_instruction = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._checks_each_instruction = (
            cls._pre_execute_check is not Interpreter._pre_execute_check)

    def __init__(
        self,
        program: Program,
        helpers: HelperRegistry | None = None,
        config: VMConfig | None = None,
    ) -> None:
        """A standalone instance, cloned like an attach's from the image's
        shared prototype (derived with no verifier limits)."""
        config = config if config is not None else VMConfig()
        prototype = lookup_prototype(
            program, self.implementation, None, config,
            lambda: self.derive_prototype(program, None, config))
        self._init(prototype, program, helpers, config, [])

    @classmethod
    def derive_prototype(cls, program: Program,
                         verifier_config: VerifierConfig | None,
                         config: VMConfig) -> InstancePrototype:
        """Verify ``program`` (given a ``verifier_config``) and derive
        what its instances share.  Raises on rejection."""
        if verifier_config is not None:
            verify(program, verifier_config)  # raises on rejection
        # .rodata is read-only and immutable, so every instance maps one
        # region over the image's bytes (as a board executes it in place
        # from flash); a store into it faults on the permission check.
        rodata = (MemoryRegion(".rodata", RODATA_BASE,
                               bytes(program.rodata), Permission.READ)
                  if program.rodata else None)
        layout = [(STACK_BASE, STACK_BASE + config.stack_size, "stack")]
        if rodata is not None:
            layout.append((RODATA_BASE, rodata.end, ".rodata"))
        if program.data:
            layout.append((DATA_BASE, DATA_BASE + len(program.data),
                           ".data"))
        return InstancePrototype(
            code=predecode(program.slots),
            rodata=rodata,
            data=bytes(program.data),
            stack_zeros=bytes(config.stack_size),
            layout=tuple(layout))

    @classmethod
    def instantiate(cls, prototype: InstancePrototype, program: Program,
                    helpers: HelperRegistry | None, config: VMConfig,
                    regions: list[MemoryRegion]) -> "Interpreter":
        """A fresh instance cloned from ``prototype``: its own stack,
        registers and ``.data``, one access list built over those and
        the grant ``regions`` (the list is taken over)."""
        vm = cls.__new__(cls)
        vm._init(prototype, program, helpers, config, regions)
        return vm

    def _init(self, prototype: InstancePrototype, program: Program,
              helpers: HelperRegistry | None, config: VMConfig,
              regions: list[MemoryRegion]) -> None:
        self.prototype = prototype
        self.program = program
        self.helpers = helpers if helpers is not None else HelperRegistry()
        self.config = config
        self.stack = MemoryRegion("stack", STACK_BASE,
                                  bytearray(config.stack_size),
                                  Permission.READ_WRITE)
        regions.append(self.stack)
        if prototype.rodata is not None:
            regions.append(prototype.rodata)
        self.data_region: MemoryRegion | None = None
        if prototype.data:
            self.data_region = MemoryRegion(".data", DATA_BASE,
                                            bytearray(prototype.data),
                                            Permission.READ_WRITE)
            regions.append(self.data_region)
        self.access_list = AccessList(regions)
        self._context_region: MemoryRegion | None = None
        #: The hosting engine that attached this instance (set when the
        #: attached container clones it, :attr:`~repro.core.container
        #: .FemtoContainer.vm`): the one way a helper of the shared table
        #: reaches its device.  ``None`` on a standalone VM, whose
        #: engine-bound helper calls fault.
        self.services = None
        # Reusable per-run state (see the module docstring).
        self._regs: list[int] = [0] * isa.REG_COUNT

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
        cache stays warm across fires (:meth:`run` makes the same check
        inline).  A shape or permission change falls back to the remap
        path.  The context region is only ever unmapped here and by a
        :meth:`run` without a context, which is what keeps the in-place
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

        A non-empty ``context`` is copied into the context region and its
        address passed in r1, mirroring the launchpad calling convention
        of Listing 1.  An empty one (``b""``, what the hosting engine
        passes for a hook fired without a context) maps none: the region
        a previous run mapped is unmapped, r1 is 0, and a read through it
        is a contained memory fault.  ``None`` keeps whatever
        :meth:`bind_context` mapped last, the way a standalone VM is
        driven.  Faults propagate as :class:`VMFault` subclasses that
        carry the counts the run made up to the fault (``stats``); the
        hosting engine is responsible for catching them.
        """
        region = self._context_region
        if context:
            if (region is not None and region.perms == context_perms
                    and len(region.data) == len(context)):
                region.data[:] = context  # bind_context's same-shape path
            else:
                region = self.bind_context(context, context_perms)
        elif context is not None and region is not None:
            self.access_list.remove(region)
            region = self._context_region = None
        # Fresh stack for each run: the engine hands out a zeroed stack.
        # One slice assignment from the prebuilt template, not a byte loop.
        self.stack.data[:] = self.prototype.stack_zeros

        regs = self._regs
        regs[:] = _REGS_AT_ENTRY
        if region is not None:
            regs[isa.REG_CTX] = CONTEXT_BASE

        stats = ExecutionStats(0, 0, _ZERO_KINDS.copy(), {})
        try:
            value = self._dispatch_loop(regs, stats)
        except VMFault as fault:
            fault.stats = stats  # the engine charges the aborted run's work
            raise
        return ExecutionResult(value, stats)

    # Hook for the CertFC defensive variant.
    def _pre_execute_check(self, ins, regs: list[int], pc: int) -> None:
        """Per-instruction defensive check; no-op in the optimized build."""

    def _dispatch_loop(self, regs: list[int], stats: ExecutionStats) -> int:
        decoded = self.prototype.code
        n_slots = len(decoded)
        access_list = self.access_list
        load = access_list.load
        store = access_list.store
        kind_counts = stats.kind_counts
        helper_calls = stats.helper_calls
        helper_table = self.helpers.table
        branch_limit = self.config.branch_limit
        pc = 0
        executed = 0
        branches = 0
        # CertFC hooks every instruction; the optimized build skips the
        # callback entirely instead of calling a no-op.
        pre_check = (self._pre_execute_check
                     if self._checks_each_instruction else None)
        (CLS_ALU64, CLS_ALU, CLS_LDX, CLS_STX, CLS_ST, CLS_LD, ALU_END,
         ALU_MOV, ALU_ADD, CALL, EXIT) = _DISPATCH_CONSTANTS

        try:
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

                cls = d.cls

                if cls == CLS_ALU64:
                    # mov and add dominate real programs: inline them
                    # (operands are already in 64-bit range).
                    op = d.op
                    operand = regs[d.src] if d.use_reg else d.imm64
                    if op == ALU_MOV:
                        regs[d.dst] = operand
                    elif op == ALU_ADD:
                        regs[d.dst] = (regs[d.dst] + operand) & _M64
                    else:
                        regs[d.dst] = self._alu(op, regs[d.dst], operand, pc,
                                                width64=True)
                    pc += 1
                elif cls == CLS_ALU:
                    if d.op == ALU_END:
                        regs[d.dst] = self._endian(d.opcode, regs[d.dst],
                                                   d.imm, pc)
                    else:
                        operand = regs[d.src] if d.use_reg else d.imm
                        regs[d.dst] = self._alu(d.op, regs[d.dst] & _M32,
                                                operand & _M32, pc,
                                                width64=False)
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
                        raise IllegalInstructionFault(
                            "truncated wide instruction", pc)
                    regs[d.dst] = value
                    pc += 2
                elif d.opcode == CALL:
                    helper_id = d.imm
                    helper_calls[helper_id] = (
                        helper_calls.get(helper_id, 0) + 1)
                    helper = helper_table.get(helper_id)
                    if helper is None:
                        raise HelperFault(
                            f"unknown helper id 0x{helper_id:02x}", pc)
                    try:
                        result = helper.fn(self, regs[1], regs[2], regs[3],
                                           regs[4], regs[5])
                        regs[0] = (0 if result is None
                                   else int(result) & _M64)
                    except VMFault:
                        raise
                    except Exception as exc:  # contain helper bugs
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
                                f"taken-branch budget N_b={branch_limit} "
                                "exhausted",
                                pc,
                            )
                        pc = d.target
                    else:
                        pc += 1
        except VMFault as exc:  # from the access list, or a helper
            raise exc.at_pc(pc)
        finally:
            # kind_counts and branches_taken are live-updated (a helper
            # sees the run so far); publish the total from its local so
            # that even a faulted execution carries exact accounting (the
            # engine charges cycles for aborted runs too).
            stats.executed = executed

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
