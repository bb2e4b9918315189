"""Board models for the three evaluation platforms (paper Appendix A).

All timing in the reproduction derives from these per-platform cost tables.
Each table maps an instruction cost class (:class:`repro.vm.isa.InstructionKind`)
to CPU cycles, per VM implementation ("rbpf", "femto-containers", "certfc",
"jit"), plus costs for helper system calls, hook dispatch and context
switches.

Calibration policy (see DESIGN.md §3): the Cortex-M4 constants are tuned
once against the paper's *textual* anchors — Table 4 hook overheads (109
empty / 1750 with thread-counter app), the ~27 µs thread-switch impact,
Table 2's fletcher32 run time scale, Fig 8's per-instruction ordering
(rBPF ≈ Femto-Containers << CertFC, memory ops costlier than ALU).  The
ESP32 and RISC-V tables are set from their Table 4 anchors (83/1163 and
106/754 ticks) and plausible microarchitectural differences (the GD32V's
slow uncached flash makes loads relatively expensive, while its simple
in-order ALU path is cheap).  Everything downstream — who wins, crossover
points, totals — *emerges* from executing real workloads against these
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.vm.helpers import HelperRegistry
from repro.vm.interpreter import ExecutionStats

#: The VM implementations the evaluation compares (paper §10).
IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc", "jit")


@dataclass(frozen=True)
class VMCostTable:
    """Cycle costs of one VM implementation on one platform."""

    #: Decode + computed-jumptable dispatch, charged per executed instruction.
    dispatch: int
    #: InstructionKind -> extra cycles on top of dispatch.
    op_cycles: Mapping[str, int]
    #: Extra cycles per helper call (marshalling), on top of the syscall cost.
    call_extra: int


@dataclass(frozen=True, slots=True)
class CostProfile:
    """The prices of a run under one VM build or runtime on one board.

    A profile is a firmware constant, shared by every device and engine
    that prices with it: :meth:`Board.cost_profile` returns the one
    profile of each VM build on a board, built from the board's tables
    (no copy); the other container runtimes hold one built from their own
    per-class tables (no dispatch term, no helpers).  It holds no helper
    registry: the caller passes its live one to :meth:`cycles`, the one
    formula that turns a run's counts into cycles, so ``fc run``, the
    hosting engine and the Table 1/2 rows all price a run the same way.
    """

    #: Cycles per executed instruction, on top of its class price.
    dispatch: int
    #: Cost class -> extra cycles per instruction of that class.
    op_cycles: Mapping[str, int]
    #: Extra cycles per helper call (marshalling), on top of its service.
    call_extra: int = 0
    #: Helper cost key -> cycles spent inside the RTOS service.
    syscall_cycles: Mapping[str, int] = field(default_factory=dict)

    def cycles(self, stats: ExecutionStats,
               helpers: HelperRegistry | None = None) -> int:
        """Translate an execution's counts into cycles.

        ``helpers`` names each helper's cost key; an id it does not hold
        (or no registry at all) is charged as ``"trace"``.
        """
        op_cycles = self.op_cycles
        cycles = stats.executed * self.dispatch
        for kind, count in stats.kind_counts.items():
            if count:
                cycles += count * op_cycles[kind]
        if stats.helper_calls:
            table = helpers.table if helpers is not None else {}
            for helper_id, count in stats.helper_calls.items():
                helper = table.get(helper_id)
                cost_key = "trace" if helper is None else helper.cost_key
                cycles += count * (self.call_extra
                                   + self.syscall_cycles.get(cost_key, 100))
        return cycles


@dataclass(frozen=True, eq=False)
class Board:
    """One microcontroller platform model.

    A model is firmware-constant: :func:`nrf52840` and its siblings
    return one frozen instance per model, shared by every simulated
    device of that board, with one :class:`CostProfile` per VM build.
    Equality is identity, so a model keys a memo by the object.
    """

    name: str
    cpu: str
    arch: str
    mhz: int
    flash_kib: int
    ram_kib: int
    #: Plain RTOS context-switch cost (save/restore, queue ops).
    context_switch_cycles: int
    #: Cost of an *empty* launchpad (Table 4 "Empty Hook", clock ticks).
    hook_dispatch_cycles: int
    #: implementation name -> cost table.
    vm_costs: Mapping[str, VMCostTable]
    #: helper cost key -> cycles spent inside the RTOS service.
    syscall_cycles: Mapping[str, int]
    #: Active-mode current draw at 3.3 V (energy model), mA.
    active_ma: float
    #: Sleep-mode current draw, µA.
    sleep_ua: float
    #: Relative code density vs Cortex-M4 Thumb-2 (ROM footprint model).
    code_size_factor: float
    #: Cycles per "native instruction" for natively-compiled logic.
    native_cpi: float = 1.3
    #: Per-execution VM setup (registers, stack pointer) — Table 2's rBPF
    #: cold start of ~1 µs on Cortex-M4.
    vm_setup_cycles: int = 64
    #: Pre-flight checker cost per instruction slot, paid once at load.
    verify_cycles_per_slot: int = 9
    #: §11 transpiler cost per slot, paid once at install.
    jit_install_cycles_per_slot: int = 220
    #: Cold-boot cost after a reset or power failure (ROM boot, clock
    #: setup, RTOS init — ~30 ms at 64 MHz), charged by whoever rebuilds
    #: the device around a fresh kernel.
    reboot_cycles: int = 1_920_000
    #: Internal-flash page size for the NVM model (bytes).
    nvm_page_bytes: int = 4096
    #: Cycles to erase one NVM page before re-programming.
    nvm_erase_cycles_per_page: int = 85_000
    #: Cycles to program one NVM byte.
    nvm_write_cycles_per_byte: int = 40
    #: implementation name -> its one :class:`CostProfile` on this board.
    _profiles: Mapping[str, CostProfile] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_profiles", MappingProxyType({
            implementation: CostProfile(
                dispatch=table.dispatch,
                op_cycles=table.op_cycles,
                call_extra=table.call_extra,
                syscall_cycles=self.syscall_cycles,
            )
            for implementation, table in self.vm_costs.items()
        }))

    # -- conversions -------------------------------------------------------

    def us(self, cycles: int | float) -> float:
        """Convert cycles to microseconds at this board's clock."""
        return cycles / self.mhz

    def cycles(self, us: float) -> int:
        return round(us * self.mhz)

    # -- VM execution costing ------------------------------------------------

    def cost_table(self, implementation: str) -> VMCostTable:
        try:
            return self.vm_costs[implementation]
        except KeyError:
            raise KeyError(
                f"board {self.name!r} has no cost table for VM "
                f"implementation {implementation!r}"
            ) from None

    def cost_profile(self, implementation: str) -> CostProfile:
        """The run prices of ``implementation`` on this board (one shared
        profile per implementation)."""
        self.cost_table(implementation)  # raises for an unknown build
        return self._profiles[implementation]

    def vm_execution_cycles(
        self,
        stats: ExecutionStats,
        implementation: str,
        helpers: HelperRegistry | None = None,
    ) -> int:
        """Translate an execution's instruction counts into cycles."""
        return self.cost_profile(implementation).cycles(stats, helpers)

    def vm_execution_us(
        self,
        stats: ExecutionStats,
        implementation: str,
        helpers: HelperRegistry | None = None,
    ) -> float:
        return self.us(self.vm_execution_cycles(stats, implementation, helpers))

    def native_cycles(self, instruction_estimate: int) -> int:
        """Cost of natively-compiled logic (Table 2 "Native C" model)."""
        return round(instruction_estimate * self.native_cpi)

    def nvm(self, kernel=None):
        """A fresh :class:`~repro.rtos.nvm.NvmStore` with this board's
        flash geometry and erase/program cost model."""
        from repro.rtos.nvm import NvmStore

        return NvmStore(
            kernel,
            page_bytes=self.nvm_page_bytes,
            erase_cycles_per_page=self.nvm_erase_cycles_per_page,
            write_cycles_per_byte=self.nvm_write_cycles_per_byte,
        )

    # -- energy model -----------------------------------------------------------

    def active_energy_uj(self, cycles: int) -> float:
        """Energy burned executing for ``cycles`` in active mode (µJ)."""
        seconds = cycles / (self.mhz * 1e6)
        return seconds * (self.active_ma * 1e-3) * 3.3 * 1e6

    def sleep_energy_uj(self, duration_us: float) -> float:
        return duration_us * 1e-6 * (self.sleep_ua * 1e-6) * 3.3 * 1e6


def _table(dispatch: int, alu: int, mul: int, div: int, load: int, store: int,
           branch: int, call: int, exit_: int, lddw: int,
           call_extra: int) -> VMCostTable:
    return VMCostTable(
        dispatch=dispatch,
        op_cycles=MappingProxyType({
            "alu": alu,
            "alu_mul": mul,
            "alu_div": div,
            "load": load,
            "store": store,
            "branch": branch,
            "call": call,
            "exit": exit_,
            "lddw": lddw,
        }),
        call_extra=call_extra,
    )


_NRF52840 = Board(
    name="nrf52840",
    cpu="Arm Cortex-M4",
    arch="cortex-m4",
    mhz=64,
    flash_kib=1024,
    ram_kib=256,
    context_switch_cycles=240,
    hook_dispatch_cycles=109,          # Table 4, empty hook
    vm_costs=MappingProxyType({
        # Optimized C interpreter: computed jumptable, Thumb-2.
        "rbpf": _table(dispatch=37, alu=18, mul=26, div=44, load=42,
                       store=42, branch=22, call=30, exit_=18, lddw=36,
                       call_extra=26),
        # The Femto-Container extensions add one indirection on the
        # hot path ("minimal overhead", Fig 8).
        "femto-containers": _table(dispatch=38, alu=18, mul=26, div=44,
                                   load=42, store=42, branch=22, call=30,
                                   exit_=18, lddw=36, call_extra=26),
        # Coq-extracted defensive build: every access re-checked.
        "certfc": _table(dispatch=60, alu=40, mul=56, div=95, load=110,
                         store=110, branch=46, call=64, exit_=36,
                         lddw=80, call_extra=42),
        # §11 install-time transpilation: dispatch is native.
        "jit": _table(dispatch=2, alu=2, mul=4, div=14, load=24,
                      store=24, branch=3, call=28, exit_=2, lddw=3,
                      call_extra=26),
    }),
    syscall_cycles=MappingProxyType({
        "kv": 260, "saul": 160, "coap": 430, "fmt": 240, "time": 70,
        "trace": 120, "mem": 90,
    }),
    active_ma=6.4,
    sleep_ua=2.6,
    code_size_factor=1.00,
    native_cpi=1.03,
    vm_setup_cycles=64,
)


def nrf52840() -> Board:
    """Nordic nRF52840 DK: Arm Cortex-M4 @ 64 MHz, 256 KiB RAM, 1 MiB flash."""
    return _NRF52840


_ESP32_WROOM32 = Board(
    name="esp32-wroom-32",
    cpu="Espressif ESP32 (Xtensa LX6)",
    arch="xtensa-lx6",
    mhz=64,
    flash_kib=448,
    ram_kib=520,
    context_switch_cycles=300,
    hook_dispatch_cycles=83,           # Table 4, empty hook
    vm_costs=MappingProxyType({
        "rbpf": _table(dispatch=25, alu=12, mul=18, div=30, load=36,
                       store=36, branch=14, call=20, exit_=12, lddw=28,
                       call_extra=18),
        "femto-containers": _table(dispatch=26, alu=12, mul=18, div=30,
                                   load=36, store=36, branch=14, call=20,
                                   exit_=12, lddw=28, call_extra=18),
        "certfc": _table(dispatch=42, alu=26, mul=38, div=64, load=80,
                         store=80, branch=30, call=44, exit_=26,
                         lddw=56, call_extra=28),
        "jit": _table(dispatch=2, alu=2, mul=3, div=10, load=18,
                      store=18, branch=2, call=20, exit_=2, lddw=3,
                      call_extra=18),
    }),
    syscall_cycles=MappingProxyType({
        "kv": 130, "saul": 110, "coap": 260, "fmt": 150, "time": 50,
        "trace": 90, "mem": 70,
    }),
    active_ma=40.0,
    sleep_ua=10.0,
    code_size_factor=1.42,             # Xtensa code is larger
    native_cpi=1.15,
    vm_setup_cycles=56,
)


def esp32_wroom32() -> Board:
    """ESP32 WROOM-32: Xtensa LX6 @ 64 MHz (per Appendix A), 520 KiB RAM."""
    return _ESP32_WROOM32


_GD32VF103 = Board(
    name="gd32vf103",
    cpu="GigaDevice GD32VF103 (RISC-V RV32IMAC)",
    arch="rv32imac",
    mhz=64,
    flash_kib=128,
    ram_kib=32,
    context_switch_cycles=200,
    hook_dispatch_cycles=106,          # Table 4, empty hook
    vm_costs=MappingProxyType({
        "rbpf": _table(dispatch=15, alu=8, mul=14, div=26, load=45,
                       store=40, branch=10, call=12, exit_=8, lddw=30,
                       call_extra=10),
        "femto-containers": _table(dispatch=16, alu=8, mul=14, div=26,
                                   load=45, store=40, branch=10, call=12,
                                   exit_=8, lddw=30, call_extra=10),
        "certfc": _table(dispatch=30, alu=18, mul=26, div=48, load=95,
                         store=85, branch=22, call=28, exit_=18,
                         lddw=60, call_extra=18),
        "jit": _table(dispatch=2, alu=1, mul=2, div=9, load=26,
                      store=22, branch=2, call=10, exit_=1, lddw=3,
                      call_extra=10),
    }),
    syscall_cycles=MappingProxyType({
        "kv": 30, "saul": 60, "coap": 120, "fmt": 80, "time": 30,
        "trace": 50, "mem": 40,
    }),
    active_ma=14.0,
    sleep_ua=5.0,
    code_size_factor=0.90,             # RV32C compressed instructions
    native_cpi=1.35,
    vm_setup_cycles=40,
)


def gd32vf103() -> Board:
    """Sipeed Longan Nano: GD32VF103 RV32IMAC @ 64 MHz (per Appendix A).

    The Bumblebee core has a cheap in-order ALU path but *uncached, slow
    flash*, which penalises the load-heavy memory path — this is why the
    board wins Table 4's syscall-heavy thread-counter (754 ticks) yet is
    not proportionally faster on load-dominated code.
    """
    return _GD32VF103


#: The paper's three evaluation platforms, by short name.
BOARDS = {
    "cortex-m4": nrf52840,
    "esp32": esp32_wroom32,
    "risc-v": gd32vf103,
}


def all_boards() -> list[Board]:
    """The three evaluation boards (paper order)."""
    return [nrf52840(), esp32_wroom32(), gd32vf103()]


def board_by_name(name: str) -> Board:
    try:
        return BOARDS[name]()
    except KeyError:
        raise KeyError(
            f"unknown board {name!r}; choose from {sorted(BOARDS)}"
        ) from None
