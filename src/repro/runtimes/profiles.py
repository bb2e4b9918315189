"""The §6 cost/footprint profiles of the non-eBPF runtimes.

Each profile is data for one
:class:`~repro.runtimes.base.ContainerRuntime`, the only code that
turns it into cycles: the deployed containers and the paper's Tables 1
and 2 (:mod:`repro.runtimes.comparison`) both price a run or a cold
start through the runtime object, so editing a profile here moves
both.  ROM footprints of the third-party C interpreters are documented
constants (they cannot be derived from Python — see DESIGN.md §4); the
cycle tables are calibrated on the paper's Cortex-M4 measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

#: rBPF runtime flash (engine + loader), from Fig 2's 8 % of 57 kB.
RBPF_RUNTIME_ROM = 4_560
#: WASM3 flash footprint (Table 1).
WASM3_ROM = 65_536
#: MicroPython flash footprint (Table 1).
MICROPYTHON_ROM = 103_424
#: RIOTjs flash footprint (Table 1).
RIOTJS_ROM = 123_904


@dataclass(frozen=True)
class WasmProfile:
    """Cycle model of a WASM3-class transcoding interpreter."""

    op_cycles: Mapping[str, int]
    #: Startup: runtime/environment init plus per-byte transcoding.
    startup_base_cycles: int
    startup_cycles_per_byte: int


WASM3_PROFILE = WasmProfile(
    op_cycles=MappingProxyType({
        "alu": 13, "mul": 21, "div": 39, "mem": 32, "local": 11,
        "control": 19,
    }),
    startup_base_cycles=1_055_000,
    startup_cycles_per_byte=220,
)


@dataclass(frozen=True)
class ScriptProfile:
    """Cost/footprint model of one script-interpreter runtime."""

    name: str
    rom_bytes: int
    state_ram_bytes: int
    heap_ram_bytes: int
    parse_base_cycles: int
    parse_cycles_per_token: int
    visit_cycles: Mapping[str, int]

    @property
    def ram_bytes(self) -> int:
        return self.state_ram_bytes + self.heap_ram_bytes


MICROPYTHON_PROFILE = ScriptProfile(
    name="MicroPython",
    rom_bytes=MICROPYTHON_ROM,
    state_ram_bytes=2_200,
    heap_ram_bytes=6_196,          # configurable heap; Table 1 total 8.2 kB
    parse_base_cycles=1_337_000,   # interpreter + gc init, bytecode compile
    parse_cycles_per_token=350,
    visit_cycles=MappingProxyType({
        "literal": 102, "name": 138, "binop": 247, "assign": 218,
        "index": 378, "call": 1016, "control": 232,
    }),
)

RIOTJS_PROFILE = ScriptProfile(
    name="RIOTjs",
    rom_bytes=RIOTJS_ROM,
    state_ram_bytes=2_400,
    heap_ram_bytes=16_032,         # jerryscript-style heap; Table 1: 18 kB
    parse_base_cycles=296_000,     # lighter init than MicroPython
    parse_cycles_per_token=330,
    visit_cycles=MappingProxyType({
        "literal": 91, "name": 125, "binop": 222, "assign": 196,
        "index": 341, "call": 915, "control": 209,
    }),
)
