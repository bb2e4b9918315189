"""Script images as deployable Femto-Containers.

Hosts the tree-walking script interpreter
(:mod:`repro.runtimes.script.interp`) through the shared
interpreted-format adapter (:mod:`repro.runtimes.base`).  What is
the script format's own: the payload *is* the source (the paper ships
MicroPython / RIOT.js programs to devices as text, which is why script
code size is source size in Table 2), and an image's code is its parsed
tree.  Parsing at decode is the script analogue of the pre-flight
verifier, so a syntactically broken payload is refused before it can
attach, and the tree is the prototype.  Cost comes from a §6
:class:`ScriptProfile`: the source's token count times the per-token
parse cost at attach, real node-visit counts through the per-class visit
table at run time.  Table 2's RIOTjs and MicroPython rows are this
runtime under their two profiles.

Containment parity with rBPF: out-of-range indexing faults as
:class:`~repro.vm.errors.MemoryFault` and division by zero as
:class:`~repro.vm.errors.DivisionFault`.  Each ``if``, each loop test and
each ``return`` is one control count of the shared per-run
:class:`~repro.runtimes.base.RunMeter`, so the granted ``branch_limit``
N_b bounds the whole run, however deep its loops nest, and a recursion
guard bounds the rest; both fault with
:class:`~repro.vm.errors.BranchLimitFault`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtimes.base import (
    RUNTIME_SCRIPT,
    InterpretedImage,
    InterpretedRuntime,
    InterpretedVM,
    RunMeter,
)
from repro.runtimes.profiles import MICROPYTHON_PROFILE, ScriptProfile
from repro.runtimes.script.interp import Interpreter, ScriptRuntimeError
from repro.runtimes.script.nodes import Script
from repro.runtimes.script.parser import parse
from repro.vm.errors import BranchLimitFault, DivisionFault, MemoryFault
from repro.vm.imagecache import InstancePrototype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.board import Board
    from repro.vm.interpreter import VMConfig
    from repro.vm.verifier import VerifierConfig

_M64 = (1 << 64) - 1


class ScriptContainerVM(InterpretedVM):
    """One fresh interpreter per execution."""

    ERRORS = (ScriptRuntimeError,)
    FAULTS = (
        ("out of range", MemoryFault),
        ("not indexable", MemoryFault),
        ("division by zero", DivisionFault),
        ("call stack exhausted", BranchLimitFault),
    )

    @property
    def ram_bytes(self) -> int:
        """Interpreter state + heap, modelled after the profile's Table 1
        footprint (the real heap is host-side Python)."""
        return self.profile.ram_bytes

    def execute(self, payload: bytes, meter: RunMeter) -> int:
        result = Interpreter(
            self.prototype.code,
            builtins={"input": payload, "context": payload},
            meter=meter,
        ).run()
        return result & _M64 if isinstance(result, int) else 0


class ScriptContainerRuntime(InterpretedRuntime):
    """Deploys script sources through a §6 script-interpreter profile."""

    name = RUNTIME_SCRIPT
    vm = ScriptContainerVM

    def __init__(self, profile: ScriptProfile = MICROPYTHON_PROFILE):
        super().__init__(profile, profile.rom_bytes, profile.visit_cycles)

    def decode_code(self, payload: bytes) -> Script:
        return parse(payload.decode("utf-8"))

    def startup_cycles(self, image: InterpretedImage, board: "Board") -> int:
        """§6 script startup: interpreter/GC init plus per-token parsing."""
        profile = self.profile
        return (profile.parse_base_cycles
                + profile.parse_cycles_per_token * image.code.token_count)

    def prototype(self, image: InterpretedImage, implementation: str,
                  verifier_config: "VerifierConfig",
                  vm_config: "VMConfig") -> InstancePrototype:
        # Parsing at decode was the pre-flight: the tree is the code.
        return InstancePrototype(code=image.code)
