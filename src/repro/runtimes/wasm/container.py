"""Mini-Wasm images as deployable Femto-Containers.

Hosts the WASM3-class stack VM (:mod:`repro.runtimes.wasm.interpreter`)
through the shared interpreted-format adapter
(:mod:`repro.runtimes.base`).  What is Wasm's own: an image's
code is its decoded :class:`~repro.runtimes.wasm.module.Module`; startup
is the §6 runtime init plus per-byte transcoding; the prototype is the
validated module's control tables; and attach refuses a module over the
granted instruction limit before it charges anything.  Table 2's WASM3
row is measured through it.

Containment parity with rBPF: out-of-bounds linear-memory accesses trap
as :class:`~repro.vm.errors.MemoryFault` and division by zero as
:class:`~repro.vm.errors.DivisionFault`.  Every control op (block, loop,
if, else, end, br, br_if, return, call) is one control count of the
shared per-run :class:`~repro.runtimes.base.RunMeter`, so the granted
``branch_limit`` N_b, and a call-depth guard, bound runaway code with
:class:`~repro.vm.errors.BranchLimitFault`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtimes.base import (
    RUNTIME_WASM,
    InterpretedImage,
    InterpretedRuntime,
    InterpretedVM,
    RunMeter,
)
from repro.runtimes.profiles import WASM3_PROFILE, WASM3_ROM, WasmProfile
from repro.runtimes.wasm.interpreter import WasmInstance, WasmTrap, prepare
from repro.runtimes.wasm.module import Module
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    MemoryFault,
    VerificationError,
)
from repro.vm.imagecache import InstancePrototype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import MemoryGrant
    from repro.rtos.board import Board
    from repro.vm.interpreter import VMConfig
    from repro.vm.verifier import VerifierConfig

_M32 = (1 << 32) - 1


class WasmContainerVM(InterpretedVM):
    """One :class:`WasmInstance`: linear memory and run state."""

    ERRORS = (WasmTrap,)
    FAULTS = (
        ("out of bounds", MemoryFault),
        ("OOB", MemoryFault),
        ("divide by zero", DivisionFault),
        ("remainder by zero", DivisionFault),
        ("call stack exhausted", BranchLimitFault),
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # The module was validated once, when its prototype was derived;
        # the instance owns only its linear memory and run state.
        self.instance = WasmInstance(self.image.code,
                                     control=self.prototype.code)

    @property
    def ram_bytes(self) -> int:
        return self.instance.ram_bytes

    def execute(self, payload: bytes, meter: RunMeter) -> int:
        """Context at linear-memory offset 0, entry function called with
        the context length, i32 result."""
        instance = self.instance
        memory = instance.memory
        memory[:] = bytes(len(memory))
        instance.write_memory(0, payload)
        return instance.run([len(payload)], meter=meter) & _M32


class WasmContainerRuntime(InterpretedRuntime):
    """Deploys mini-wasm modules through the WASM3-class cost model."""

    name = RUNTIME_WASM
    vm = WasmContainerVM

    def __init__(self, profile: WasmProfile = WASM3_PROFILE):
        super().__init__(profile, WASM3_ROM, profile.op_cycles)

    def decode_code(self, payload: bytes) -> Module:
        # Decoding validates the encoding; structural validation happens
        # at attach (the prototype), mirroring rBPF's decode/verify split.
        return Module.decode(payload)

    def startup_cycles(self, image: InterpretedImage, board: "Board") -> int:
        """§6 WASM3 startup: runtime init plus per-byte transcoding."""
        profile = self.profile
        return (profile.startup_base_cycles
                + profile.startup_cycles_per_byte * image.code_size)

    def prototype(self, image: InterpretedImage, implementation: str,
                  verifier_config: "VerifierConfig",
                  vm_config: "VMConfig") -> InstancePrototype:
        # Validation is the wasm pre-flight: an invalid module raises.
        return InstancePrototype(code=prepare(image.code))

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               verifier_config: "VerifierConfig", vm_config: "VMConfig",
               grants: "tuple[MemoryGrant, ...]") -> InstancePrototype:
        # The granted instruction limit refuses before any charge.
        instructions = sum(len(fn.body)
                           for fn in container.program.code.functions)
        if instructions > verifier_config.max_instructions:
            raise VerificationError(
                f"module has {instructions} instructions, granted "
                f"limit is {verifier_config.max_instructions}"
            )
        return super().attach(engine, container, verifier_config, vm_config,
                              grants)
