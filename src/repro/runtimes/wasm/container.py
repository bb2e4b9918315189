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
as :class:`~repro.vm.errors.MemoryFault`, division by zero as
:class:`~repro.vm.errors.DivisionFault`, and a per-run control-op budget
(the wasm analogue of the N_b taken-branch budget, wired from the granted
``branch_limit``) bounds runaway loops with
:class:`~repro.vm.errors.BranchLimitFault`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtimes.base import (
    RUNTIME_WASM,
    InterpretedImage,
    InterpretedRuntime,
    InterpretedVM,
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
from repro.vm.interpreter import ExecutionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import MemoryGrant
    from repro.rtos.board import Board
    from repro.vm.interpreter import VMConfig
    from repro.vm.verifier import VerifierConfig

_M32 = (1 << 32) - 1


class _MeteredStats:
    """Per-run counts with a control-op fuel budget (the wasm N_b)."""

    __slots__ = ("executed", "class_counts", "branch_limit")

    def __init__(self, branch_limit: int):
        self.executed = 0
        self.class_counts: dict[str, int] = {}
        self.branch_limit = branch_limit

    def count(self, cost_class: str) -> None:
        self.executed += 1
        counts = self.class_counts
        counts[cost_class] = counts.get(cost_class, 0) + 1
        if cost_class == "control" and counts["control"] > self.branch_limit:
            raise WasmTrap("control-op budget exhausted")


class WasmContainerVM(InterpretedVM):
    """One :class:`WasmInstance`: linear memory and run state."""

    FAULTS = (
        ("out of bounds", MemoryFault),
        ("OOB", MemoryFault),
        ("divide by zero", DivisionFault),
        ("remainder by zero", DivisionFault),
        ("budget exhausted", BranchLimitFault),
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

    def run(self, context: bytes | None = None,
            context_perms=None) -> ExecutionResult:
        """One contained execution: context at linear-memory offset 0,
        entry function called with the context length, i32 result."""
        instance = self.instance
        payload = bytes(context) if context else b""
        memory = instance.memory
        memory[:] = bytes(len(memory))
        stats = _MeteredStats(self.config.branch_limit)
        instance.stats = stats  # type: ignore[assignment]
        try:
            if len(payload) > len(memory):
                raise WasmTrap(
                    f"host write of {len(payload)} B at 0 OOB"
                )
            memory[: len(payload)] = payload
            value = instance.run([len(payload)])
        except WasmTrap as trap:
            raise self.fault(str(trap), stats.executed,
                             stats.class_counts) from trap
        return ExecutionResult(
            value=value & _M32,
            stats=self.execution_stats(stats.executed, stats.class_counts))


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
