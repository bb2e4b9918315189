"""Mini-Wasm images as deployable Femto-Containers.

Adapts the WASM3-class stack VM (:mod:`repro.runtimes.wasm.interpreter`)
to the hosting engine's container interface: a :class:`WasmImage`
duck-types the ``Program`` surface the planner and SUIT worker touch, a
:class:`WasmContainerVM` exposes the ``run(context=..., ...)`` duck
interface and translates traps into the engine's contained
:class:`~repro.vm.errors.VMFault` hierarchy, and the runtime is the one
WASM3 cost model, read from the §6 profile: the calibrated
per-cost-class cycle table at run time, the base + per-byte transcoding
cost at attach time.  Table 2's WASM3 row is measured through it.

Containment parity with rBPF: out-of-bounds linear-memory accesses trap
as :class:`~repro.vm.errors.MemoryFault`, division by zero as
:class:`~repro.vm.errors.DivisionFault`, and a per-run control-op budget
(the wasm analogue of the N_b taken-branch budget, wired from the granted
``branch_limit``) bounds runaway loops with
:class:`~repro.vm.errors.BranchLimitFault`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtimes.base import RUNTIME_WASM, tagged_image_hash
from repro.runtimes.profiles import WASM3_PROFILE, WASM3_ROM, WasmProfile
from repro.runtimes.wasm.interpreter import WasmInstance, WasmTrap
from repro.runtimes.wasm.module import Module, WasmError
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    IllegalInstructionFault,
    MemoryFault,
    VerificationError,
)
from repro.vm.interpreter import ExecutionResult, ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer
    from repro.core.engine import HostingEngine
    from repro.core.policy import GrantedPolicy
    from repro.rtos.board import Board
    from repro.vm.helpers import HelperRegistry
    from repro.vm.interpreter import VMConfig
    from repro.vm.memory import AccessList
    from repro.vm.verifier import VerifierConfig

_M32 = (1 << 32) - 1


class WasmImage:
    """One decoded mini-wasm module, presenting the ``Program`` surface.

    Holds the encoded payload (what a SUIT manifest ships and what
    content addressing hashes) plus the decoded module.  Decoding
    validates the encoding; structural validation happens at attach
    (instantiation), mirroring rBPF's decode/verify split.
    """

    runtime = RUNTIME_WASM
    #: Wasm modules carry no separate data sections: constants live in
    #: the code, state in linear memory.
    rodata = b""
    data = b""

    def __init__(self, payload: bytes, name: str = "app"):
        self._payload = bytes(payload)
        self.module = Module.decode(self._payload)
        self.name = name
        self._hash: str | None = None

    def to_bytes(self) -> bytes:
        return self._payload

    @property
    def code_size(self) -> int:
        return len(self._payload)

    @property
    def image_size(self) -> int:
        return len(self._payload)

    @property
    def image_hash(self) -> str:
        if self._hash is None:
            self._hash = tagged_image_hash(self.runtime, self._payload)
        return self._hash


class _MeteredStats:
    """Per-run stats with a control-op fuel budget (the wasm N_b)."""

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


def _fault_from_trap(trap: WasmTrap):
    message = str(trap)
    if "out of bounds" in message or "OOB" in message:
        return MemoryFault(message)
    if "divide by zero" in message or "remainder by zero" in message:
        return DivisionFault(message)
    if "budget exhausted" in message or "call stack exhausted" in message:
        return BranchLimitFault(message)
    return IllegalInstructionFault(message)


class WasmContainerVM:
    """Engine-facing VM wrapper around one :class:`WasmInstance`."""

    def __init__(self, image: WasmImage, config: "VMConfig",
                 access_list: "AccessList"):
        self.image = image
        self.config = config
        self.access_list = access_list
        # Instantiation validates the module (pre-flight refusal).
        self.instance = WasmInstance(image.module)

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
            raise _fault_from_trap(trap) from trap
        return ExecutionResult(
            value=value & _M32,
            stats=ExecutionStats(
                executed=stats.executed,
                branches_taken=stats.class_counts.get("control", 0),
                kind_counts=dict(stats.class_counts),
            ),
        )


class WasmContainerRuntime:
    """Deploys mini-wasm modules through the WASM3-class cost model."""

    name = RUNTIME_WASM
    rom_bytes = WASM3_ROM

    def __init__(self, profile: WasmProfile = WASM3_PROFILE):
        self.profile = profile

    def decode(self, payload: bytes, *, name: str = "app",
               rodata: bytes = b"", data: bytes = b"") -> WasmImage:
        if rodata or data:
            raise WasmError("wasm images carry no rodata/data sections")
        return WasmImage(payload, name=name)

    def image_hash(self, text: bytes, rodata: bytes = b"",
                   data: bytes = b"") -> str:
        return tagged_image_hash(self.name, text, rodata, data)

    def startup_cycles(self, image: WasmImage, board: "Board") -> int:
        """§6 WASM3 startup: runtime init plus per-byte transcoding."""
        profile = self.profile
        return (profile.startup_base_cycles
                + profile.startup_cycles_per_byte * image.code_size)

    def build_vm(self, image: WasmImage, implementation: str,
                 helpers: "HelperRegistry | None", vm_config: "VMConfig",
                 access_list: "AccessList",
                 verifier_config: "VerifierConfig") -> WasmContainerVM:
        return WasmContainerVM(image, vm_config, access_list)

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               granted: "GrantedPolicy", vm_config: "VMConfig",
               access_list: "AccessList",
               verifier_config: "VerifierConfig") -> WasmContainerVM:
        image = container.program
        instructions = sum(len(fn.body) for fn in image.module.functions)
        if instructions > verifier_config.max_instructions:
            raise VerificationError(
                f"module has {instructions} instructions, granted "
                f"limit is {verifier_config.max_instructions}"
            )
        # Charged at attach like rBPF's verify (and JIT install) costs.
        engine.kernel.clock.charge(self.startup_cycles(image, engine.board))
        return self.build_vm(image, engine.implementation, engine.helpers,
                             vm_config, access_list, verifier_config)

    def execution_cycles(self, board: "Board", stats: "ExecutionStats",
                         implementation: str,
                         helpers: "HelperRegistry | None" = None) -> int:
        op_cycles = self.profile.op_cycles
        return sum(count * op_cycles[cost_class]
                   for cost_class, count in stats.kind_counts.items())
