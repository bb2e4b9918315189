"""Script images as deployable Femto-Containers.

Adapts the tree-walking script interpreter
(:mod:`repro.runtimes.script.interp`) to the hosting engine's container
interface.  The payload *is* the source (the paper ships MicroPython /
RIOT.js programs to devices as text, which is why script code size is
source size in Table 2); decoding parses it — the script analogue of the
pre-flight verifier, so a syntactically broken payload is refused before
it can attach.  Cost comes from a §6 :class:`ScriptProfile`: real
tokenizer length times the per-token parse cost at attach, real node-visit
counts through the per-class visit table at run time.  Table 2's RIOTjs
and MicroPython rows are this runtime under their two profiles.

Containment parity with rBPF: out-of-range indexing faults as
:class:`~repro.vm.errors.MemoryFault`, division by zero as
:class:`~repro.vm.errors.DivisionFault`, and the per-loop iteration
ceiling (wired from the granted ``branch_limit``) plus a recursion guard
bound runaway scripts with :class:`~repro.vm.errors.BranchLimitFault`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtimes.base import RUNTIME_SCRIPT, tagged_image_hash
from repro.runtimes.profiles import MICROPYTHON_PROFILE, ScriptProfile
from repro.runtimes.script.interp import Interpreter, ScriptRuntimeError
from repro.runtimes.script.lexer import tokenize
from repro.runtimes.script.parser import parse
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    IllegalInstructionFault,
    MemoryFault,
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

_M64 = (1 << 64) - 1


class ScriptImage:
    """One parsed script, presenting the ``Program`` surface."""

    runtime = RUNTIME_SCRIPT
    rodata = b""
    data = b""

    def __init__(self, payload: bytes, name: str = "app"):
        self._payload = bytes(payload)
        self.source = self._payload.decode("utf-8")
        # Parsing is the pre-flight check: a payload that does not parse
        # never reaches a hook.  The token count feeds the startup model.
        self.script = parse(self.source)
        self.tokens = len(tokenize(self.source))
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


def _fault_from_error(error: ScriptRuntimeError):
    message = str(error)
    if "out of range" in message or "not indexable" in message:
        return MemoryFault(message)
    if "division by zero" in message:
        return DivisionFault(message)
    if "loop iteration limit exceeded" in message:
        return BranchLimitFault(message)
    return IllegalInstructionFault(message)


class ScriptContainerVM:
    """Engine-facing VM wrapper: one fresh interpreter per execution."""

    def __init__(self, image: ScriptImage, config: "VMConfig",
                 access_list: "AccessList",
                 profile: ScriptProfile = MICROPYTHON_PROFILE):
        self.image = image
        self.config = config
        self.access_list = access_list
        self.profile = profile

    @property
    def ram_bytes(self) -> int:
        """Interpreter state + heap, modelled after the profile's Table 1
        footprint (the real heap is host-side Python)."""
        return self.profile.ram_bytes

    def run(self, context: bytes | None = None,
            context_perms=None) -> ExecutionResult:
        payload = bytes(context) if context else b""
        interpreter = Interpreter(
            self.image.script,
            builtins={"input": payload, "context": payload, "len": len},
        )
        # Per-instance loop ceiling: the script analogue of the granted
        # N_b taken-branch budget.
        interpreter.MAX_LOOP_ITERATIONS = self.config.branch_limit  # type: ignore[misc]
        try:
            result = interpreter.run()
        except ScriptRuntimeError as error:
            raise _fault_from_error(error) from error
        except RecursionError as error:
            # Unbounded script recursion rides the host stack; contain it
            # exactly like an exhausted branch budget.
            raise BranchLimitFault("call stack exhausted") from error
        stats = interpreter.stats
        return ExecutionResult(
            value=(result & _M64 if isinstance(result, int) else 0),
            stats=ExecutionStats(
                executed=stats.visits,
                branches_taken=stats.class_counts.get("control", 0),
                kind_counts=dict(stats.class_counts),
            ),
        )


class ScriptContainerRuntime:
    """Deploys script sources through a §6 script-interpreter profile."""

    name = RUNTIME_SCRIPT

    def __init__(self, profile: ScriptProfile = MICROPYTHON_PROFILE):
        self.profile = profile
        self.rom_bytes = profile.rom_bytes

    def decode(self, payload: bytes, *, name: str = "app",
               rodata: bytes = b"", data: bytes = b"") -> ScriptImage:
        if rodata or data:
            raise ValueError("script images carry no rodata/data sections")
        return ScriptImage(payload, name=name)

    def image_hash(self, text: bytes, rodata: bytes = b"",
                   data: bytes = b"") -> str:
        return tagged_image_hash(self.name, text, rodata, data)

    def startup_cycles(self, image: ScriptImage, board: "Board") -> int:
        """§6 script startup: interpreter/GC init plus per-token parsing."""
        profile = self.profile
        return (profile.parse_base_cycles
                + profile.parse_cycles_per_token * image.tokens)

    def build_vm(self, image: ScriptImage, implementation: str,
                 helpers: "HelperRegistry | None", vm_config: "VMConfig",
                 access_list: "AccessList",
                 verifier_config: "VerifierConfig") -> ScriptContainerVM:
        return ScriptContainerVM(image, vm_config, access_list, self.profile)

    def attach(self, engine: "HostingEngine", container: "FemtoContainer",
               granted: "GrantedPolicy", vm_config: "VMConfig",
               access_list: "AccessList",
               verifier_config: "VerifierConfig") -> ScriptContainerVM:
        image = container.program
        # The attach-time cost a device pays to (re)load a script.
        engine.kernel.clock.charge(self.startup_cycles(image, engine.board))
        return self.build_vm(image, engine.implementation, engine.helpers,
                             vm_config, access_list, verifier_config)

    def execution_cycles(self, board: "Board", stats: "ExecutionStats",
                         implementation: str,
                         helpers: "HelperRegistry | None" = None) -> int:
        visit_cycles = self.profile.visit_cycles
        return sum(count * visit_cycles[node_class]
                   for node_class, count in stats.kind_counts.items())
