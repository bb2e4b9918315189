"""A run without a context maps none, whatever the previous run mapped.

The hosting engine passes a hook's context bytes to the VM on every run.
The eBPF engines keep the context region mapped between runs (a
same-shaped context is copied into it in place), so a run fired with an
empty context must unmap it: r1 is 0, and a read through it is a
contained memory fault, never the previous fire's bytes.  The Wasm and
script runtimes copy the context into fresh state on every run; they are
pinned here too.
"""

from __future__ import annotations

import struct

import pytest

from repro.core import FC_HOOK_TIMER, HostingEngine
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.rtos.board import IMPLEMENTATIONS
from repro.vm import assemble
from repro.vm.memory import CONTEXT_BASE

CONTEXT = struct.pack("<QQ", 42, 0)


def attached(program, implementation: str = "femto-containers"):
    engine = HostingEngine(Kernel(), implementation=implementation)
    container = engine.attach(engine.load(program), FC_HOOK_TIMER)
    return engine, container


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestEbpfEngines:
    def test_a_read_through_r1_is_a_contained_fault(self, implementation):
        engine, container = attached(
            assemble("ldxdw r0, [r1+0]\n    exit"), implementation)
        first = engine.execute(container, CONTEXT)
        assert first.ok and first.value == 42
        empty = engine.execute(container, b"")
        assert not empty.ok and empty.value is None
        assert empty.fault.kind == "MemoryFault" and empty.fault.pc == 0
        # The context maps again on the next fire that carries one.
        again = engine.execute(container, CONTEXT)
        assert again.ok and again.value == 42

    def test_r1_is_zero(self, implementation):
        engine, container = attached(assemble("mov r0, r1\n    exit"),
                                     implementation)
        assert engine.execute(container, CONTEXT).value == CONTEXT_BASE
        assert engine.execute(container, b"").value == 0
        assert engine.execute(container).value == 0
        assert engine.execute(container, CONTEXT).value == CONTEXT_BASE


def test_wasm_sees_no_previous_context():
    spec = ImageSpec.from_wasm(
        "module pages=1\nfunc main params=1 locals=0\n"
        "    i32.const 0\n    i32.load8_u 0\n    return\nend\n")
    engine, container = attached(spec.instantiate(), "jit")
    assert engine.execute(container, CONTEXT).value == 42
    empty = engine.execute(container, b"")
    assert empty.ok and empty.value == 0


def test_script_sees_no_previous_context():
    spec = ImageSpec.from_script("return input[0];")
    engine, container = attached(spec.instantiate(), "jit")
    assert engine.execute(container, CONTEXT).value == 42
    empty = engine.execute(container, b"")
    assert not empty.ok and empty.fault.kind == "MemoryFault"
