"""Mini-WebAssembly VM: codec, validation, execution, traps."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.runtimes.wasm import (
    Module,
    PAGE_SIZE,
    WasmError,
    WasmInstance,
    WasmTrap,
    assemble,
    validate,
)
from repro.runtimes.wasm.module import decode_varint, encode_varint


class TestVarint:
    @given(value=st.integers(-(2**40), 2**40))
    def test_roundtrip(self, value):
        decoded, pos = decode_varint(encode_varint(value), 0)
        assert decoded == value

    def test_small_values_one_byte(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(63)) == 1
        assert len(encode_varint(-64)) == 1


class TestModuleCodec:
    SOURCE = """
module pages=1
func main params=1 locals=1
    local.get 0
    i32.const 2
    i32.mul
    return
end
"""

    def test_encode_decode_roundtrip(self):
        module = assemble(self.SOURCE)
        decoded = Module.decode(module.encode())
        assert decoded.memory_pages == 1
        assert decoded.functions[0].body == module.functions[0].body

    def test_bad_magic_rejected(self):
        with pytest.raises(WasmError):
            Module.decode(b"\x00bad" + bytes(8))

    def test_code_size_positive(self):
        assert assemble(self.SOURCE).code_size > 8


class TestExecution:
    def run(self, source: str, args: list[int] | None = None,
            memory: bytes = b"") -> int:
        instance = WasmInstance(assemble(source))
        if memory:
            instance.write_memory(0, memory)
        return instance.run(args or [])

    def test_arithmetic(self):
        assert self.run("""
module pages=1
func main params=1 locals=0
    local.get 0
    i32.const 2
    i32.mul
    return
end
""", [21]) == 42

    def test_locals_and_tee(self):
        assert self.run("""
module pages=1
func main params=0 locals=2
    i32.const 5
    local.tee 0
    local.set 1
    local.get 0
    local.get 1
    i32.add
    return
end
""") == 10

    def test_if_else_both_arms(self):
        source = """
module pages=1
func main params=1 locals=1
    local.get 0
    if
        i32.const 100
        local.set 1
    else
        i32.const 200
        local.set 1
    end
    local.get 1
    return
end
"""
        assert self.run(source, [1]) == 100
        assert self.run(source, [0]) == 200

    def test_if_without_else_skips(self):
        source = """
module pages=1
func main params=1 locals=1
    i32.const 7
    local.set 1
    local.get 0
    if
        i32.const 9
        local.set 1
    end
    local.get 1
    return
end
"""
        assert self.run(source, [0]) == 7
        assert self.run(source, [1]) == 9

    def test_loop_with_br_if(self):
        # sum 1..10 = 55
        assert self.run("""
module pages=1
func main params=0 locals=2
    i32.const 10
    local.set 0
    loop
        local.get 1
        local.get 0
        i32.add
        local.set 1
        local.get 0
        i32.const 1
        i32.sub
        local.tee 0
        i32.const 0
        i32.ne
        br_if 0
    end
    local.get 1
    return
end
""") == 55

    def test_block_br_exits_forward(self):
        assert self.run("""
module pages=1
func main params=0 locals=1
    block
        i32.const 1
        local.set 0
        br 0
        i32.const 99
        local.set 0
    end
    local.get 0
    return
end
""") == 1

    def test_memory_load_store(self):
        assert self.run("""
module pages=1
func main params=0 locals=0
    i32.const 16
    i32.const 258
    i32.store 0
    i32.const 16
    i32.load16_u 0
    return
end
""") == 258

    def test_load_with_offset_immediate(self):
        assert self.run("""
module pages=1
func main params=0 locals=0
    i32.const 0
    i32.load8_u 3
    return
end
""", memory=b"\x00\x01\x02\x07") == 7

    def test_function_call(self):
        assert self.run("""
module pages=1
func main params=0 locals=0
    i32.const 20
    i32.const 22
    call 1
    return
end
func add2 params=2 locals=0
    local.get 0
    local.get 1
    i32.add
    return
end
""") == 42

    @pytest.mark.parametrize("lhs,rhs,remainder", [
        (17, 5, 2), (5, 17, 5), (42, 7, 0), (-1, 10, 5), (-1, -2, 1)])
    def test_rem_u(self, lhs, rhs, remainder):
        """``i32.rem_u`` treats both operands as unsigned 32-bit."""
        assert self.run(f"""
module pages=1
func main params=0 locals=0
    i32.const {lhs}
    i32.const {rhs}
    i32.rem_u
    return
end
""") == remainder

    def test_wrap_around_32bit(self):
        assert self.run("""
module pages=1
func main params=0 locals=0
    i32.const -1
    i32.const 2
    i32.add
    return
end
""") == 1


class TestTraps:
    def trap(self, source: str, args=None):
        instance = WasmInstance(assemble(source))
        with pytest.raises(WasmTrap):
            instance.run(args or [])

    def test_out_of_bounds_load_traps(self):
        self.trap(f"""
module pages=1
func main params=0 locals=0
    i32.const {PAGE_SIZE}
    i32.load 0
    return
end
""")

    @pytest.mark.parametrize("op", ["i32.div_u", "i32.rem_u"])
    def test_division_by_zero_traps(self, op):
        self.trap(f"""
module pages=1
func main params=0 locals=0
    i32.const 1
    i32.const 0
    {op}
    return
end
""")

    def test_unreachable_traps(self):
        self.trap("""
module pages=1
func main params=0 locals=0
    unreachable
end
""")

    def test_call_stack_exhaustion_traps(self):
        self.trap("""
module pages=1
func main params=0 locals=0
    call 0
    return
end
""")

    def test_host_memory_respects_page_bounds(self):
        instance = WasmInstance(assemble("""
module pages=1
func main params=0 locals=0
    i32.const 0
    return
end
"""))
        with pytest.raises(WasmTrap):
            instance.write_memory(PAGE_SIZE - 1, b"xx")


class TestValidator:
    def test_branch_depth_out_of_range(self):
        module = assemble("""
module pages=1
func main params=0 locals=0
    block
        br 5
    end
    return
end
""")
        with pytest.raises(WasmError, match="depth"):
            validate(module)

    def test_unknown_call_target(self):
        module = assemble("""
module pages=1
func main params=0 locals=0
    call 9
    return
end
""")
        with pytest.raises(WasmError, match="unknown function"):
            validate(module)

    def test_local_out_of_range(self):
        module = assemble("""
module pages=1
func main params=0 locals=1
    local.get 5
    return
end
""")
        with pytest.raises(WasmError, match="local"):
            validate(module)

    def test_unbalanced_end_rejected_by_assembler(self):
        with pytest.raises(WasmError):
            assemble("""
module pages=1
func main params=0 locals=0
    end
    return
end
""")


class TestFootprint:
    def test_ram_includes_the_64k_page_floor(self):
        """The paper's explanation of WASM3's RAM: the spec-mandated page."""
        instance = WasmInstance(assemble("""
module pages=1
func main params=0 locals=0
    i32.const 0
    return
end
"""))
        assert instance.ram_bytes >= PAGE_SIZE

    def test_stats_count_executed_ops(self):
        instance = WasmInstance(assemble("""
module pages=1
func main params=0 locals=0
    i32.const 1
    i32.const 2
    i32.add
    return
end
"""))
        instance.run([])
        assert instance.stats.executed == 4
        assert instance.stats.class_counts["alu"] == 1
