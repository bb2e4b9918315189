"""Mini-WebAssembly VM (the WASM3-class §6 candidate)."""

from repro.runtimes.wasm.asm import assemble
from repro.runtimes.wasm.interpreter import WasmInstance, WasmTrap
from repro.runtimes.wasm.module import Function, Module, PAGE_SIZE, WasmError
from repro.runtimes.wasm.validator import validate

__all__ = [
    "Function",
    "Module",
    "PAGE_SIZE",
    "WasmError",
    "WasmInstance",
    "WasmTrap",
    "assemble",
    "validate",
]
