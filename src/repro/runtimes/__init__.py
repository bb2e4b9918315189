"""Container runtimes: rBPF, mini-Wasm and script (paper §6).

:mod:`repro.runtimes.base` defines the :class:`ContainerRuntime`
protocol and registry through which the hosting engine and the deploy
plane dispatch runtime-tagged images onto one plan/OTA/publish stack.
Each runtime is the one cost model of its format;
:mod:`repro.runtimes.comparison` measures the paper's Tables 1 and 2
through the same objects.
"""

from repro.runtimes.base import (
    RUNTIME_RBPF,
    RUNTIME_SCRIPT,
    RUNTIME_WASM,
    ContainerRuntime,
    UnknownRuntimeError,
    container_runtime,
    register_runtime,
    runtime_names,
)
from repro.runtimes.comparison import (
    RuntimeMetrics,
    fletcher32_rows,
    host_os_ram_bytes,
    host_os_rom_bytes,
    native_row,
    runtime_row,
)
from repro.runtimes.profiles import (
    MICROPYTHON_PROFILE,
    RIOTJS_PROFILE,
    WASM3_PROFILE,
    ScriptProfile,
    WasmProfile,
)

__all__ = [
    "ContainerRuntime",
    "MICROPYTHON_PROFILE",
    "RIOTJS_PROFILE",
    "RUNTIME_RBPF",
    "RUNTIME_SCRIPT",
    "RUNTIME_WASM",
    "RuntimeMetrics",
    "ScriptProfile",
    "UnknownRuntimeError",
    "WASM3_PROFILE",
    "WasmProfile",
    "container_runtime",
    "fletcher32_rows",
    "host_os_ram_bytes",
    "host_os_rom_bytes",
    "native_row",
    "register_runtime",
    "runtime_names",
    "runtime_row",
]
