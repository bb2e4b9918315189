"""Femto-Containers reproduction (MIDDLEWARE 2022).

A pure-Python, simulation-grade reimplementation of the Femto-Containers
middleware: an eBPF/rBPF virtual machine with pre-flight verification and
runtime memory isolation, a hosting engine with event hooks and key-value
stores, a RIOT-like RTOS substrate, a CoAP/UDP network substrate, the SUIT
secure-update pipeline, and the baseline runtimes the paper benchmarks
against.  See ``DESIGN.md`` for the system inventory and experiment index.

Quickstart::

    from repro import HostingEngine, Kernel, assemble, FC_HOOK_TIMER

    kernel = Kernel()                      # an nRF52840-class device
    engine = HostingEngine(kernel)         # the Femto-Container middleware
    program = assemble("mov r0, 42\\nexit")
    container = engine.load(program)
    engine.attach(container, FC_HOOK_TIMER)
    run = engine.execute(container)
    assert run.value == 42
"""

from repro.core import (
    ContainerContract,
    ContainerRun,
    FC_HOOK_COAP,
    FC_HOOK_SCHED,
    FC_HOOK_SENSOR_READ,
    FC_HOOK_TIMER,
    FemtoContainer,
    Hook,
    HookMode,
    HookPolicy,
    HostingEngine,
    KeyValueStore,
    Tenant,
)
from repro.rtos import Board, Kernel, all_boards, esp32_wroom32, gd32vf103, nrf52840
from repro.vm import (
    CertFCInterpreter,
    Instruction,
    Interpreter,
    Program,
    VMFault,
    assemble,
    compile_program,
    disassemble,
    verify,
)

__version__ = "1.0.0"

__all__ = [
    "Board",
    "CertFCInterpreter",
    "ContainerContract",
    "ContainerRun",
    "FC_HOOK_COAP",
    "FC_HOOK_SCHED",
    "FC_HOOK_SENSOR_READ",
    "FC_HOOK_TIMER",
    "FemtoContainer",
    "Hook",
    "HookMode",
    "HookPolicy",
    "HostingEngine",
    "Instruction",
    "Interpreter",
    "KeyValueStore",
    "Kernel",
    "Program",
    "Tenant",
    "VMFault",
    "all_boards",
    "assemble",
    "compile_program",
    "disassemble",
    "esp32_wroom32",
    "gd32vf103",
    "nrf52840",
    "verify",
]
