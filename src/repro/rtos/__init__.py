"""RIOT-like RTOS simulation substrate.

Public surface: :class:`~repro.rtos.kernel.Kernel` (one device),
:class:`~repro.rtos.board.Board` models of the three evaluation platforms,
threads/timers/event-queues, the SAUL driver registry, and the firmware
memory-accounting model.
"""

from repro.rtos.board import (
    Board,
    CostProfile,
    VMCostTable,
    all_boards,
    board_by_name,
    esp32_wroom32,
    gd32vf103,
    nrf52840,
)
from repro.rtos.clock import Clock
from repro.rtos.energy import EnergyMeter, EnergyReport, update_energy_uj
from repro.rtos.errors import (
    KernelPanic,
    PowerFailure,
    RTOSError,
    SchedulerError,
    TimerError,
)
from repro.rtos.events import Event, EventQueue
from repro.rtos.firmware import (
    FirmwareImage,
    FirmwareModule,
    engine_flash_bytes,
    os_modules,
)
from repro.rtos.kernel import Kernel
from repro.rtos.nvm import NvmStore
from repro.rtos.saul import (
    Phydat,
    SaulDevice,
    SaulRegistry,
    SENSE_TEMP,
    synthetic_switch,
    synthetic_temperature,
)
from repro.rtos.scheduler import Scheduler
from repro.rtos.shell import DeviceShell
from repro.rtos.thread import (
    PID_UNDEF,
    Exit,
    Sleep,
    Thread,
    ThreadState,
    Wait,
    YieldCPU,
)
from repro.rtos.ztimer import TimerWheel

__all__ = [
    "Board",
    "CostProfile",
    "Clock",
    "DeviceShell",
    "EnergyMeter",
    "EnergyReport",
    "Event",
    "EventQueue",
    "Exit",
    "FirmwareImage",
    "FirmwareModule",
    "Kernel",
    "KernelPanic",
    "NvmStore",
    "PID_UNDEF",
    "Phydat",
    "PowerFailure",
    "RTOSError",
    "SaulDevice",
    "SaulRegistry",
    "SchedulerError",
    "Scheduler",
    "SENSE_TEMP",
    "Sleep",
    "Thread",
    "ThreadState",
    "TimerError",
    "TimerWheel",
    "VMCostTable",
    "Wait",
    "YieldCPU",
    "all_boards",
    "board_by_name",
    "engine_flash_bytes",
    "esp32_wroom32",
    "gd32vf103",
    "nrf52840",
    "os_modules",
    "synthetic_switch",
    "synthetic_temperature",
    "update_energy_uj",
]
