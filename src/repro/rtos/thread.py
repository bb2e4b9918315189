"""Threads as generator coroutines, RIOT style.

A thread body is a generator function taking the :class:`Thread` object and
yielding *syscalls* — small request objects the kernel interprets::

    def worker(thread):
        while True:
            event = yield Wait(queue)       # block on an event queue
            thread.charge(1200)             # model 1200 cycles of work
            yield Sleep(10_000)             # sleep 10 ms

The kernel resumes the generator with the syscall's result (the event for
``Wait``, ``None`` otherwise).  RIOT semantics are preserved where the paper
relies on them: strict priority scheduling, pids starting at 1 with pid 0
meaning "no thread" (Listing 2 checks ``ctx->next != 0``), and per-thread
stack accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.events import EventQueue
    from repro.rtos.kernel import Kernel

#: Pid value meaning "no thread" (KERNEL_PID_UNDEF in RIOT).
PID_UNDEF = 0

#: RIOT-like default stack for a simple thread (bytes).
DEFAULT_STACK_SIZE = 1024


class ThreadState(enum.Enum):
    """Lifecycle states, mirroring RIOT's STATUS_* values."""

    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    ENDED = "ended"


# -- syscalls ---------------------------------------------------------------


@dataclass(frozen=True)
class Sleep:
    """Block for a duration of virtual microseconds."""

    duration_us: float


@dataclass(frozen=True)
class Wait:
    """Block until an event is posted to ``queue``."""

    queue: "EventQueue"


@dataclass(frozen=True)
class YieldCPU:
    """Give up the CPU; stay ready (round-robin within the priority)."""


@dataclass(frozen=True)
class Exit:
    """Terminate the thread."""


Syscall = Sleep | Wait | YieldCPU | Exit
ThreadBody = Callable[["Thread"], Generator[Syscall, object, None]]


@dataclass
class Thread:
    """One RTOS thread."""

    kernel: "Kernel"
    pid: int
    name: str
    priority: int
    body: ThreadBody | None
    stack_size: int = DEFAULT_STACK_SIZE
    state: ThreadState = ThreadState.READY
    #: Number of times the scheduler switched this thread in — the ground
    #: truth the Listing 2 thread-counter container is checked against.
    activations: int = 0
    #: Cycle timestamp when a sleep expires (valid in SLEEPING state).
    wake_at_cycles: int = 0
    _gen: Iterator | None = field(default=None, repr=False)
    _send_value: object = field(default=None, repr=False)

    def start(self) -> None:
        if self.body is not None and self._gen is None:
            self._gen = self.body(self)

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.ENDED

    def charge(self, cycles: int) -> None:
        """Model CPU work done by this thread (advances the global clock)."""
        self.kernel.clock.charge(cycles)

    def charge_us(self, us: float) -> None:
        self.kernel.clock.charge_us(us)

    def resume(self) -> Syscall | None:
        """Advance the generator to its next syscall (kernel use only)."""
        if self._gen is None:
            self.start()
        if self._gen is None:  # bodyless thread (idle)
            return None
        value, self._send_value = self._send_value, None
        try:
            return self._gen.send(value)
        except StopIteration:
            self.state = ThreadState.ENDED
            # The kernel keeps ended threads listed; drop the body so its
            # closure (e.g. a detached container's worker) can be freed.
            self.body = None
            return Exit()

    def deliver(self, value: object) -> None:
        """Set the value the next ``resume`` sends into the generator."""
        self._send_value = value

    def __hash__(self) -> int:
        return self.pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Thread(pid={self.pid}, name={self.name!r}, {self.state.value})"
