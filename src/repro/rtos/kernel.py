"""The discrete-event RTOS kernel hosting Femto-Containers.

One :class:`Kernel` models one IoT device: a virtual CPU clock, a strict
priority scheduler, a timer wheel and a set of threads.  The hosting engine
(:mod:`repro.core.engine`), the network stack (:mod:`repro.net`) and the
SUIT update worker (:mod:`repro.suit.worker`) all plug into it.

The simulation loop is event-driven: each :meth:`step` fires due timers,
dispatches the highest-priority ready thread, runs it until its next
syscall, and handles that syscall.  When no thread is ready the clock jumps
to the next timer deadline (the MCU "sleeps").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rtos.clock import Clock
from repro.rtos.errors import PowerFailure, SchedulerError
from repro.rtos.events import Event, EventQueue
from repro.rtos.scheduler import Scheduler
from repro.rtos.thread import (
    DEFAULT_STACK_SIZE,
    Exit,
    Sleep,
    Thread,
    ThreadBody,
    ThreadState,
    Wait,
    YieldCPU,
)
from repro.rtos.ztimer import TimerWheel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.board import Board


class Kernel:
    """One simulated device: clock, scheduler, timers, threads."""

    def __init__(self, board: "Board | None" = None,
                 clock: Clock | None = None):
        if board is None:
            from repro.rtos.board import nrf52840

            board = nrf52840()
        self.board = board
        #: Passing ``clock`` keeps one monotonic per-device timeline
        #: across reboots: the replacement kernel of a power-cycled
        #: device continues the same virtual clock, so convergence and
        #: energy accounting never observe time running backwards.
        self.clock = clock if clock is not None else Clock(board.mhz)
        self.timers = TimerWheel(self)
        self.scheduler = Scheduler(self)
        self.threads: dict[int, Thread] = {}
        self._next_pid = 1
        #: Total scheduler steps executed (debug/limit accounting).
        self.steps = 0
        #: True after :meth:`power_fail`: all RAM state is gone and the
        #: kernel refuses to run until the device is rebuilt.
        self.halted = False

    # -- thread management ---------------------------------------------------

    def create_thread(
        self,
        name: str,
        body: ThreadBody | None,
        priority: int = 7,
        stack_size: int = DEFAULT_STACK_SIZE,
        start: bool = True,
    ) -> Thread:
        """Create (and by default ready) a new thread."""
        pid = self._next_pid
        self._next_pid += 1
        thread = Thread(
            kernel=self,
            pid=pid,
            name=name,
            priority=priority,
            body=body,
            stack_size=stack_size,
        )
        self.threads[pid] = thread
        if start:
            self.scheduler.make_ready(thread)
        return thread

    def thread_by_name(self, name: str) -> Thread:
        for thread in self.threads.values():
            if thread.name == name:
                return thread
        raise SchedulerError(f"no thread named {name!r}")

    def wake_with_event(self, thread: Thread, event: Event) -> None:
        """Unblock ``thread`` delivering ``event`` (event-queue use)."""
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.deliver(event)
        self.scheduler.make_ready(thread)

    def wake(self, thread: Thread) -> None:
        """Unblock a sleeping/blocked thread with no payload."""
        if thread.state in (ThreadState.SLEEPING, ThreadState.BLOCKED):
            self.scheduler.make_ready(thread)

    def new_event_queue(self, name: str = "events") -> EventQueue:
        return EventQueue(kernel=self, name=name)

    # -- time ------------------------------------------------------------------

    @property
    def now_us(self) -> float:
        return self.clock.time_us

    # -- power failure -----------------------------------------------------------

    def power_fail(self) -> None:
        """Lose power *now*: every RAM structure is dropped, NVM survives.

        Threads, their stacks, event queues and pending timers all live
        in RAM — after this call they are gone and the kernel is
        :attr:`halted` (``step``/``run`` become no-ops).  The virtual
        clock is *not* reset: the device's timeline is monotonic across
        power cycles, the owner charges the boot cost when it rebuilds
        the device around a fresh kernel (see
        :meth:`~repro.rtos.board.Board.reboot_cycles`).
        """
        self.halted = True
        self.threads.clear()
        self.timers = TimerWheel(self)
        self.scheduler = Scheduler(self)

    # -- main loop ---------------------------------------------------------------

    def step(self) -> bool:
        """Run one scheduling step; False when the system is forever idle."""
        if self.halted:
            return False
        self.steps += 1
        try:
            self.timers.fire_due()
            thread = self.scheduler.pick()
            if thread is None:
                deadline = self.timers.next_deadline()
                if deadline is None:
                    return False
                self.scheduler.enter_idle()
                self.clock.advance_to(max(deadline, self.clock.cycles))
                return True

            self.scheduler.dispatch(thread)
            syscall = thread.resume()
            self._handle_syscall(thread, syscall)
        except PowerFailure:
            # Injected mid-step (chaos/kill-point testing): the device
            # dies at this exact virtual instant, whatever it was doing.
            self.power_fail()
            return False
        return True

    def _handle_syscall(self, thread: Thread, syscall) -> None:
        if isinstance(syscall, Exit) or syscall is None:
            thread.state = ThreadState.ENDED
        elif isinstance(syscall, Sleep):
            thread.state = ThreadState.SLEEPING
            thread.wake_at_cycles = self.clock.cycles + self.clock.us_to_cycles(
                syscall.duration_us
            )
            self.timers.set(
                lambda t=thread: self._wake_sleeper(t), syscall.duration_us
            )
        elif isinstance(syscall, Wait):
            pending = syscall.queue.try_pop()
            if pending is not None:
                thread.deliver(pending)
                self.scheduler.make_ready(thread)
            else:
                thread.state = ThreadState.BLOCKED
                syscall.queue.add_waiter(thread)
        elif isinstance(syscall, YieldCPU):
            self.scheduler.make_ready(thread)
        else:
            raise SchedulerError(
                f"thread {thread.name!r} yielded unknown syscall {syscall!r}"
            )

    def _wake_sleeper(self, thread: Thread) -> None:
        if thread.state is ThreadState.SLEEPING:
            self.scheduler.make_ready(thread)

    def run(self, until_us: float | None = None, max_steps: int = 1_000_000) -> int:
        """Run until the deadline, forever-idle, or the step budget.

        Returns the number of steps executed.
        """
        executed = 0
        while executed < max_steps:
            if until_us is not None and self.clock.time_us >= until_us:
                break
            if not self.step():
                break
            executed += 1
        return executed

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Run until no thread is ready and no timer is pending."""
        executed = 0
        while executed < max_steps and self.step():
            executed += 1
        return executed
