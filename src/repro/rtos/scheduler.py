"""Strict-priority preemptive scheduler with the Femto-Container sched hook.

RIOT schedules the highest-priority runnable thread (lower number = higher
priority), round-robin among equals.  Every context switch is a *launchpad*:
when a hosting engine installed a sched-hook function, the scheduler calls
it with the ``{previous, next}`` pid pair — exactly the hot-path hook of
Listing 1/2 — and the hook's execution time is charged to the switch, which
is how the paper's Table 4 overhead becomes measurable here.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.rtos.errors import SchedulerError
from repro.rtos.thread import PID_UNDEF, Thread, ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.kernel import Kernel

#: Signature of the scheduler launchpad: (previous_pid, next_pid) -> None.
SchedHookFn = Callable[[int, int], None]


class Scheduler:
    """Priority scheduler over the kernel's threads."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._ready: dict[int, deque[Thread]] = {}
        #: Pid of the thread that ran last (PID_UNDEF when idle).
        self.last_pid: int = PID_UNDEF
        #: Total context switches performed (including switches to idle).
        self.switch_count: int = 0
        #: Launchpad installed by the hosting engine (None = empty hook
        #: absent: zero overhead, the firmware was built without the pad).
        self.sched_hook: SchedHookFn | None = None

    def make_ready(self, thread: Thread) -> None:
        """Insert ``thread`` into its priority's ready queue."""
        if thread.state is ThreadState.ENDED:
            raise SchedulerError(f"cannot ready ended thread {thread.name!r}")
        thread.state = ThreadState.READY
        self._ready.setdefault(thread.priority, deque()).append(thread)

    def pick(self) -> Thread | None:
        """Pop the next thread to run (highest priority, FIFO within)."""
        for priority in sorted(self._ready):
            queue = self._ready[priority]
            while queue:
                thread = queue.popleft()
                if thread.state is ThreadState.READY:
                    return thread
            # fall through to lower priorities
        return None

    def dispatch(self, thread: Thread) -> None:
        """Account the switch-in of ``thread`` and fire the sched hook."""
        thread.state = ThreadState.RUNNING
        if thread.pid != self.last_pid:
            self._context_switch(self.last_pid, thread.pid)
            thread.activations += 1
        # Same thread resuming after a yield-to-self is not a switch.

    def enter_idle(self) -> None:
        """Record the switch to 'no thread' (pid 0) when going idle."""
        if self.last_pid != PID_UNDEF:
            self._context_switch(self.last_pid, PID_UNDEF)

    def _context_switch(self, previous: int, next_pid: int) -> None:
        self.switch_count += 1
        self.kernel.clock.charge(self.kernel.board.context_switch_cycles)
        if self.sched_hook is not None:
            self.sched_hook(previous, next_pid)
        self.last_pid = next_pid
