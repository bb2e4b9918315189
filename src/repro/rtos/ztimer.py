"""ztimer — RIOT's high-level timer subsystem, simulated.

Timers fire callbacks in "interrupt context": the kernel invokes them at
the virtual instant they expire, before scheduling the next thread.
Callbacks must be short; they typically post an event or wake a thread.

The wheel is on the path of every simulated radio frame (each delivery
and each CoAP retransmission is a timer), so its heap holds plain
``(deadline_cycles, seq, entry)`` tuples: sifts compare ints in C and
never reach the entry.  ``seq`` is the arming order, unique per wheel,
so timers sharing a deadline fire in the order they were armed (a
periodic timer's re-arm is a fresh arming).  Cancelling
marks the entry and drops its callback; the entry itself is dropped
when it reaches the top of the heap.

The kernel checks the wheel on every step, and a co-run slice usually
finds nothing due, so :class:`~repro.rtos.kernel.Kernel` reads the top
of :attr:`TimerWheel._heap` itself and calls :meth:`TimerWheel.fire_due`
only when a deadline has passed; the wheel and the kernel read the
clock's cycle count as ``Clock._cycles``, without the property call.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from repro.rtos.errors import TimerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.kernel import Kernel


class _TimerEntry:
    """One armed timer: what :meth:`TimerWheel.set` hands back."""

    __slots__ = ("deadline_cycles", "callback", "cancelled")

    def __init__(self, deadline_cycles: int,
                 callback: Callable[[], None]) -> None:
        self.deadline_cycles = deadline_cycles
        self.callback = callback
        self.cancelled = False


class TimerWheel:
    """Min-heap of pending one-shot timers, keyed by virtual deadline."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._clock = kernel.clock
        self._heap: list[tuple[int, int, _TimerEntry]] = []
        self._seq = itertools.count()

    def set(self, callback: Callable[[], None], delay_us: float) -> _TimerEntry:
        """Arm a one-shot timer ``delay_us`` virtual microseconds from now."""
        if delay_us < 0:
            raise TimerError(f"negative timer delay: {delay_us}")
        clock = self._clock
        deadline = clock._cycles + round(delay_us * clock.mhz)
        entry = _TimerEntry(deadline, callback)
        heapq.heappush(self._heap, (deadline, next(self._seq), entry))
        return entry

    def set_periodic(
        self, callback: Callable[[], None], period_us: float
    ) -> Callable[[], None]:
        """Arm a repeating timer; returns a function that cancels it."""
        if period_us <= 0:
            raise TimerError(f"non-positive timer period: {period_us}")
        state = {"entry": None, "stopped": False}

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["entry"] = self.set(fire, period_us)

        state["entry"] = self.set(fire, period_us)

        def cancel() -> None:
            state["stopped"] = True
            entry = state["entry"]
            if entry is not None:
                self.cancel(entry)

        return cancel

    def cancel(self, entry: _TimerEntry) -> None:
        """Disarm a timer.  The entry stays in the heap until it reaches
        the top, but lets go of its callback now: a CoAP retransmission
        timer is cancelled as soon as its response lands, and its callback
        reaches the whole exchange (request, reply handler, reassembly
        buffer)."""
        entry.cancelled = True
        entry.callback = None

    def next_deadline(self) -> int | None:
        """Earliest pending deadline in cycles, or None when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def fire_due(self) -> int:
        """Run every callback whose deadline has passed; returns the count."""
        heap = self._heap
        clock = self._clock
        fired = 0
        now = clock._cycles
        while heap and heap[0][0] <= now:
            entry = heapq.heappop(heap)[2]
            if entry.cancelled:
                continue
            entry.callback()
            fired += 1
            now = clock._cycles
        return fired

    @property
    def pending(self) -> int:
        return sum(1 for _, _, entry in self._heap if not entry.cancelled)
