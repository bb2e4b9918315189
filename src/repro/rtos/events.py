"""Event queues connecting interrupt-ish sources to threads.

RIOT's ``event_queue_t`` pattern: producers (timers, the network stack, the
hosting engine) post :class:`Event` objects; one or more consumer threads
block on the queue with the ``Wait`` syscall.  Events are delivered in FIFO
order to waiters in FIFO order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtos.kernel import Kernel
    from repro.rtos.thread import Thread


@dataclass
class Event:
    """A queued event with an arbitrary payload."""

    kind: str
    payload: object = None
    #: Cycle timestamp at posting (for latency measurements).
    posted_at_cycles: int = 0


@dataclass
class EventQueue:
    """FIFO event queue with blocking waiters."""

    kernel: "Kernel"
    name: str = "events"
    _events: deque = field(default_factory=deque, repr=False)
    _waiters: deque = field(default_factory=deque, repr=False)

    def post(self, event: Event) -> None:
        """Post an event; wakes the longest-waiting thread if any."""
        event.posted_at_cycles = self.kernel.clock.cycles
        self._events.append(event)
        if self._waiters:
            thread = self._waiters.popleft()
            self.kernel.wake_with_event(thread, self._events.popleft())

    def post_new(self, kind: str, payload: object = None) -> Event:
        event = Event(kind=kind, payload=payload)
        self.post(event)
        return event

    def try_pop(self) -> Event | None:
        """Non-blocking pop (used by the kernel when a Wait arrives)."""
        if self._events:
            return self._events.popleft()
        return None

    def add_waiter(self, thread: "Thread") -> None:
        self._waiters.append(thread)

    @property
    def pending(self) -> int:
        return len(self._events)
