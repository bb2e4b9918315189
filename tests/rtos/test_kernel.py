"""Kernel, scheduler, threads, timers and event queues."""

from __future__ import annotations

import pytest

from repro.rtos import (
    Sleep,
    ThreadState,
    Wait,
    YieldCPU,
)
from repro.rtos.errors import TimerError


class TestClockAndTimers:
    def test_clock_starts_at_zero(self, kernel):
        assert kernel.now_us == 0

    def test_idle_advances_to_next_timer(self, kernel):
        fired = []
        kernel.timers.set(lambda: fired.append(kernel.now_us), 1000)
        kernel.run_until_idle()
        assert fired == [1000.0]

    def test_timer_ordering(self, kernel):
        order = []
        kernel.timers.set(lambda: order.append("b"), 200)
        kernel.timers.set(lambda: order.append("a"), 100)
        kernel.timers.set(lambda: order.append("c"), 300)
        kernel.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_cancelled_timer_does_not_fire(self, kernel):
        fired = []
        entry = kernel.timers.set(lambda: fired.append(1), 100)
        kernel.timers.cancel(entry)
        kernel.run_until_idle()
        assert not fired

    def test_periodic_timer_and_cancel(self, kernel):
        ticks = []
        cancel = kernel.timers.set_periodic(lambda: ticks.append(kernel.now_us), 100)
        kernel.run(until_us=450)
        cancel()
        kernel.run(until_us=1000)
        assert ticks == [100.0, 200.0, 300.0, 400.0]

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(TimerError):
            kernel.timers.set(lambda: None, -1)

    def test_zero_period_rejected(self, kernel):
        with pytest.raises(TimerError):
            kernel.timers.set_periodic(lambda: None, 0)


class TestThreads:
    def test_thread_runs_to_completion(self, kernel):
        log = []

        def body(thread):
            log.append("start")
            yield Sleep(100)
            log.append("end")

        thread = kernel.create_thread("t", body)
        kernel.run_until_idle()
        assert log == ["start", "end"]
        assert thread.state is ThreadState.ENDED

    def test_priority_order(self, kernel):
        order = []

        def make(name):
            def body(thread):
                order.append(name)
                yield Sleep(0)
            return body

        kernel.create_thread("low", make("low"), priority=10)
        kernel.create_thread("high", make("high"), priority=1)
        kernel.run_until_idle()
        assert order[0] == "high"

    def test_round_robin_within_priority(self, kernel):
        order = []

        def make(name):
            def body(thread):
                for _ in range(2):
                    order.append(name)
                    yield YieldCPU()
            return body

        kernel.create_thread("a", make("a"), priority=5)
        kernel.create_thread("b", make("b"), priority=5)
        kernel.run_until_idle()
        assert order == ["a", "b", "a", "b"]

    def test_sleep_durations_respected(self, kernel):
        wakes = []

        def body(thread):
            yield Sleep(500)
            wakes.append(kernel.now_us)
            yield Sleep(250)
            wakes.append(kernel.now_us)

        kernel.create_thread("sleeper", body)
        kernel.run_until_idle()
        assert wakes[0] >= 500
        assert wakes[1] >= 750

    def test_charge_advances_clock(self, kernel):
        def body(thread):
            thread.charge(6400)
            yield Sleep(0)

        kernel.create_thread("worker", body)
        kernel.run_until_idle()
        assert kernel.now_us >= 100  # 6400 cycles at 64 MHz

    def test_activations_counted_per_switch_in(self, kernel):
        def body(thread):
            for _ in range(3):
                yield Sleep(10)

        thread = kernel.create_thread("t", body)
        kernel.run_until_idle()
        # initial dispatch + 3 wakeups (each sleep causes a switch out/in)
        assert thread.activations == 4

    def test_pid_assignment_starts_at_one(self, kernel):
        t1 = kernel.create_thread("a", None, start=False)
        t2 = kernel.create_thread("b", None, start=False)
        assert (t1.pid, t2.pid) == (1, 2)


class TestEventQueues:
    def test_post_wakes_waiter(self, kernel):
        queue = kernel.new_event_queue()
        received = []

        def consumer(thread):
            event = yield Wait(queue)
            received.append(event.payload)

        kernel.create_thread("consumer", consumer)
        kernel.run(max_steps=5)
        queue.post_new("data", payload=42)
        kernel.run_until_idle()
        assert received == [42]

    def test_pending_event_consumed_without_blocking(self, kernel):
        queue = kernel.new_event_queue()
        queue.post_new("early", payload=1)
        received = []

        def consumer(thread):
            event = yield Wait(queue)
            received.append(event.payload)

        kernel.create_thread("consumer", consumer)
        kernel.run_until_idle()
        assert received == [1]

    def test_fifo_delivery_to_multiple_waiters(self, kernel):
        queue = kernel.new_event_queue()
        received = []

        def make(name):
            def body(thread):
                event = yield Wait(queue)
                received.append((name, event.payload))
            return body

        kernel.create_thread("first", make("first"), priority=5)
        kernel.create_thread("second", make("second"), priority=5)
        kernel.run(max_steps=10)
        queue.post_new("e", payload=1)
        queue.post_new("e", payload=2)
        kernel.run_until_idle()
        assert sorted(received) == [("first", 1), ("second", 2)]


class TestSchedulerAccounting:
    def test_switch_count_includes_idle_transitions(self, kernel):
        def body(thread):
            yield Sleep(100)

        kernel.create_thread("t", body)
        kernel.run_until_idle()
        # in -> idle -> in -> end: at least 3 switches
        assert kernel.scheduler.switch_count >= 3

    def test_context_switch_cost_charged(self, kernel):
        def body(thread):
            yield Sleep(0)

        kernel.create_thread("t", body)
        before = kernel.clock.cycles
        kernel.step()
        assert kernel.clock.cycles - before >= kernel.board.context_switch_cycles

    def test_run_returns_false_when_no_work(self, kernel):
        assert kernel.run_until_idle() == 0
