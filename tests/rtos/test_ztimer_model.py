"""TimerWheel model test: generated set / cancel / periodic / advance runs.

The wheel keeps ``(deadline_cycles, seq, entry)`` tuples in a heap and
drops a cancelled entry only when it reaches the top.  The model is a
plain list scanned for its minimum.  After every step the two agree on
what fired and in which order — by deadline, then by arming order, a
periodic timer's re-arm counting as a fresh arming — and on ``pending``
and ``next_deadline()``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rtos import Kernel

steps = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from([0, 1, 5, 10, 100, 250])),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("periodic"), st.sampled_from([5, 10, 50])),
        st.tuples(st.just("stop"), st.integers(0, 10)),
        st.tuples(st.just("advance"), st.sampled_from([0, 1, 5, 10, 60, 300])),
    ),
    max_size=60,
)


class Model:
    def __init__(self, clock):
        self.clock = clock
        #: Armed timers: [deadline, arming order, ident, period_us, alive].
        self.armed: list[list] = []
        self.order = 0
        self.fired: list[str] = []
        #: Periodic ident -> its currently armed record.
        self.periodic: dict[str, list] = {}

    def arm(self, ident: str, delay_us: float, period_us=None) -> list:
        record = [self.clock.cycles + self.clock.us_to_cycles(delay_us),
                  self.order, ident, period_us, True]
        self.order += 1
        self.armed.append(record)
        return record

    def live(self) -> list[list]:
        return [record for record in self.armed if record[4]]

    def fire_due(self) -> None:
        now = self.clock.cycles
        while True:
            due = [record for record in self.live() if record[0] <= now]
            if not due:
                return
            record = min(due, key=lambda r: (r[0], r[1]))
            record[4] = False
            self.fired.append(record[2])
            if record[3] is not None:
                self.periodic[record[2]] = self.arm(record[2], record[3],
                                                    record[3])


@settings(max_examples=300, deadline=None)
@given(steps=steps)
def test_wheel_matches_the_model(steps):
    kernel = Kernel()
    wheel, clock = kernel.timers, kernel.clock
    model = Model(clock)
    fired: list[str] = []
    one_shots: list[tuple[object, list]] = []
    stoppers: list[tuple[object, str]] = []

    for index, (op, arg) in enumerate(steps):
        if op == "set":
            ident = f"t{index}"
            entry = wheel.set(lambda ident=ident: fired.append(ident), arg)
            one_shots.append((entry, model.arm(ident, arg)))
        elif op == "cancel" and one_shots:
            entry, record = one_shots[arg % len(one_shots)]
            wheel.cancel(entry)
            record[4] = False
        elif op == "periodic":
            ident = f"p{index}"
            stop = wheel.set_periodic(lambda ident=ident: fired.append(ident),
                                      arg)
            model.periodic[ident] = model.arm(ident, arg, arg)
            stoppers.append((stop, ident))
        elif op == "stop" and stoppers:
            stop, ident = stoppers[arg % len(stoppers)]
            stop()
            model.periodic[ident][4] = False
        elif op == "advance":
            clock.charge(clock.us_to_cycles(arg))
            count = wheel.fire_due()
            before = len(model.fired)
            model.fire_due()
            assert count == len(model.fired) - before
        assert fired == model.fired
        live = model.live()
        assert wheel.pending == len(live)
        assert wheel.next_deadline() == (min(record[0] for record in live)
                                         if live else None)


def test_same_deadline_after_rearm_fires_in_arming_order():
    """A periodic re-arm lands behind a one-shot armed earlier for the
    same deadline: arming order breaks deadline ties."""
    kernel = Kernel()
    order: list[str] = []
    kernel.timers.set_periodic(lambda: order.append("tick"), 10)
    kernel.timers.set(lambda: order.append("one-shot"), 20)
    for _ in range(2):
        kernel.clock.charge(kernel.clock.us_to_cycles(10))
        kernel.timers.fire_due()
    assert order == ["tick", "one-shot", "tick"]
