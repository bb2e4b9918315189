"""Virtual cycle-accurate clock.

All timing in the reproduction is *virtual*: the clock counts CPU cycles,
and everything that consumes time (instruction execution, context switches,
hook dispatch, helper calls, radio latency) charges cycles here.  Converting
to microseconds uses the board's CPU frequency (all three evaluation boards
run at 64 MHz, Appendix A).
"""

from __future__ import annotations


class Clock:
    """Monotonic virtual clock measured in CPU cycles."""

    def __init__(self, mhz: int = 64):
        if mhz <= 0:
            raise ValueError("CPU frequency must be positive")
        self.mhz = mhz
        self._cycles = 0

    @property
    def cycles(self) -> int:
        return self._cycles

    @property
    def time_us(self) -> float:
        """Elapsed virtual time in microseconds."""
        return self._cycles / self.mhz

    @property
    def time_ms(self) -> float:
        return self._cycles / (self.mhz * 1000.0)

    def charge(self, cycles: int) -> None:
        """Consume ``cycles`` of CPU time."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self._cycles += cycles

    def charge_us(self, us: float) -> None:
        self.charge(round(us * self.mhz))

    def advance_to(self, cycles: int) -> None:
        """Jump forward to an absolute cycle count (idle sleep)."""
        if cycles < self._cycles:
            raise ValueError(
                f"clock cannot move backwards ({cycles} < {self._cycles})"
            )
        self._cycles = cycles

    def us_to_cycles(self, us: float) -> int:
        return round(us * self.mhz)

    def cycles_to_us(self, cycles: int) -> float:
        return cycles / self.mhz
