"""Energy accounting (the abstract's "energy consumption" axis).

The meter integrates active vs sleep time from the kernel clock and the
board's current-draw model.  It also prices network transfers, which is
what the §11 discussion trades against virtualization overhead: updating a
small Femto-Container image instead of a full firmware saves radio energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtos.board import Board

#: Typical 802.15.4 radio energy per transferred byte at 250 kbit/s,
#: including protocol overhead (µJ/byte, order-of-magnitude model).
RADIO_UJ_PER_BYTE = 2.0

#: Fixed per-frame cost (preamble, CSMA listen, turnaround) charged on top
#: of the per-byte cost.  Makes retransmitted frames visible in the energy
#: report even when the payload byte count stays the same (µJ/frame).
RADIO_UJ_PER_FRAME = 0.5


@dataclass
class EnergyReport:
    """Energy split of one measured interval."""

    active_uj: float
    sleep_uj: float
    radio_uj: float = 0.0

    @property
    def total_uj(self) -> float:
        return self.active_uj + self.sleep_uj + self.radio_uj


class EnergyMeter:
    """Integrates energy from cycle counts against a board model."""

    def __init__(self, board: Board):
        self.board = board
        self._active_cycles = 0
        self._sleep_us = 0.0
        self._radio_bytes = 0
        self._radio_frames = 0
        self._tracked: list[tuple[object, int, int]] = []

    def add_active_cycles(self, cycles: int) -> None:
        self._active_cycles += cycles

    def add_sleep_us(self, duration_us: float) -> None:
        self._sleep_us += duration_us

    def add_radio_bytes(self, count: int) -> None:
        self._radio_bytes += count

    def track_interface(self, iface) -> None:
        """Charge this radio's future link-layer traffic to the meter.

        The meter keeps a per-interface baseline and folds only the
        *delta* into the report, so an interface may be handed over
        mid-life (e.g. re-tracked after a reboot replaces the radio rig)
        without double charging.  Every frame the interface put on the
        air is priced — including frames that the link then lost and
        CoAP retransmissions — plus everything it received.
        """
        stats = iface.stats
        self._tracked.append(
            (stats, stats.bytes_sent + stats.bytes_received,
             stats.frames_sent)
        )

    def _collect_tracked(self) -> None:
        updated = []
        for stats, byte_base, frame_base in self._tracked:
            byte_now = stats.bytes_sent + stats.bytes_received
            frame_now = stats.frames_sent
            self._radio_bytes += byte_now - byte_base
            self._radio_frames += frame_now - frame_base
            updated.append((stats, byte_now, frame_now))
        self._tracked = updated

    def radio_uj(self) -> float:
        """Radio energy so far: every tracked byte and frame, priced."""
        self._collect_tracked()
        return (self._radio_bytes * RADIO_UJ_PER_BYTE
                + self._radio_frames * RADIO_UJ_PER_FRAME)

    def report(self) -> EnergyReport:
        return EnergyReport(
            active_uj=self.board.active_energy_uj(self._active_cycles),
            sleep_uj=self.board.sleep_energy_uj(self._sleep_us),
            radio_uj=self.radio_uj(),
        )


def update_energy_uj(board: Board, payload_bytes: int,
                     install_cycles: int = 0) -> float:
    """Energy cost of one over-the-air update of ``payload_bytes``.

    Used by the ablation bench to compare "update a 500 B container" vs
    "update a 50 kB firmware" — the §11 argument that virtualization pays
    for itself in update energy.
    """
    return payload_bytes * RADIO_UJ_PER_BYTE + board.active_energy_uj(
        install_cycles
    )
