"""Firmware image accounting: flash/RAM budgets (Tables 1 & 3, Figs 2 & 7).

The paper measures memory three ways, reproduced here as one model:

* **OS module inventory** — RIOT configured with 6LoWPAN, CoAP and
  SUIT-compliant OTA totals ~52.4 kB of flash (Table 1 "Host OS", Fig 2's
  53 kB caption).  The per-module split is reconstructed from Fig 2's pie
  percentages of the 57 kB rBPF image: crypto 13 %, network stack 35 %,
  kernel 30 %, OTA 14 %, runtime 8 %.
* **Hosting-engine footprint** — Table 3 measures the three engine builds
  on Cortex-M4 (rBPF 3032 B, Femto-Containers 2992 B, CertFC 1378 B).
  Those are the anchors; other architectures scale with the board's code
  density factor (Fig 7).
* **Per-instance RAM** — computed mechanistically from the VM model
  (11x8 B registers + 512 B stack + housekeeping; see
  :attr:`repro.vm.interpreter.Interpreter.ram_bytes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtos.board import Board

# -- OS module inventory (bytes), reconstructed from Fig 2 -------------------

KERNEL_FLASH = 17_100
NETSTACK_FLASH = 19_950
CRYPTO_FLASH = 7_410
OTA_FLASH = 7_980

#: Host OS (no VM) static RAM, Table 1: 16.3 kB.
HOST_OS_RAM = 16_300

#: Hosting-engine flash footprint measured on Cortex-M4 (Table 3).
ENGINE_FLASH_CORTEX_M4 = {
    "rbpf": 3032,
    "femto-containers": 2992,
    "certfc": 1378,
    #: §11 transpiler adds a code generator next to the interpreter.
    "jit": 4650,
}


@dataclass(frozen=True)
class FirmwareModule:
    """One linked component of the firmware image."""

    name: str
    flash_bytes: int
    ram_bytes: int = 0


def os_modules(board: Board | None = None) -> list[FirmwareModule]:
    """The RIOT base image: kernel + network stack + crypto + OTA."""
    factor = board.code_size_factor if board is not None else 1.0
    return [
        FirmwareModule("Crypto", round(CRYPTO_FLASH * factor), 500),
        FirmwareModule("Network stack", round(NETSTACK_FLASH * factor), 8_200),
        FirmwareModule("Kernel", round(KERNEL_FLASH * factor), 4_600),
        FirmwareModule("OTA module", round(OTA_FLASH * factor), 3_000),
    ]


def engine_flash_bytes(implementation: str, board: Board) -> int:
    """Flash footprint of a hosting-engine build on ``board`` (Fig 7)."""
    try:
        base = ENGINE_FLASH_CORTEX_M4[implementation]
    except KeyError:
        raise KeyError(
            f"no flash model for implementation {implementation!r}"
        ) from None
    return round(base * board.code_size_factor)


@dataclass
class FirmwareImage:
    """A composed firmware image with its memory accounting."""

    board: Board
    modules: list[FirmwareModule] = field(default_factory=list)

    @classmethod
    def riot_base(cls, board: Board) -> "FirmwareImage":
        """RIOT configured IoT-ready (Appendix A), without any VM runtime."""
        return cls(board=board, modules=os_modules(board))

    def add_engine(self, implementation: str) -> "FirmwareImage":
        """Link a Femto-Container hosting engine into the image."""
        self.modules.append(
            FirmwareModule(
                "Femto-Container runtime",
                engine_flash_bytes(implementation, self.board),
            )
        )
        return self

    def add_runtime(self, name: str, flash_bytes: int,
                    ram_bytes: int = 0) -> "FirmwareImage":
        """Link an arbitrary VM runtime (used for the §6 candidates)."""
        self.modules.append(
            FirmwareModule(f"{name} runtime", flash_bytes, ram_bytes)
        )
        return self

    # -- accounting ----------------------------------------------------------

    @property
    def flash_bytes(self) -> int:
        return sum(module.flash_bytes for module in self.modules)

    def flash_percentages(self) -> dict[str, float]:
        """Per-module share of flash (the Fig 2 pie chart)."""
        total = self.flash_bytes
        if total == 0:
            return {}
        return {
            module.name: 100.0 * module.flash_bytes / total
            for module in self.modules
        }

    def fits(self) -> bool:
        """Does the image fit the board's flash?"""
        return self.flash_bytes <= self.board.flash_kib * 1024

    def flash_overhead_percent(self, baseline: "FirmwareImage") -> float:
        """Relative flash growth vs a baseline image (the <10 % headline)."""
        if baseline.flash_bytes == 0:
            raise ValueError("baseline image is empty")
        return 100.0 * (self.flash_bytes - baseline.flash_bytes) / baseline.flash_bytes
