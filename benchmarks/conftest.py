"""Shared helpers for the paper-reproduction benchmark harness.

Every paper benchmark regenerates one table or figure of the paper,
prints it, and writes it to ``benchmarks/results/<name>.txt``.  Those
files are tracked and byte-stable (modelled cycles and byte counts, no
host timings), so a run that changes a paper number leaves the tree
dirty, and CI's ``git diff --exit-code`` step fails.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print a rendered table/figure and rewrite its tracked results file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
