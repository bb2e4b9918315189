"""One result protocol for every fleet-shaped outcome.

:class:`FleetResult` is the protocol every fleet operation's result
implements — :class:`~repro.deploy.fleet.FleetRollout` (direct
applies), :class:`~repro.deploy.fleet.CanaryRollout` (staged applies)
and :class:`~repro.deploy.publish.PublishResult` (over-the-air
publishes):

* ``ok`` — one boolean verdict (applied / promoted / converged);
* ``wall_s`` — total host wall-clock across the per-device rows;
* ``speedups()`` — wall speedup of each later device over the first
  (cold) one, the image-cache headline every bench guards;
* iteration — ``for row in result`` walks the per-device rows, and
  ``len(result)`` counts them; ``rows()`` lists them.

The two staged results share :class:`StagedResult`, because one
:class:`~repro.deploy.staged.StagedRollout` fills both: rows per
phase (``canary``, ``control``, ``rollback``) plus the bake verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.spec import DeploymentSpec


class FleetResult:
    """Protocol base for fleet-wide results with per-device rows."""

    def rows(self) -> Sequence:
        """Per-device rows, in convergence order."""
        raise NotImplementedError

    def speedup_rows(self) -> Sequence:
        """Rows entering the cold-vs-warm comparison (staged results
        drop rollback rows — those measure the *undo*, not the
        rollout)."""
        return self.rows()

    @property
    def ok(self) -> bool:
        """One verdict for the whole operation."""
        return True

    @property
    def wall_s(self) -> float:
        """Total host wall-clock across the per-device rows."""
        return sum(row.wall_s for row in self.rows())

    def speedups(self) -> list[float]:
        """Wall speedup of each later device over the first (cold) one.

        The first device pays the cold host-side verify + JIT compile;
        every later device rides the content-addressed image cache.
        """
        rows = list(self.speedup_rows())
        if len(rows) < 2:
            return []
        cold = rows[0].wall_s
        return [cold / max(row.wall_s, 1e-9) for row in rows[1:]]

    def __iter__(self) -> Iterator:
        return iter(self.rows())

    def __len__(self) -> int:
        return len(self.rows())

    def __bool__(self) -> bool:
        # ``__len__`` alone would make an empty result falsy; a result
        # object's truthiness must stay "it exists", not "it has rows".
        return True


@dataclass(kw_only=True)
class StagedResult(FleetResult):
    """Rows and verdict of one staged rollout, whatever the transport.

    The rollout either **promoted** (every canary baked healthy and the
    spec went fleet-wide) or **rolled back** (a canary refused the spec
    or breached the health gate, or promotion was refused; every device
    that accepted the spec was reverted, and devices never triggered
    were never touched).
    """

    spec: DeploymentSpec
    #: Canary-phase rows, in fleet order.
    canary: list = field(default_factory=list)
    #: Fleet-wide rows: the promotion after a healthy bake (empty unless
    #: promoted), or every device of an unstaged publish.
    control: list = field(default_factory=list)
    #: Revert rows (empty unless rolled back).
    rollback: list = field(default_factory=list)
    #: Fleet-level rollback target: the explicit baseline, else the spec
    #: the fleet last converged on, else an empty spec of the same scope.
    baseline: DeploymentSpec | None = None
    #: Virtual microseconds each canary baked for.
    bake_us: float = 0.0
    #: Contained faults per canary during the bake.
    fault_deltas: dict[str, int] = field(default_factory=dict)
    #: Health-gate breaches per canary (empty lists when healthy).
    health: dict[str, list[str]] = field(default_factory=dict)
    promoted: bool = False
    rolled_back: bool = False
    reason: str = ""

    def rows(self) -> list:
        return self.canary + self.control + self.rollback

    def speedup_rows(self) -> list:
        return self.canary + self.control

    @property
    def canary_names(self) -> list[str]:
        return [row.device.name for row in self.canary]

    def promotion_speedups(self) -> list[float]:
        """Wall speedup of each promoted device over the cold canary.

        The first canary pays the cold verify/JIT-compile; promotion
        rides the image cache the bake already proved out, so promoted
        devices converge dramatically faster in wall time.
        """
        if not self.canary or not self.control:
            return []
        cold = self.canary[0].wall_s
        return [cold / max(row.wall_s, 1e-9) for row in self.control]
