"""Model-accuracy assessment: the paper's closing claim, quantified.

"Although simple, the model is highly accurate in the cases that we
have evaluated so far" (Section 7).  This module measures that claim
against our end-to-end runtime: for every pattern pair and strategy it
compares the model's estimate with the measured throughput and
summarizes the error distribution.

Two statistics matter:

* the *bias* — measured/model should be below but near 1 (the model is
  a tight upper bound, per its optimistic-overlap assumption);
* the *ranking accuracy* — when the model says chained beats packing,
  the measurement must agree: the model's purpose is choosing
  implementations, so ordering mistakes are the costly ones.

A machine that cannot compose one style for some pattern pair is not
an error.  The T3D ablation without a general deposit engine, for
one, has no background receiver for non-contiguous writes, so chained
is infeasible there.  The infeasible cell is skipped and recorded with
its reason, and its pattern pair is left out of the ranking total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.errors import CompositionError
from ..core.operations import OperationStyle
from ..core.patterns import CONTIGUOUS, INDEXED, AccessPattern, strided
from ..machines.base import Machine
from ..runtime.engine import measure_q

__all__ = ["AccuracyCase", "AccuracyReport", "model_accuracy"]

#: The pattern grid the assessment covers.
GRID: List[Tuple[AccessPattern, AccessPattern]] = [
    (x, y)
    for x in (CONTIGUOUS, strided(16), strided(64), INDEXED)
    for y in (CONTIGUOUS, strided(16), strided(64), INDEXED)
]


@dataclass(frozen=True)
class AccuracyCase:
    """One grid cell: model estimate vs runtime measurement."""

    operation: str
    style: OperationStyle
    model_mbps: float
    measured_mbps: float

    @property
    def ratio(self) -> float:
        """measured / model; <= 1 when the model upper-bounds reality."""
        return self.measured_mbps / self.model_mbps


@dataclass(frozen=True)
class AccuracyReport:
    """Summary of the model-vs-measured comparison on one machine."""

    machine: str
    cases: Tuple[AccuracyCase, ...]
    ranking_agreements: int
    ranking_total: int
    #: ``(operation, style, reason)`` for every infeasible cell.
    skipped: Tuple[Tuple[str, OperationStyle, str], ...] = ()

    @property
    def mean_ratio(self) -> float:
        return sum(case.ratio for case in self.cases) / len(self.cases)

    @property
    def worst_overprediction(self) -> float:
        """The smallest measured/model ratio (most optimistic cell)."""
        return min(case.ratio for case in self.cases)

    @property
    def overshoot_cases(self) -> int:
        """Cells where the measurement beat the model (should be ~0)."""
        return sum(1 for case in self.cases if case.ratio > 1.0)

    @property
    def ranking_accuracy(self) -> float:
        return self.ranking_agreements / self.ranking_total

    def render(self) -> str:
        lines = [
            f"model accuracy on {self.machine} "
            f"({len(self.cases)} cells):",
            f"  mean measured/model ratio: {self.mean_ratio:.2f}",
            f"  worst cell: {self.worst_overprediction:.2f}",
            f"  measurements beating the model: {self.overshoot_cases}",
            f"  strategy-ranking accuracy: "
            f"{self.ranking_agreements}/{self.ranking_total}",
        ]
        if self.skipped:
            lines.append(
                f"  skipped {len(self.skipped)} infeasible cells "
                "(left out of the ranking):"
            )
            lines.extend(
                f"    {operation} {style.value}: {reason}"
                for operation, style, reason in self.skipped
            )
        return "\n".join(lines)


def model_accuracy(machine: Machine, nbytes: int = 128 * 1024) -> AccuracyReport:
    """Assess the model against the runtime over the full grid."""
    model = machine.model(source="simulated")
    cases: List[AccuracyCase] = []
    skipped: List[Tuple[str, OperationStyle, str]] = []
    agreements = 0
    total = 0
    for x, y in GRID:
        operation = f"{x.subscript}Q{y.subscript}"
        per_style: Dict[OperationStyle, AccuracyCase] = {}
        for style in OperationStyle:
            try:
                estimate = model.estimate(x, y, style).mbps
                measured = measure_q(machine, x, y, nbytes, style).mbps
            except CompositionError as exc:
                skipped.append((operation, style, str(exc)))
                continue
            case = AccuracyCase(
                operation=operation,
                style=style,
                model_mbps=estimate,
                measured_mbps=measured,
            )
            cases.append(case)
            per_style[style] = case

        if len(per_style) < len(OperationStyle):
            continue
        total += 1
        packing = per_style[OperationStyle.BUFFER_PACKING]
        chained = per_style[OperationStyle.CHAINED]
        model_prefers_chained = chained.model_mbps >= packing.model_mbps
        measured_prefers_chained = chained.measured_mbps >= packing.measured_mbps
        if model_prefers_chained == measured_prefers_chained:
            agreements += 1

    return AccuracyReport(
        machine=machine.name,
        cases=tuple(cases),
        ranking_agreements=agreements,
        ranking_total=total,
        skipped=tuple(skipped),
    )
