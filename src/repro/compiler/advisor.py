"""The communication advisor: the paper's advice as a compiler pass.

The paper closes with guidance for "compiler writers who want to
custom-tailor a compiler's communication operations to a specific
parallel system".  This module turns that guidance into code:

* :func:`advise_plan` — for every operation of a communication plan,
  pick the implementation strategy the copy-transfer model predicts to
  be fastest on the target machine, and estimate the step's cost;
* :func:`advise_transpose` — additionally choose the loop order of a
  distributed transpose (Section 5.2: strided *stores* on the T3D,
  strided *loads* on the Paragon), the paper's worked optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.errors import ModelError
from ..core.model import CopyTransferModel, StyleChoice
from ..core.operations import OperationStyle
from ..faults.degrade import DegradedResult
from ..faults.spec import FaultPlan, current_fault_plan
from ..machines.base import Machine
from .commgen import CommOp, CommPlan, transpose_2d

if TYPE_CHECKING:
    from ..runtime.engine import CommRuntime

__all__ = [
    "CollectiveAdvice",
    "OpAdvice",
    "PlanAdvice",
    "advise_plan",
    "advise_transpose",
    "choose_algorithm",
]


@dataclass(frozen=True)
class OpAdvice:
    """The recommendation for one ``xQy`` operation.

    ``degraded`` is set when a fault plan overrode the model's first
    choice (the deposit engine the chained style needs is unavailable
    at the op's destination) and the advisor fell back.
    """

    op: CommOp
    style: OperationStyle
    predicted_mbps: float
    alternative_mbps: float
    degraded: Optional[DegradedResult] = None

    @property
    def gain(self) -> float:
        """Predicted speedup of the chosen style over the alternative."""
        if self.alternative_mbps <= 0:
            return float("inf")
        return self.predicted_mbps / self.alternative_mbps


@dataclass(frozen=True)
class PlanAdvice:
    """The full recommendation for a communication plan.

    Attributes:
        per_op: One advice entry per distinct operation shape.
        style_histogram: How many operations chose each style.
        predicted_step_us: Estimated slowest-node time for the step,
            from the model rates (no runtime overheads — a lower
            bound, like every model figure).
    """

    plan_name: str
    per_op: Tuple[OpAdvice, ...]
    style_histogram: Dict[str, int]
    predicted_step_us: float

    def dominant_style(self) -> OperationStyle:
        winner = max(self.style_histogram, key=self.style_histogram.get)
        return OperationStyle(winner)

    @property
    def degraded(self) -> Tuple[OpAdvice, ...]:
        """The ops a fault plan forced away from the model's choice."""
        return tuple(a for a in self.per_op if a.degraded is not None)

    def render(self) -> str:
        lines = [f"plan {self.plan_name!r}:"]
        seen = set()
        for advice in self.per_op:
            key = advice.op.notation
            if key in seen:
                continue
            seen.add(key)
            suffix = " (degraded)" if advice.degraded is not None else ""
            lines.append(
                f"  {key:12} -> {advice.style.value:14} "
                f"{advice.predicted_mbps:6.1f} MB/s "
                f"({advice.gain:.2f}x over alternative){suffix}"
            )
        degraded = self.degraded
        if degraded:
            lines.append(
                f"  degraded ops: {len(degraded)} "
                f"({degraded[0].degraded.fault})"
            )
        lines.append(
            f"  predicted step time: {self.predicted_step_us:.0f} us "
            f"(slowest node, model rates)"
        )
        return "\n".join(lines)


def _choose(
    model: CopyTransferModel, op: CommOp, deposit_ok: bool = True
) -> OpAdvice:
    choice: StyleChoice = model.choose(op.x, op.y)
    alternative = (
        choice.alternatives[0][1].mbps if choice.alternatives else 0.0
    )
    if not deposit_ok and choice.style is OperationStyle.CHAINED:
        # The fault plan took the deposit engine away at this op's
        # destination: advise buffer-packing and record the override.
        for style, estimate in choice.alternatives:
            if style is OperationStyle.BUFFER_PACKING:
                packing_mbps = estimate.mbps
                break
        else:
            packing_mbps = model.estimate(
                op.x, op.y, OperationStyle.BUFFER_PACKING
            ).mbps
        return OpAdvice(
            op=op,
            style=OperationStyle.BUFFER_PACKING,
            predicted_mbps=packing_mbps,
            alternative_mbps=choice.mbps,
            degraded=DegradedResult(
                fault="deposit-engine-unavailable",
                requested=OperationStyle.CHAINED.value,
                fallback=OperationStyle.BUFFER_PACKING.value,
                nominal_mbps=choice.mbps,
                degraded_mbps=packing_mbps,
            ),
        )
    return OpAdvice(
        op=op,
        style=choice.style,
        predicted_mbps=choice.mbps,
        alternative_mbps=alternative,
    )


def advise_plan(
    machine: Machine,
    plan: CommPlan,
    faults: Optional[FaultPlan] = None,
) -> PlanAdvice:
    """Choose the best implementation per operation of a plan.

    Args:
        machine: The target machine.
        plan: The communication plan to advise.
        faults: Fault plan to respect; defaults to the one installed
            with :func:`repro.faults.injecting`, if any.  Ops whose
            destination has lost its deposit engine are re-advised to
            buffer-packing with an :attr:`OpAdvice.degraded` record.
    """
    if not plan.ops:
        raise ValueError(f"plan {plan.name!r} is empty")
    if faults is None:
        faults = current_fault_plan()
    if faults is not None and faults.is_empty():
        faults = None
    model = machine.model(source="paper" if len(machine.published) else "simulated")

    advice_by_shape: Dict[Tuple, OpAdvice] = {}
    per_op: List[OpAdvice] = []
    histogram: Dict[str, int] = {}
    node_us: Dict[int, float] = {}
    for op in plan.ops:
        deposit_ok = (
            faults.deposit_available(op.dst) if faults is not None else True
        )
        shape = (op.x, op.y, deposit_ok)
        if shape not in advice_by_shape:
            advice_by_shape[shape] = _choose(model, op, deposit_ok=deposit_ok)
        template = advice_by_shape[shape]
        advice = OpAdvice(op, template.style, template.predicted_mbps,
                          template.alternative_mbps, template.degraded)
        per_op.append(advice)
        histogram[advice.style.value] = histogram.get(advice.style.value, 0) + 1
        node_us[op.src] = node_us.get(op.src, 0.0) + (
            op.nbytes / advice.predicted_mbps
        )
    return PlanAdvice(
        plan_name=plan.name,
        per_op=tuple(per_op),
        style_histogram=histogram,
        predicted_step_us=max(node_us.values()),
    )


@dataclass(frozen=True)
class CollectiveAdvice:
    """The model's pick of collective algorithm for one regime.

    Attributes:
        op: The collective operation.
        algorithm: The winning algorithm.
        predicted_ns: Its modelled completion time.
        per_algorithm: Every candidate's modelled time, for audits —
            the winner's entry is the minimum by construction.
        hierarchical: Whether the winning run used intra-node leaders
            (cluster machines only).
    """

    op: str
    algorithm: str
    nodes: int
    nbytes: int
    predicted_ns: float
    per_algorithm: Dict[str, float]
    hierarchical: bool = False


def choose_algorithm(
    op: str,
    machine: Machine,
    nbytes: int,
    nodes: int,
    runtime: Optional[CommRuntime] = None,
) -> CollectiveAdvice:
    """Pick the cheapest collective algorithm for a (machine, size) regime.

    Every candidate algorithm for ``op`` is priced by actually running
    it through the collective runtime on the machine's published
    calibration (:func:`repro.runtime.collectives.run_collective` with
    paper rates), so the selected algorithm's estimate is <= every
    alternative's *by construction* — the property the crossover test
    suite pins.  Few-round algorithms (binomial tree, recursive
    doubling, Bruck) win while per-round latency dominates; few-byte
    algorithms (ring, pairwise exchange) win once bandwidth does.

    On cluster machines each candidate runs hierarchy-aware when that
    beats the flat schedule, and the advice records which won.

    ``runtime`` is a paper-rate :class:`~repro.runtime.engine.CommRuntime`
    on ``machine`` to price on (a fresh one by default).  A caller that
    goes on to run the pick on the same runtime finds every round of it
    already priced.
    """
    from ..runtime.collectives import ALGORITHMS, run_collective
    from ..runtime.engine import CommRuntime

    if op not in ALGORITHMS:
        raise ModelError(
            f"unknown collective {op!r}; choose from {sorted(ALGORITHMS)}"
        )
    if runtime is None:
        runtime = CommRuntime(machine, rates="paper")
    elif runtime.machine is not machine:
        raise ValueError(
            f"the runtime runs on another machine object "
            f"({runtime.machine.name}) than the one advised ({machine.name})"
        )
    timings: Dict[str, float] = {}
    layouts: Dict[str, bool] = {}
    for algorithm in ALGORITHMS[op]:
        candidates = {
            False: run_collective(
                runtime, op, algorithm, nodes, nbytes, hierarchical=False
            ).total_ns
        }
        if getattr(machine, "cores_per_node", 1) > 1:
            candidates[True] = run_collective(
                runtime, op, algorithm, nodes, nbytes, hierarchical=True
            ).total_ns
        layout = min(candidates, key=candidates.get)
        timings[algorithm] = candidates[layout]
        layouts[algorithm] = layout
    winner = min(timings, key=timings.get)
    return CollectiveAdvice(
        op=op,
        algorithm=winner,
        nodes=nodes,
        nbytes=nbytes,
        predicted_ns=timings[winner],
        per_algorithm=timings,
        hierarchical=layouts[winner],
    )


def advise_transpose(
    machine: Machine,
    rows: int,
    cols: int,
    n_nodes: int,
    element_words: int = 1,
) -> Tuple[str, PlanAdvice]:
    """Pick the loop order *and* strategy for a distributed transpose.

    Evaluates both Figure 9 implementations — ``1Qn`` (row order,
    strided stores) and ``nQ1`` (column order, strided loads) — under
    the machine's model and returns the winner with its plan advice.
    """
    best: Tuple[str, PlanAdvice] = ("", None)  # type: ignore[assignment]
    for order in ("row", "col"):
        plan = transpose_2d(
            rows, cols, n_nodes, element_words=element_words, loop_order=order
        )
        advice = advise_plan(machine, plan)
        if best[1] is None or advice.predicted_step_us < best[1].predicted_step_us:
            best = (order, advice)
    return best
