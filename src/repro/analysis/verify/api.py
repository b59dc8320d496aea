"""High-level verification entry points.

One call per verifiable artefact:

* :func:`verify_expr` — a composition expression (the model tier);
* :func:`verify_plan` — a compiler-emitted
  :class:`~repro.compiler.commgen.CommPlan`;
* :func:`verify_step` — a runtime
  :class:`~repro.runtime.collective.CommunicationStep`, whose flow
  list is reified into a plan and verified against the runtime's own
  table and machine.

Each lowers its input to the plan IR, gathers whatever optional
ingredients the target supports — the static throughput bracket, the
model's concrete estimate, the fault-coverage table — runs every
verify pass, and returns a :class:`VerifyResult` that renders to
stable JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from ...contract import VERIFY_REPORT
from ...core.composition import Expr
from ...core.errors import CompositionError, ModelError
from ...core.model import CopyTransferModel
from ...core.operations import OperationStyle
from ...core.throughput import evaluate
from ...faults.policy import RetryPolicy
from ...memsim.config import WORD_BYTES
from ..diagnostics import Diagnostic, Severity
from .bounds import PhaseBound, phase_bounds
from .coverage import CoverageContext, CoverageEntry, fault_coverage
from .ir import PlanIR, lower_expr, lower_plan
from .passes import VerifyContext, run_verify

if TYPE_CHECKING:
    from ...compiler.commgen import CommPlan
    from ...runtime.collective import CommunicationStep

__all__ = [
    "VerifyResult",
    "verify_expr",
    "verify_plan",
    "verify_step",
    "DEFAULT_NBYTES",
]

#: Message size verified by default — the paper's 128 KiB grid points.
DEFAULT_NBYTES = 131072

StyleLike = Union[OperationStyle, str, None]


def _style_value(style: StyleLike) -> Optional[str]:
    if style is None:
        return None
    if isinstance(style, OperationStyle):
        return style.value
    return OperationStyle(style).value


@dataclass(frozen=True)
class VerifyResult:
    """Everything one verification run established about its target."""

    target: str
    ir: PlanIR
    diagnostics: Tuple[Diagnostic, ...]
    bounds: Tuple[PhaseBound, ...] = ()
    coverage: Tuple[CoverageEntry, ...] = ()
    estimate_mbps: Optional[float] = None
    machine: Optional[str] = None
    style: Optional[str] = None
    schedule: Optional[str] = None
    discipline: Optional[str] = None

    @property
    def ok(self) -> bool:
        """No verify finding and no error-severity diagnostic."""
        return not any(
            d.rule.startswith("CT21") or d.severity is Severity.ERROR
            for d in self.diagnostics
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly payload (stable key order via sort_keys)."""
        return {
            "target": self.target,
            "machine": self.machine,
            "style": self.style,
            "schedule": self.schedule,
            "discipline": self.discipline,
            "ok": self.ok,
            "estimate_mbps": self.estimate_mbps,
            "bounds": [
                {
                    "phase": row.phase,
                    "mbps_lo": row.mbps_lo,
                    "mbps_hi": row.mbps_hi,
                    "lo_ns": row.lo_ns,
                    "hi_ns": row.hi_ns,
                }
                for row in self.bounds
            ],
            "coverage": {
                entry.fault_class: {
                    "covered": entry.covered,
                    "reason": entry.reason,
                }
                for entry in self.coverage
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render(self) -> str:
        """Human-readable report."""
        lines = [f"verify {self.target}: {'ok' if self.ok else 'FINDINGS'}"]
        if self.estimate_mbps is not None:
            lines.append(f"  estimate: {self.estimate_mbps:.1f} MB/s")
        for row in self.bounds:
            lines.append(
                f"  {row.phase}: [{row.mbps_lo:.1f}, {row.mbps_hi:.1f}] "
                f"MB/s = [{row.lo_ns:.0f}, {row.hi_ns:.0f}] ns"
            )
        uncovered = [e for e in self.coverage if not e.covered]
        if self.coverage:
            lines.append(
                f"  fault coverage: "
                f"{len(self.coverage) - len(uncovered)}/{len(self.coverage)} "
                "classes covered"
            )
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render())
        return "\n".join(lines)


def _coverage_for(
    model: Optional[CopyTransferModel],
    style: Optional[str],
    retry_policy: Optional[RetryPolicy],
) -> Tuple[CoverageEntry, ...]:
    context = CoverageContext(
        capabilities=model.capabilities if model is not None else None,
        style=style,
        machine=model.name if model is not None else None,
        retry_policy=retry_policy,
    )
    return tuple(fault_coverage(context))


def verify_expr(
    expr: Expr,
    model: Optional[CopyTransferModel] = None,
    nbytes: int = DEFAULT_NBYTES,
    style: StyleLike = None,
    retry_policy: Optional[RetryPolicy] = None,
    only: Optional[Sequence[str]] = None,
    name: str = "expr",
) -> VerifyResult:
    """Verify one composition expression.

    Without a model, only the structural passes (races over the
    expression's own resource claims) can fire; with one, the bounds
    pass brackets the model's concrete estimate and the coverage pass
    judges the machine's capabilities.
    """
    style_value = _style_value(style)
    machine = model.name if model is not None else None
    ir = lower_expr(expr, machine=machine, name=name)
    bounds: Tuple[PhaseBound, ...] = ()
    estimate_mbps: Optional[float] = None
    if model is not None:
        bounds = tuple(
            phase_bounds(expr, model.table, nbytes, model.constraints)
        )
        try:
            estimate_mbps = evaluate(
                expr,
                model.table,
                constraints=model.constraints,
                validate=False,
            ).mbps
        except ModelError:
            estimate_mbps = None  # CT1xx/CT202 territory, not CT214's
    coverage = _coverage_for(model, style_value, retry_policy)
    context = VerifyContext(
        ir=ir,
        estimate_mbps=estimate_mbps,
        bounds=bounds,
        coverage=coverage,
    )
    return VerifyResult(
        target=name,
        ir=ir,
        diagnostics=run_verify(context, only=only),
        bounds=bounds,
        coverage=coverage,
        estimate_mbps=estimate_mbps,
        machine=machine,
        style=style_value,
    )


def verify_plan(
    plan: "CommPlan",
    model: Optional[CopyTransferModel] = None,
    style: StyleLike = None,
    schedule: str = "phased",
    discipline: str = "interleaved",
    retry_policy: Optional[RetryPolicy] = None,
    only: Optional[Sequence[str]] = None,
) -> VerifyResult:
    """Verify a compiler-emitted communication plan.

    The race pass judges the plan under the requested ``schedule``
    (phased or eager), the deadlock pass under the requested messaging
    ``discipline``.  With a model, the plan's dominant operation is
    built and bracketed, so a plan target also exercises the bounds
    pass.
    """
    style_value = _style_value(style)
    machine = model.name if model is not None else None
    ir = lower_plan(
        plan,
        capabilities=model.capabilities if model is not None else None,
        machine=machine,
        style=style_value,
        schedule=schedule,
        discipline=discipline,
    )
    bounds: Tuple[PhaseBound, ...] = ()
    estimate_mbps: Optional[float] = None
    if model is not None and len(plan.ops) > 0:
        op = plan.dominant_op()
        expr: Optional[Expr] = None
        if style_value is not None:
            try:
                expr = model.build(op.x, op.y, style_value)
            except CompositionError:
                expr = None  # CT403's report, not a bounds failure
        else:
            try:
                expr = model.choose(op.x, op.y).expr
            except ModelError:
                expr = None
        if expr is not None:
            bounds = tuple(
                phase_bounds(
                    expr, model.table, op.nbytes, model.constraints
                )
            )
            try:
                estimate_mbps = evaluate(
                    expr,
                    model.table,
                    constraints=model.constraints,
                    validate=False,
                ).mbps
            except ModelError:
                estimate_mbps = None
    coverage = _coverage_for(model, style_value, retry_policy)
    context = VerifyContext(
        ir=ir,
        estimate_mbps=estimate_mbps,
        bounds=bounds,
        coverage=coverage,
    )
    return VerifyResult(
        target=f"plan:{plan.name}",
        ir=ir,
        diagnostics=run_verify(context, only=only),
        bounds=bounds,
        coverage=coverage,
        estimate_mbps=estimate_mbps,
        machine=machine,
        style=style_value,
        schedule=schedule,
        discipline=discipline,
    )


def verify_step(
    step: "CommunicationStep",
    style: StyleLike = None,
    schedule: str = "phased",
    discipline: str = "interleaved",
    retry_policy: Optional[RetryPolicy] = None,
    only: Optional[Sequence[str]] = None,
) -> VerifyResult:
    """Verify a runtime collective step before executing it.

    The step's flow list is reified into a
    :class:`~repro.compiler.commgen.CommPlan` (same patterns and
    payload on every flow) and verified against a model assembled from
    the step's own runtime: its calibration table and its machine's
    capabilities, so the verdict matches what the step would execute.
    """
    from ...compiler.commgen import CommOp, CommPlan

    runtime = step.runtime
    nwords = max(1, step.bytes_per_flow // WORD_BYTES)
    plan = CommPlan(
        ops=[
            CommOp(src=src, dst=dst, x=step.x, y=step.y, nwords=nwords)
            for src, dst in step.flows
        ],
        name=f"step[{len(step.flows)} flows]",
    )
    model = CopyTransferModel(
        table=runtime.table,
        capabilities=runtime.machine.capabilities,
        name=runtime.machine.name,
    )
    return verify_plan(
        plan,
        model=model,
        style=style,
        schedule=schedule,
        discipline=discipline,
        retry_policy=retry_policy,
        only=only,
    )


def _merge_counts(
    results: Sequence[VerifyResult],
) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for result in results:
        for diagnostic in result.diagnostics:
            counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
    return counts


def results_payload(results: Sequence[VerifyResult]) -> Dict[str, Any]:
    """The ``repro-verify-report/1`` envelope over several results."""
    payload_results: List[Dict[str, Any]] = [
        result.to_dict() for result in results
    ]
    return {
        "schema": VERIFY_REPORT,
        "ok": all(result.ok for result in results),
        "counts": _merge_counts(results),
        "results": payload_results,
    }
