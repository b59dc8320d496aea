"""Static analysis of composition expressions and compiler plans.

A rule-based linter over the copy-transfer algebra: it checks the
model's composition rules (Section 3.3) *before* evaluation or
execution, polices model application (calibration coverage, resource
constraints, network framing), and surfaces the paper's performance
guidance (buffer packing vs. chaining, redundant copies) as advice.

Public surface:

* :func:`analyze` / :func:`analyze_plan` — run the rules, get sorted
  :class:`Diagnostic` objects;
* :class:`Diagnostic`, :class:`Severity`, :class:`Span` — structured
  findings with source spans over the paper notation;
* :data:`RULES` — the rule registry (see ``docs/ANALYSIS.md`` for the
  catalog);
* :func:`parse_expr` — parse paper notation back into ``Expr`` trees;
* :func:`verify_expr` / :func:`verify_plan` / :func:`verify_step` —
  the semantic verification tier (:mod:`repro.analysis.verify`): plan
  IR lowering plus race, deadlock, interval-bounds and fault-coverage
  passes.

Quickstart::

    from repro.analysis import analyze, parse_expr

    expr = parse_expr("64C1 o 2C1")        # mismatched intermediate pattern
    for diagnostic in analyze(expr):
        print(diagnostic.render())          # CT101 error: ...
"""

from ..contract import LINT_REPORT as LINT_SCHEMA, validate_lint_report
from .diagnostics import (
    Diagnostic,
    Severity,
    Span,
    has_errors,
    max_severity,
    render_report,
)
from .linter import analyze, analyze_plan, select_rules
from .parser import NotationError, parse_expr
from .rules import RULES, AnalysisContext, Finding, PlanContext, Rule, rule
from .verify import (
    PlanIR,
    VerifyResult,
    results_payload,
    validate_verify_report,
    verify_expr,
    verify_plan,
    verify_step,
)

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "Finding",
    "LINT_SCHEMA",
    "NotationError",
    "PlanContext",
    "PlanIR",
    "RULES",
    "Rule",
    "Severity",
    "Span",
    "VerifyResult",
    "analyze",
    "analyze_plan",
    "has_errors",
    "max_severity",
    "parse_expr",
    "render_report",
    "results_payload",
    "rule",
    "select_rules",
    "validate_lint_report",
    "validate_verify_report",
    "verify_expr",
    "verify_plan",
    "verify_step",
]
