"""Batched vectorized evaluation of many model queries at once.

The paper's headline artifacts are *grids* of estimate queries
(Tables 1-3, Figures 7/8), and serving "what if" traffic means
answering hundreds of estimates cheaply.  The scalar path answers one
query at a time: build an expression, walk its tree, fold the three
Section 3.3 rules, apply constraints.  This module answers a whole
list in a handful of numpy passes:

* queries are grouped by expression **shape** (the tree structure with
  leaves erased); every query in a group folds through identical
  operations, so the group evaluates as elementwise array math with
  one lane per query;
* parallel composition folds with :func:`numpy.minimum`, sequential
  composition accumulates reciprocals in the scalar evaluator's exact
  left-to-right order, and resource constraints apply as
  :func:`numpy.where` caps — each lane reproduces the scalar fold's
  IEEE-754 operation sequence, so results are **bit-identical** to
  :func:`repro.core.throughput.evaluate` (asserted by
  ``tests/core/test_batch.py``);
* lanes the vector path cannot express — a composition that fails
  validation, a missing calibration entry, a nonpositive leaf rate
  (the scalar evaluator's zero-throughput ``ModelError`` domain) —
  fall back to the scalar oracle one at a time, in input order, so
  they raise exactly what the equivalent Python loop would have
  raised.  This is the same envelope discipline as the memsim
  fastpath (:class:`~repro.memsim.fastpath.FastpathUnsupported`).

The same machinery solves the runtime's chunked stage pipelines for
many transfers at once (:func:`solve_pipeline_group`): lanes sharing a
pipeline *structure* (chunking and resource-sharing topology) advance
chunk by chunk as arrays, replicating
:meth:`repro.runtime.stages.StagePipeline.run`'s recurrence
elementwise.

No sweep calls this module: every sweep cell runs the scalar per-cell
path (:func:`repro.sweep.worker.run_cell`), which became faster than
the vectorized sweep engine once runtimes kept their priced transfers
and tables measured entries on first read.  The module stays because
the benchmark's layer profiler (``perfbench/layers.py``, layer
``model.batch``) wraps :func:`evaluate_many`, :func:`estimate_many`,
:func:`advise_many` and :func:`solve_pipeline_group` by name, and a
traced benchmark run fails if one is missing; it goes when that layer
does.

This module deliberately imports nothing from :mod:`repro.runtime` or
:mod:`repro.sweep` — it is pure core + numpy, and the higher layers
feed it plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import ThroughputTable
from .composition import Expr, Par, Seq, Term
from .constraints import ResourceConstraint
from .errors import CompositionError, ModelError
from .operations import OperationStyle
from .patterns import AccessPattern
from .throughput import evaluate

__all__ = [
    "BatchUnsupported",
    "BatchChoice",
    "evaluate_many",
    "estimate_many",
    "advise_many",
    "solve_pipeline_group",
    "expr_shape",
]

class BatchUnsupported(ModelError):
    """A query falls outside the vectorized path's envelope.

    Raised internally (and caught internally) to route individual
    lanes to the scalar oracle; it never escapes the public functions.
    Mirrors the fastpath discipline: the batch path refuses rather
    than approximates.
    """


# -- expression shape grouping -------------------------------------------------


def expr_shape(expr: Expr) -> Tuple:
    """The tree structure of an expression with leaves erased.

    Two expressions with equal shapes fold through an identical
    sequence of min / harmonic / lookup operations, differing only in
    leaf rates — exactly the property that lets them share one
    vectorized evaluation.
    """
    if isinstance(expr, Term):
        return ("T",)
    if isinstance(expr, Par):
        return ("P", tuple(expr_shape(part) for part in expr.parts))
    if isinstance(expr, Seq):
        return ("S", tuple(expr_shape(part) for part in expr.parts))
    raise BatchUnsupported(f"cannot batch expression node {expr!r}")


def _leaves(expr: Expr, out: List[Term]) -> None:
    """Collect leaf terms in depth-first order (the fold's gather order)."""
    if isinstance(expr, Term):
        out.append(expr)
        return
    if isinstance(expr, (Par, Seq)):
        for part in expr.parts:
            _leaves(part, out)
        return
    raise BatchUnsupported(f"cannot batch expression node {expr!r}")


def _fold(shape: Tuple, columns: List[np.ndarray], cursor: List[int]) -> np.ndarray:
    """Vectorized Section 3.3 fold over one shape group.

    ``columns[i]`` holds leaf ``i``'s rate across lanes (depth-first
    leaf order); ``cursor`` tracks consumption so nested folds pull
    the right columns.  Each operation mirrors the scalar evaluator:

    * ``min(children, key=mbps)`` becomes successive ``np.minimum``
      (exact: min of floats is order-independent);
    * ``sum(1.0 / child for child in children)`` becomes an explicit
      left-to-right accumulation from 0.0 (``0.0 + x == x`` exactly,
      so the association matches Python's ``sum``);
    * the harmonic rate is ``1.0 / inverse``, as in the scalar code.
    """
    tag = shape[0]
    if tag == "T":
        column = columns[cursor[0]]
        cursor[0] += 1
        return column
    children = [_fold(child, columns, cursor) for child in shape[1]]
    if tag == "P":
        rate = children[0]
        for child in children[1:]:
            rate = np.minimum(rate, child)
        return rate
    # Sequential: the scalar evaluator raises on a nonpositive child;
    # those lanes were already routed to the scalar oracle, so every
    # remaining lane divides by strictly positive rates.
    inverse = np.zeros_like(children[0])
    for child in children:
        inverse = inverse + 1.0 / child
    return 1.0 / inverse


@dataclass
class _ShapeGroup:
    shape: Tuple
    lanes: List[int]
    rate_rows: List[List[float]]


def evaluate_many(
    exprs: Sequence[Expr],
    table: ThroughputTable,
    constraints: Sequence[ResourceConstraint] = (),
    validate: bool = True,
) -> List[float]:
    """Constrained throughputs of many expressions under one table.

    Bit-identical to
    ``[evaluate(e, table, constraints, validate).mbps for e in exprs]``
    — including raising the first error that loop would raise —
    while folding shape-mates as array operations.
    """
    out: List[Optional[float]] = [None] * len(exprs)
    fallback: List[int] = []
    groups: Dict[Tuple, _ShapeGroup] = {}

    validated: Dict[Expr, bool] = {}
    gathered: Dict[Expr, Tuple[Tuple, List[float]]] = {}

    for index, expr in enumerate(exprs):
        try:
            if expr not in gathered:
                if validate and expr not in validated:
                    expr.validate()
                    validated[expr] = True
                shape = expr_shape(expr)
                terms: List[Term] = []
                _leaves(expr, terms)
                rates = [table.lookup(term.transfer) for term in terms]
                if any(rate <= 0.0 for rate in rates):
                    # The scalar evaluator's zero-throughput ModelError
                    # domain (or a legal nonpositive Par result): let
                    # the oracle decide, lane by lane.
                    raise BatchUnsupported("nonpositive leaf rate")
                gathered[expr] = (shape, rates)
            shape, rates = gathered[expr]
        except Exception:
            fallback.append(index)
            continue
        group = groups.setdefault(shape, _ShapeGroup(shape, [], []))
        group.lanes.append(index)
        group.rate_rows.append(rates)

    limits = [constraint.limit(table) for constraint in constraints]
    for group in groups.values():
        columns = [
            np.asarray(column, dtype=np.float64)
            for column in zip(*group.rate_rows)
        ]
        capped = _fold(group.shape, columns, [0])
        for limit in limits:
            capped = np.where(limit < capped, limit, capped)
        for lane, value in zip(group.lanes, capped):
            out[lane] = float(value)

    # Scalar oracle for the rest, in input order: the first failing
    # lane raises exactly what the plain loop's first failure would.
    for index in sorted(fallback):
        out[index] = evaluate(
            exprs[index], table, constraints=constraints, validate=validate
        ).mbps
    return [value for value in out if value is not None]


# -- model-level batched queries ----------------------------------------------

Query = Tuple[AccessPattern, AccessPattern, Union[OperationStyle, str]]


@dataclass(frozen=True)
class BatchChoice:
    """The batched advisor's pick for one ``xQy`` pair."""

    style: OperationStyle
    mbps: float


def estimate_many(model, queries: Sequence[Query]) -> List[float]:
    """Throughput estimates for many ``(x, y, style)`` queries.

    Bit-identical to
    ``[model.estimate(x, y, style).mbps for x, y, style in queries]``,
    including the error the loop's first failing query would raise.
    Duplicate queries are classified and built once.
    """
    exprs: List[Optional[Expr]] = []
    built: Dict[Tuple, Optional[Expr]] = {}
    for x, y, style in queries:
        key = (x, y, style if isinstance(style, str) else style.value)
        if key not in built:
            try:
                built[key] = model.build(x, y, style)
            except Exception:
                built[key] = None
        exprs.append(built[key])

    good = [expr for expr in exprs if expr is not None]
    values = iter(
        evaluate_many(good, model.table, constraints=tuple(model.constraints))
    )
    out: List[float] = []
    for expr, (x, y, style) in zip(exprs, queries):
        if expr is None:
            # Canonical error path: rebuild through the scalar facade.
            out.append(model.estimate(x, y, style).mbps)
        else:
            out.append(next(values))
    return out


def advise_many(
    model, pairs: Sequence[Tuple[AccessPattern, AccessPattern]]
) -> List[BatchChoice]:
    """Batched style advisor: the faster style for each ``xQy`` pair.

    Agrees with :meth:`repro.core.model.CopyTransferModel.choose` on
    both the winning style (ties broken in ``OperationStyle``
    declaration order, like the scalar advisor's ``max``) and the
    winning throughput, bit for bit.
    """
    feasible: List[Tuple[int, OperationStyle, Expr]] = []
    for index, (x, y) in enumerate(pairs):
        for style in OperationStyle:
            try:
                expr = model.build(x, y, style)
            except CompositionError:
                continue
            feasible.append((index, style, expr))
    values = evaluate_many(
        [expr for __, __, expr in feasible],
        model.table,
        constraints=tuple(model.constraints),
    )
    best: Dict[int, BatchChoice] = {}
    for (index, style, __), mbps in zip(feasible, values):
        incumbent = best.get(index)
        if incumbent is None or mbps > incumbent.mbps:
            best[index] = BatchChoice(style, mbps)
    choices: List[BatchChoice] = []
    for index, (x, y) in enumerate(pairs):
        if index not in best:
            raise ModelError(f"no feasible implementation of {x}Q{y}")
        choices.append(best[index])
    return choices


# -- vectorized stage pipelines ------------------------------------------------


@dataclass(frozen=True)
class _PhaseStructure:
    """Shared structure of one phase across a lane group.

    ``resource_slots[i]`` maps stage ``i`` to a dense resource index
    (first-occurrence order), so stages sharing a slot serialize the
    way same-named resources do in the scalar pipeline.
    """

    chunk_bytes: int
    resource_slots: Tuple[int, ...]


def solve_pipeline_group(
    nbytes: int,
    structures: Sequence[Tuple[int, Tuple[int, ...]]],
    rates: Sequence[np.ndarray],
    overheads: Sequence[np.ndarray],
    startups: Sequence[np.ndarray],
) -> np.ndarray:
    """Total pipeline nanoseconds for a group of same-structure lanes.

    Args:
        nbytes: Payload size (shared by the group — part of its
            structure signature).
        structures: Per phase, ``(chunk_bytes, resource_slots)`` where
            ``resource_slots[i]`` is stage ``i``'s dense resource
            index within the phase.
        rates / overheads / startups: Per phase, float64 arrays of
            shape ``(n_stages, n_lanes)`` with each stage's
            ``rate_mbps``, ``chunk_overhead_ns`` and ``startup_ns``
            per lane.

    Returns:
        Shape ``(n_lanes,)`` array: the sum over phases of each
        phase's pipeline finish time, accumulated in phase order —
        exactly the scalar runtime's ``total_ns += result.ns`` loop.

    The inner recurrence replicates
    :meth:`repro.runtime.stages.StagePipeline.run` operation for
    operation (max, then ``size/rate*1000.0 + overhead`` with the
    startup added after, per chunk per stage), so each lane's result
    is bit-identical to running its stages through the scalar
    pipeline.
    """
    n_lanes = rates[0].shape[1] if rates else 0
    total = np.zeros(n_lanes, dtype=np.float64)
    for (chunk_bytes, slots), phase_rates, phase_overheads, phase_startups in zip(
        structures, rates, overheads, startups
    ):
        full_chunks, tail = divmod(nbytes, chunk_bytes)
        sizes = [chunk_bytes] * full_chunks + ([tail] if tail else [])
        n_slots = max(slots) + 1
        free = np.zeros((n_slots, n_lanes), dtype=np.float64)
        finish = np.zeros(n_lanes, dtype=np.float64)
        for chunk_index, size in enumerate(sizes):
            ready = np.zeros(n_lanes, dtype=np.float64)
            for position, slot in enumerate(slots):
                start = np.maximum(ready, free[slot])
                duration = size / phase_rates[position] * 1000.0
                duration = duration + phase_overheads[position]
                if chunk_index == 0:
                    duration = duration + phase_startups[position]
                ready = start + duration
                free[slot] = ready
            finish = ready
        total = total + finish
    return total
