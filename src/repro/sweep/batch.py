"""Batched sweep execution: whole grids as vectorized numpy passes.

The scalar oracle (:func:`repro.sweep.worker.run_cell`) answers one
cell at a time; even with memoized tables the per-cell orchestration —
model walk, pipeline simulation chunk by chunk in Python — dominates a
grid run.  This module evaluates a list of cells **as a batch**, and
it is how every sweep runs: :func:`repro.sweep.run_sweep` hands it the
whole grid in-process, or each shard inside a pool worker.

* nominal transfer cells are grouped by ``(machine, model source)``
  for the model estimates — distinct ``(x, y, style)`` queries are
  classified once and folded through
  :func:`repro.core.batch.estimate_many`'s vectorized evaluator — and
  by **pipeline structure** (payload size, per-phase chunking and
  resource-sharing topology) for the measured side, which advances
  every same-structure transfer through the chunk recurrence as
  elementwise array math (:func:`repro.core.batch.solve_pipeline_group`);
* calibrate cells are grouped per ``(machine, stream length,
  congestion)`` and measured against one shared
  :class:`~repro.memsim.node.NodeMemorySystem` harness through
  :func:`repro.machines.measure.measure_entries`, so the engine-keyed
  kernel memo deduplicates repeated entries;
* everything else — fault-seeded cells, runs under an ambient
  :func:`repro.faults.injecting` plan, and any shape the vector path
  cannot express (a composition the runtime rejects, a missing
  calibration entry) — **falls back per cell to the scalar oracle**,
  in canonical order, so errors and results are exactly those of the
  scalar path.  Same envelope discipline as the memsim fastpath.

Rows are bit-identical to the scalar oracle's (asserted by
``tests/properties/test_batch_parity.py`` and gated by
``scripts/bench_speed.py`` on the figure7 grid): every floating-point
operation in the vectorized fold replicates the scalar code's IEEE-754
operation order, and the fallback path *is* the scalar code.

With a tracer installed the batch engine counts ``batch.cells`` (cells
it executed), ``batch.groups`` (vectorized/memo-shared groups formed)
and ``batch.fallbacks`` (cells routed to the scalar oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import batch as core_batch
from ..core.operations import OperationStyle
from ..core.patterns import CONTIGUOUS, AccessPattern
from ..core.transfers import TransferKind
from ..faults.spec import current_fault_plan
from ..trace.tracer import current_tracer
from . import worker
from .spec import NOMINAL_SEED, SweepCell, SweepError

__all__ = ["BatchReport", "run_cells_batched"]

#: Sentinel marking a model-estimate combo the batch path must not
#: serve (the scalar oracle will raise the canonical error).
_BAD = object()


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one batched execution.

    ``rows`` aligns index-for-index with the input cells; ``groups``
    counts vectorized/memo-shared groups formed; ``fallbacks`` counts
    cells that ran through the scalar oracle instead of a group.
    """

    rows: Tuple[Dict[str, Any], ...]
    groups: int
    fallbacks: int

    @property
    def cells(self) -> int:
        return len(self.rows)


@dataclass
class _Lane:
    """One vectorizable transfer cell, fully prepared."""

    index: int
    cell: SweepCell
    runtime: Any
    phases: List[Any]
    style: OperationStyle
    duplex: bool
    estimate: float


def _run_cell_checked(cell: SweepCell) -> Dict[str, Any]:
    """The scalar oracle with the shard loop's canonical error wrap."""
    try:
        return worker.run_cell(cell)
    except SweepError:
        raise
    except Exception as exc:
        raise SweepError(f"cell {cell.cell_id!r} failed: {exc}") from exc


def _resource_slots(phase) -> Tuple[int, ...]:
    """Dense first-occurrence resource indices for one phase's stages."""
    order: Dict[str, int] = {}
    slots = []
    for stage in phase.stages:
        if stage.resource not in order:
            order[stage.resource] = len(order)
        slots.append(order[stage.resource])
    return tuple(slots)


def _estimates(
    vector: List[Tuple[int, SweepCell]],
) -> Dict[Tuple[str, str, str, str, str], Any]:
    """Model estimates for every distinct transfer combo, batched.

    Combos whose estimate raises are marked :data:`_BAD`; their lanes
    fall back to the scalar oracle, which raises the canonical error.
    """
    by_model: Dict[Tuple[str, str], List[Tuple[str, str, str]]] = {}
    for __, cell in vector:
        key = (cell.machine, cell.model_source)
        combo = (cell.x, cell.y, cell.style)
        combos = by_model.setdefault(key, [])
        if combo not in combos:
            combos.append(combo)

    estimates: Dict[Tuple[str, str, str, str, str], Any] = {}
    for (machine_name, source), combos in by_model.items():
        # Any failure here — unknown machine, unparsable pattern,
        # estimate error — marks the combo _BAD so its lanes take the
        # scalar fallback in cell order, raising the canonical error.
        parsed: List[Any] = []
        try:
            model = worker._model(machine_name, source)
        except Exception:
            model = None
        for x, y, style in combos:
            if model is None:
                parsed.append(_BAD)
                continue
            try:
                parsed.append(
                    (
                        AccessPattern.parse(x),
                        AccessPattern.parse(y),
                        OperationStyle(style),
                    )
                )
            except Exception:
                parsed.append(_BAD)
        queries = [combo for combo in parsed if combo is not _BAD]
        try:
            good: List[Any] = core_batch.estimate_many(model, queries)
        except Exception:
            # Localize: rerun each combo through the scalar facade so
            # only the genuinely failing ones fall back.
            good = []
            for x, y, style in queries:
                try:
                    good.append(model.estimate(x, y, style).mbps)
                except Exception:
                    good.append(_BAD)
        good_values = iter(good)
        values = [
            combo if combo is _BAD else next(good_values)
            for combo in parsed
        ]
        for (x, y, style), value in zip(combos, values):
            estimates[(machine_name, source, x, y, style)] = value
    return estimates


def _prepare_lane(
    index: int,
    cell: SweepCell,
    estimates: Dict[Tuple[str, str, str, str, str], Any],
) -> _Lane:
    """Build a transfer cell's runtime view; raises -> scalar fallback."""
    estimate = estimates.get(
        (cell.machine, cell.model_source, cell.x, cell.y, cell.style), _BAD
    )
    if estimate is _BAD:
        raise core_batch.BatchUnsupported("model estimate unsupported")
    machine = worker.machine_by_key(cell.machine)
    x = AccessPattern.parse(cell.x)
    y = AccessPattern.parse(cell.y)
    style = OperationStyle(cell.style)
    runtime = worker._runtime(cell.machine, cell.style, cell.rates)
    congestion = None if cell.congestion < 0 else cell.congestion
    if cell.duplex == "auto":
        duplex = not machine.quirks.measures_simplex
    else:
        duplex = cell.duplex == "on"
    phases = runtime.phases(
        x, y, cell.size, style, congestion=congestion, duplex=duplex
    )
    return _Lane(index, cell, runtime, phases, style, duplex, estimate)


def _solve_group(nbytes: int, lanes: List[_Lane]) -> List[Dict[str, Any]]:
    """Rows for one structure group, replicating the scalar runtime math.

    Follows ``CommRuntime._execute`` operation for operation on the
    nominal (fault-free) path: pipeline phases in order, library
    overhead, the efficiency derate, the duplex memory cap, and the
    final ``ns`` recomputation from the capped rate.
    """
    n = len(lanes)
    n_phases = len(lanes[0].phases)
    structures = []
    rates: List[np.ndarray] = []
    overheads: List[np.ndarray] = []
    startups: List[np.ndarray] = []
    for phase_index in range(n_phases):
        first = lanes[0].phases[phase_index]
        slots = _resource_slots(first)
        structures.append((first.chunk_bytes, slots))
        n_stages = len(first.stages)
        rate = np.empty((n_stages, n), dtype=np.float64)
        overhead = np.empty((n_stages, n), dtype=np.float64)
        startup = np.empty((n_stages, n), dtype=np.float64)
        for lane_index, lane in enumerate(lanes):
            for stage_index, stage in enumerate(
                lane.phases[phase_index].stages
            ):
                rate[stage_index, lane_index] = stage.rate_mbps
                overhead[stage_index, lane_index] = stage.chunk_overhead_ns
                startup[stage_index, lane_index] = stage.startup_ns
        rates.append(rate)
        overheads.append(overhead)
        startups.append(startup)

    pipeline_ns = core_batch.solve_pipeline_group(
        nbytes, structures, rates, overheads, startups
    )

    library_ns = np.empty(n, dtype=np.float64)
    efficiency = np.empty(n, dtype=np.float64)
    cap = np.full(n, np.inf, dtype=np.float64)
    for lane_index, lane in enumerate(lanes):
        library_ns[lane_index] = lane.runtime.library.overhead_ns(nbytes)
        efficiency[lane_index] = (
            lane.runtime.machine.quirks.runtime_efficiency
        )
        if lane.duplex:
            cap[lane_index] = (
                lane.runtime.table.lookup_kind(
                    TransferKind.COPY, CONTIGUOUS, CONTIGUOUS
                )
                / lane.runtime.machine.quirks.duplex_penalty
            )

    total_ns = pipeline_ns + library_ns
    mbps = nbytes / total_ns * 1000.0
    mbps = mbps * efficiency
    mbps = np.where(mbps > cap, cap, mbps)
    ns = nbytes / mbps * 1000.0

    rows = []
    for lane_index, lane in enumerate(lanes):
        rows.append(
            {
                "id": lane.cell.cell_id,
                "model_mbps": lane.estimate,
                "mbps": float(mbps[lane_index]),
                "ns": float(ns[lane_index]),
                "style": lane.style.value,
                "retries": 0,
            }
        )
    return rows


def _structure_signature(lane: _Lane) -> Tuple:
    """What two lanes must share to advance through one vector group."""
    return (
        lane.cell.size,
        tuple(
            (phase.chunk_bytes, len(phase.stages), _resource_slots(phase))
            for phase in lane.phases
        ),
    )


def run_cells_batched(cells: Sequence[SweepCell]) -> BatchReport:
    """Execute a list of sweep cells through the batch engine.

    Returns rows aligned index-for-index with ``cells``, bit-identical
    to ``[run_cell(c) for c in cells]`` — including raising the
    canonical :class:`~repro.sweep.spec.SweepError` of the first cell
    the scalar loop would have failed on.
    """
    rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    fallback: List[int] = []
    groups = 0

    plan = current_fault_plan()
    ambient_faults = plan is not None and not plan.is_empty()

    vector: List[Tuple[int, SweepCell]] = []
    calibrate: List[Tuple[int, SweepCell]] = []
    for index, cell in enumerate(cells):
        if ambient_faults:
            # An ambient plan charges faults the vector path does not
            # model; the scalar oracle handles every cell.
            fallback.append(index)
        elif cell.kind == "calibrate":
            calibrate.append((index, cell))
        elif cell.kind == "transfer" and cell.seed == NOMINAL_SEED:
            vector.append((index, cell))
        else:
            fallback.append(index)

    # -- calibrate cells: one shared node harness per group ---------------
    cal_groups: Dict[Tuple[str, int, int], List[Tuple[int, SweepCell]]] = {}
    for index, cell in calibrate:
        key = (cell.machine, cell.size, cell.congestion)
        cal_groups.setdefault(key, []).append((index, cell))
    for (machine_name, nwords, congestion), members in cal_groups.items():
        from ..machines.measure import measure_entries

        try:
            machine = worker.machine_by_key(machine_name)
            node = worker._node(machine_name, nwords)
            values = measure_entries(
                machine,
                node,
                [(cell.style, cell.x, cell.y) for __, cell in members],
                congestion=None if congestion < 0 else congestion,
            )
        except Exception:
            fallback.extend(index for index, __ in members)
            continue
        groups += 1
        for (index, cell), value in zip(members, values):
            rows[index] = {"id": cell.cell_id, "mbps": value}

    # -- transfer cells: vectorized estimates + pipeline groups -----------
    estimates = _estimates(vector)
    groups += len({(cell.machine, cell.model_source) for __, cell in vector})

    structure_groups: Dict[Tuple, List[_Lane]] = {}
    for index, cell in vector:
        try:
            lane = _prepare_lane(index, cell, estimates)
        except Exception:
            fallback.append(index)
            continue
        structure_groups.setdefault(
            _structure_signature(lane), []
        ).append(lane)

    for signature, lanes in structure_groups.items():
        try:
            group_rows = _solve_group(signature[0], lanes)
        except Exception:
            fallback.extend(lane.index for lane in lanes)
            continue
        groups += 1
        for lane, row in zip(lanes, group_rows):
            rows[lane.index] = row

    # -- scalar oracle for everything else, in canonical order ------------
    for index in sorted(fallback):
        rows[index] = _run_cell_checked(cells[index])

    missing = [cells[i].cell_id for i, row in enumerate(rows) if row is None]
    if missing:
        raise SweepError(
            f"batch engine produced no row for {len(missing)} cell(s) "
            f"(first: {missing[0]!r})"
        )

    tracer = current_tracer()
    if tracer is not None:
        tracer.count("batch.cells", len(cells))
        tracer.count("batch.groups", groups)
        tracer.count("batch.fallbacks", len(fallback))

    return BatchReport(
        rows=tuple(rows),  # type: ignore[arg-type]
        groups=groups,
        fallbacks=len(fallback),
    )
