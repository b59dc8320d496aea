"""Per-process sweep execution: memoized, deterministic.

Every sweep cell runs through :func:`run_cell`, in the calling process
for an in-process sweep and in each pool worker for a pooled one.  The
win over the naive per-cell loop is **memo sharing**: the cells a
process runs share a worker-local memo of machines, calibration
tables, runtimes and node harnesses, so the expensive shared work —
deriving a machine's simulated calibration table — is paid once per
process instead of once per cell.  A runtime keeps the transfers and
step patterns it has priced, so the collective selector prices on the
paper-rate runtime its cells then run on.  A memo holding a simulated
table is keyed on the memsim engine selection
(:func:`repro.memsim.node.selected_engine`), as the calibration cache
(:mod:`repro.caching`) is; through the cache's disk layer each
distinct table is simulated at most once per cache-cold run.

:func:`run_cells` is the one execution loop: :func:`run_cell` per cell,
with a failing cell raised as a :class:`SweepError` naming it.
Nothing here may affect *values*: every memoized object is a pure
function of its key, so memo-sharing, fresh-per-cell, in-process and
pooled execution produce bit-identical rows (asserted by
``tests/properties/test_sweep_properties.py`` and
``tests/properties/test_sweep_parity.py``).

The module is import-safe for both ``fork`` and ``spawn`` start
methods: all state lives in module-level dictionaries rebuilt lazily,
and :func:`init_worker` (the pool initializer) clears them and pins
the relevant environment so a spawned worker matches its parent.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..caching import CACHE_DIR_ENV, CACHE_ENV
from ..core.operations import OperationStyle
from ..core.patterns import AccessPattern
from ..memsim.node import ENGINE_ENV, selected_engine
from .spec import NOMINAL_SEED, SweepCell, SweepError

__all__ = [
    "init_worker",
    "machine_by_key",
    "pinned_environment",
    "reset_memos",
    "run_cells",
    "run_shard",
]

#: Environment variables a worker must share with its parent for the
#: run to be reproducible (engine selection and cache configuration).
_PINNED_ENV = (ENGINE_ENV, CACHE_ENV, CACHE_DIR_ENV)

#: Set when :func:`init_worker` failed in this process.  The
#: initializer itself must never raise: ``concurrent.futures`` would
#: mark the pool broken and every child would dump a raw traceback to
#: the parent's stderr.  Instead the failure is recorded here and
#: :func:`run_shard` surfaces it as a picklable :class:`SweepError`,
#: which the runner and CLI report as the standard one-line error.
_INIT_ERROR: Optional[str] = None

# Worker-local memos (pure caches; see module docstring).
_machines: Dict[str, Any] = {}
_models: Dict[Tuple[str, str, str], Any] = {}
_runtimes: Dict[Tuple[str, str, str, str], Any] = {}
_tables: Dict[Tuple[str, str, str], Any] = {}
_nodes: Dict[Tuple[str, int], Any] = {}


def machine_by_key(name: str):
    """Resolve a registry key ("t3d") to a memoized Machine."""
    if name not in _machines:
        from ..machines.registry import MACHINE_FACTORIES

        if name not in MACHINE_FACTORIES:
            raise SweepError(f"unknown machine {name!r}")
        _machines[name] = MACHINE_FACTORIES[name]()
    return _machines[name]


def reset_memos() -> None:
    """Drop every worker-local memo (benchmarks call this for honesty:
    a forked worker must not inherit tables its parent already built)."""
    _machines.clear()
    _models.clear()
    _runtimes.clear()
    _tables.clear()
    _nodes.clear()


def pinned_environment() -> Dict[str, str]:
    """The parent-side environment snapshot shipped to workers."""
    return {
        name: os.environ[name] for name in _PINNED_ENV if name in os.environ
    }


def init_worker(environment: Dict[str, str]) -> None:
    """Pool initializer: pin the environment, start from cold memos.

    Never raises — a raising pool initializer breaks the whole pool
    and spews per-child tracebacks.  A failure is recorded in
    :data:`_INIT_ERROR` and reported by the first :func:`run_shard`
    call as a one-line :class:`SweepError` instead.
    """
    global _INIT_ERROR
    _INIT_ERROR = None
    try:
        for name in _PINNED_ENV:
            os.environ.pop(name, None)
        os.environ.update(environment)
        reset_memos()
    except Exception as exc:
        _INIT_ERROR = f"{type(exc).__name__}: {exc}"


# -- shared building blocks ---------------------------------------------------


def _pattern(key: str) -> AccessPattern:
    return AccessPattern.parse(key)


def _table(machine_name: str, rates: str):
    key = (machine_name, rates, selected_engine())
    if key not in _tables:
        machine = machine_by_key(machine_name)
        _tables[key] = (
            machine.paper_table() if rates == "paper"
            else machine.simulated_table()
        )
    return _tables[key]


def _runtime(machine_name: str, style: str, rates: str):
    """A memoized CommRuntime under measure_q's library conventions."""
    key = (machine_name, style, rates, selected_engine())
    if key not in _runtimes:
        from ..runtime.engine import CommRuntime
        from ..runtime.libraries import lowlevel_profile, packing_profile

        machine = machine_by_key(machine_name)
        library = (
            packing_profile()
            if OperationStyle(style) is OperationStyle.BUFFER_PACKING
            else lowlevel_profile()
        )
        _runtimes[key] = CommRuntime(
            machine, library=library, rates=rates,
            table=_table(machine_name, rates),
        )
    return _runtimes[key]


def _model(machine_name: str, source: str):
    key = (machine_name, source, selected_engine())
    if key not in _models:
        _models[key] = machine_by_key(machine_name).model(source=source)
    return _models[key]


def _node(machine_name: str, nwords: int):
    key = (machine_name, nwords)
    if key not in _nodes:
        _nodes[key] = machine_by_key(machine_name).node_memory(nwords=nwords)
    return _nodes[key]


# -- cell execution -----------------------------------------------------------


def run_cell(cell: SweepCell) -> Dict[str, Any]:
    """Execute one cell and return its JSON-plain result row."""
    if cell.kind == "calibrate":
        return _run_calibrate_cell(cell)
    if cell.kind == "transfer":
        return _run_transfer_cell(cell)
    if cell.kind == "collective":
        return _run_collective_cell(cell)
    raise SweepError(f"unknown cell kind {cell.kind!r}")


def _run_transfer_cell(cell: SweepCell) -> Dict[str, Any]:
    machine = machine_by_key(cell.machine)
    x = _pattern(cell.x)
    y = _pattern(cell.y)
    style = OperationStyle(cell.style)
    model_mbps = _model(cell.machine, cell.model_source).estimate(
        x, y, style
    ).mbps
    runtime = _runtime(cell.machine, cell.style, cell.rates)
    congestion = None if cell.congestion < 0 else cell.congestion
    if cell.duplex == "auto":
        duplex = not machine.quirks.measures_simplex
    else:
        duplex = cell.duplex == "on"

    if cell.seed == NOMINAL_SEED:
        sample = runtime.transfer(
            x, y, cell.size, style=style, congestion=congestion,
            duplex=duplex,
        )
    else:
        from ..faults import FaultPlan, injecting

        with injecting(FaultPlan.chaos(cell.seed)):
            sample = runtime.transfer(
                x, y, cell.size, style=style, congestion=congestion,
                duplex=duplex,
            )
    row: Dict[str, Any] = {
        "id": cell.cell_id,
        "model_mbps": model_mbps,
        "mbps": sample.mbps,
        "ns": sample.ns,
        "style": sample.style.value,
        "retries": sample.retries,
    }
    if sample.degraded is not None:
        row["degraded"] = sample.degraded.to_dict()
    return row


def _run_collective_cell(cell: SweepCell) -> Dict[str, Any]:
    from ..runtime.collectives import run_collective

    machine = machine_by_key(cell.machine)
    if cell.style == "auto":
        from ..compiler.advisor import choose_algorithm

        advice = choose_algorithm(
            cell.op, machine, cell.size, cell.nodes,
            runtime=_runtime(cell.machine, "chained", "paper"),
        )
        algorithm = advice.algorithm
    else:
        algorithm = cell.style
    runtime = _runtime(cell.machine, "chained", cell.rates)

    def execute():
        return run_collective(
            runtime, cell.op, algorithm, cell.nodes, cell.size,
            x=cell.x, y=cell.y,
        )

    if cell.seed == NOMINAL_SEED:
        result = execute()
    else:
        from ..faults import FaultPlan, injecting

        with injecting(FaultPlan.chaos(cell.seed)):
            result = execute()
    return {
        "id": cell.cell_id,
        "op": cell.op,
        "algorithm": result.algorithm,
        "nodes": result.nodes,
        "rounds": len(result.rounds),
        "ns": result.total_ns,
        "mbps": result.per_node_mbps,
        "hierarchical": result.hierarchical,
    }


def _run_calibrate_cell(cell: SweepCell) -> Dict[str, Any]:
    from ..machines.measure import measure_entry

    machine = machine_by_key(cell.machine)
    congestion = None if cell.congestion < 0 else cell.congestion
    rate = measure_entry(
        machine,
        _node(cell.machine, cell.size),
        (cell.style, cell.x, cell.y),
        congestion=congestion,
    )
    return {"id": cell.cell_id, "mbps": rate}


def run_cells(cells: Sequence[SweepCell]) -> List[Dict[str, Any]]:
    """Run ``cells`` in order on this process's memos, one row each.

    A failing cell aborts the run with a :class:`SweepError` naming it
    — a silently absent cell must never reach the merge.
    """
    rows: List[Dict[str, Any]] = []
    for cell in cells:
        try:
            rows.append(run_cell(cell))
        except SweepError:
            raise
        except Exception as exc:
            raise SweepError(f"cell {cell.cell_id!r} failed: {exc}") from exc
    return rows


def run_shard(
    payload: Tuple[int, Tuple[Tuple[int, Dict[str, Any]], ...]],
) -> Tuple[int, List[Tuple[int, Dict[str, Any]]]]:
    """Execute one shard: ``(shard_index, ((cell_index, cell_dict), ...))``.

    Returns ``(shard_index, [(cell_index, row), ...])``.  Cell dicts
    (not :class:`SweepCell` objects) cross the process boundary so a
    spawned worker never depends on pickling implementation details.
    A failing cell aborts the whole shard (see :func:`run_cells`).
    """
    shard_index, indexed_cells = payload
    if _INIT_ERROR is not None:
        raise SweepError(
            f"sweep worker initialization failed: {_INIT_ERROR}"
        )
    rows = run_cells(
        [SweepCell.from_dict(cell_dict) for __, cell_dict in indexed_cells]
    )
    return shard_index, [
        (cell_index, row)
        for (cell_index, __), row in zip(indexed_cells, rows)
    ]
