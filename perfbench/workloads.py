"""The benchmark's workloads: what each builds, runs and checks.

Every workload drives one layer stack through its default public call
(no ``engine=`` or ``workers=`` argument), so the benchmark measures
the path a user gets.  A workload has three parts:

* ``setup(seed)`` — construction, timed into ``setup_s``;
* ``run(state)`` — the timed region; its output cells give
  ``cells_per_s``;
* ``check(output)`` — untimed; returns ``(attempted, failed)`` over
  the output cells, comparing against committed goldens or the
  program's own invariants.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Tuple

from repro.bench.experiments import (
    figure7,
    figure8,
    machine_grid,
    table1,
    table2,
    table3,
)
from repro.bench.goldens import compare_values, load_golden
from repro.load import (
    LoadEngine,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    validate_load_report,
)
from repro.machines import paragon, t3d
from repro.machines.registry import MACHINE_FACTORIES
import repro.runtime.collectives as collectives_module
import repro.sweep as sweep_module

#: Simulated horizon of one load-steady repetition (0.5 s of traffic),
#: as in the load section of ``scripts/bench_speed.py``.
LOAD_HORIZON_NS = 5e8


class Workload:
    """Base: a named workload with the reason it was chosen."""

    name = ""
    why = ""

    def setup(self, seed: int) -> Any:
        return None

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def cells(self, output: Any) -> int:
        raise NotImplementedError

    def check(self, output: Any) -> Tuple[int, int]:
        raise NotImplementedError

    def counters(self, output: Any) -> Dict[str, float]:
        """Per-layer counters the program reports in its output."""
        return {}

    def notes(self, output: Any) -> Dict[str, Tuple[float, str]]:
        """Extra figures printed beside the metrics (not gated)."""
        return {}


def _grid_cells(grids: Dict[str, Dict[str, Dict[str, float]]]) -> int:
    """(pattern, style) cells over all grids; each carries two values."""
    return sum(
        len(entries) // 2 for grid in grids.values() for entries in grid.values()
    )


def _check_grids(grids: Dict[str, Dict[str, Dict[str, float]]]) -> Tuple[int, int]:
    """Compare each grid with its golden; a cell fails if any value drifts."""
    attempted = failed = 0
    for golden_name, grid in grids.items():
        values = {
            f"{pattern}/{entry}": rate
            for pattern, entries in grid.items()
            for entry, rate in entries.items()
        }
        golden = load_golden(golden_name)
        expected_cells = {key.rsplit(" ", 1)[0] for key in golden["values"]}
        bad_cells = {
            key.rsplit(" ", 1)[0] for key, __ in compare_values(golden, values)
        }
        attempted += len(expected_cells | bad_cells)
        failed += len(bad_cells)
    return attempted, failed


class PaperFigures(Workload):
    name = "paper-figures"
    why = (
        "cold Figure 7 (T3D) and Figure 8 (Paragon): every kernel on the "
        "fast memsim path, indexed stream generation most of the time"
    )

    def run(self, state: Any) -> Dict[str, Any]:
        return {"figure7": figure7(), "figure8": figure8()}

    def cells(self, output: Dict[str, Any]) -> int:
        return _grid_cells(output)

    def check(self, output: Dict[str, Any]) -> Tuple[int, int]:
        return _check_grids(output)

    def notes(self, output: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        return {"paper_rel_error": (paper_rel_error(), "1")}


def paper_rel_error() -> float:
    """Median |simulated/published - 1| over Tables 1-3, T3D and Paragon.

    Reads the calibration tables the timed region left in the cache,
    so it simulates nothing when called after a paper-figures run.
    """
    errors = [
        abs(row.ours / row.paper - 1.0)
        for machine in (t3d(), paragon())
        for table in (table1, table2, table3)
        for row in table(machine)
        if row.paper
    ]
    return statistics.median(errors)


class ModernFigures(Workload):
    name = "modern-figures"
    why = (
        "cold Figure 7 grid on xe and cluster: kernels fall back to the "
        "scalar oracle, so a wider fast path shows here"
    )

    def run(self, state: Any) -> Dict[str, Any]:
        return {
            "figure7_xe": machine_grid("xe"),
            "figure7_cluster": machine_grid("cluster"),
        }

    def cells(self, output: Dict[str, Any]) -> int:
        return _grid_cells(output)

    def check(self, output: Dict[str, Any]) -> Tuple[int, int]:
        return _check_grids(output)


class Collectives64(Workload):
    name = "collectives-64"
    why = (
        "64-node collectives on cluster and xe with paper rates: runtime, "
        "netsim and collectives only, never memsim"
    )

    def setup(self, seed: int) -> Any:
        return sweep_module.collectives_spec(nodes=(64,))

    def run(self, spec: Any) -> Tuple[Any, List[Tuple[str, Any]]]:
        # Every collective the sweep prices is kept for the phase-sum
        # check; recording one reference per call costs microseconds
        # against a run of about a second.
        priced: List[Tuple[str, Any]] = []
        run_collective = collectives_module.run_collective

        def recorded(runtime: Any, *args: Any, **kwargs: Any) -> Any:
            result = run_collective(runtime, *args, **kwargs)
            priced.append((runtime.machine.name, result))
            return result

        collectives_module.run_collective = recorded
        try:
            result = sweep_module.run_sweep(spec)
        finally:
            collectives_module.run_collective = run_collective
        return result, priced

    def cells(self, output: Tuple[Any, Any]) -> int:
        return len(output[0].rows)

    def check(self, output: Tuple[Any, Any]) -> Tuple[int, int]:
        result, priced = output
        machine_names = {
            key: MACHINE_FACTORIES[key]().name for key in result.spec.machines
        }
        totals: Dict[Tuple, List[float]] = {}
        broken = set()
        for machine_name, run in priced:
            key = (
                machine_name, run.op, run.algorithm, run.nodes, run.nbytes,
                run.hierarchical,
            )
            totals.setdefault(key, []).append(run.total_ns)
            phase_sum = (
                run.intra_gather_ns + math.fsum(run.round_ns)
                + run.intra_scatter_ns
            )
            if run.total_ns != phase_sum:
                broken.add(key)
        failed = 0
        matched = set()
        for cell, row in zip(result.cells, result.rows):
            key = (
                machine_names[cell.machine], row["op"], row["algorithm"],
                row["nodes"], cell.size, row["hierarchical"],
            )
            matched.add(key)
            if (
                row["nodes"] != 64
                or key in broken
                or row["ns"] not in totals.get(key, ())
            ):
                failed += 1
        # Candidates the selector priced but no row reports are checked
        # for the phase-sum invariant too.
        extra = set(totals) - matched
        return len(result.rows) + len(extra), failed + len(extra & broken)

    def counters(self, output: Tuple[Any, Any]) -> Dict[str, float]:
        stats = output[0].stats
        cells = stats["cells"]
        batched = cells - stats.get("batch_fallbacks", cells)
        return {
            "sweep.cells": cells,
            "sweep.batch_fallback_ratio": 1.0 - batched / cells,
        }


#: The steady bench profile: 16 T3D nodes, 50k req/s open loop, half
#: 4 KiB contiguous and half 64 KiB stride-64 requests, no protection.
LOAD_PROFILE = LoadProfile(
    name="bench",
    nodes=16,
    open_loops=(
        OpenLoopSpec(
            name="bench",
            rate_per_s=50_000.0,
            templates=(
                RequestTemplate("small", nbytes=4096),
                RequestTemplate("large", y="64", nbytes=65536),
            ),
        ),
    ),
)


class LoadSteady(Workload):
    name = "load-steady"
    why = (
        "open-loop Poisson load on 16 T3D nodes, protection off: event loop "
        "and stations; calibration falls into setup"
    )

    def setup(self, seed: int) -> LoadEngine:
        return LoadEngine(LOAD_PROFILE, seed=seed)

    def run(self, engine: LoadEngine) -> Any:
        return engine.run(LOAD_HORIZON_NS)

    def cells(self, output: Any) -> int:
        return output.completed

    def check(self, output: Any) -> Tuple[int, int]:
        errors = validate_load_report(output.to_dict())
        if errors:
            return output.offered, output.offered
        return output.offered, output.offered - output.completed

    def counters(self, output: Any) -> Dict[str, float]:
        return {
            "load.events": output.stats["events"],
            "load.requests": output.completed,
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        PaperFigures(), ModernFigures(), Collectives64(), LoadSteady()
    )
}
