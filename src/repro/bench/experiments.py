"""Regeneration code for every table and figure in the paper.

Each function rebuilds one experiment from the library's own machinery
(simulators, model, runtime, kernels) and returns paper-vs-ours
:class:`~repro.bench.reporting.Comparison` rows (for tables with
printed numbers) or the raw series (for figures read off charts).
The ``benchmarks/`` tree calls these and asserts the shape criteria.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from .. import sweep
from ..core.operations import OperationStyle
from ..core.patterns import CONTIGUOUS, AccessPattern, strided
from ..machines import paragon, t3d
from ..machines.base import Machine
from ..netsim.network import FramingMode
from ..runtime.engine import CommRuntime, measure_q
from ..runtime.libraries import lowlevel_profile, pvm_profile
from . import paperdata
from .reporting import Comparison

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure4",
    "figure7",
    "figure8",
    "collective_table",
    "machine_grid",
    "section341",
    "section51",
    "table5",
    "table6",
    "PATTERN_GRID",
]

#: The x/y pattern grid of Figures 7 and 8 (both axes of each chart),
#: parsed from the sweep preset the figures run.
PATTERN_GRID: List[Tuple[str, AccessPattern, AccessPattern]] = [
    (f"{x}Q{y}", AccessPattern.parse(x), AccessPattern.parse(y))
    for x, y in sweep.GRID_PAIRS
]

#: Message size used for point-to-point "measured" comparisons.
MEASURE_BYTES = sweep.GRID_BYTES


def _simulated(machine: Machine) -> Dict[str, float]:
    return machine.simulated_table().to_dict()


# -- Tables 1-3: basic transfer calibration ---------------------------------


def table1(machine: Machine) -> List[Comparison]:
    """Local memory-to-memory copies (Table 1)."""
    simulated = _simulated(machine)
    reference = paperdata.TABLE1_LOCAL_COPIES[machine.name]
    return [
        Comparison(key, reference[key], simulated[key]) for key in reference
    ]


def table2(machine: Machine) -> List[Comparison]:
    """Sending network transfers (Table 2)."""
    simulated = _simulated(machine)
    reference = paperdata.TABLE2_SEND[machine.name]
    return [
        Comparison(key, reference[key], simulated[key]) for key in reference
    ]


def table3(machine: Machine) -> List[Comparison]:
    """Receiving network transfers (Table 3)."""
    simulated = _simulated(machine)
    reference = paperdata.TABLE3_RECEIVE[machine.name]
    return [
        Comparison(key, reference[key], simulated[key]) for key in reference
    ]


def table4(machine: Machine) -> List[Comparison]:
    """Network bandwidth under congestion (Table 4)."""
    model = machine.network_model()
    reference = paperdata.TABLE4_NETWORK[machine.name]
    rows = []
    for mode_name, mode in (
        ("data", FramingMode.DATA_ONLY),
        ("adp", FramingMode.ADDRESS_DATA_PAIRS),
    ):
        for congestion, paper_rate in sorted(reference[mode_name].items()):
            ours = model.rate(mode, congestion=congestion)
            rows.append(
                Comparison(f"{mode_name}@{congestion}", paper_rate, ours)
            )
    return rows


# -- Figures 1 and 4: curves ---------------------------------------------------


def figure1(
    machine: Machine,
    sizes: Sequence[int] = (64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20),
) -> Dict[str, List[Tuple[int, float]]]:
    """Throughput vs message size: PVM vs the best low-level library.

    Single-pair microbenchmark, so the network runs at congestion 1.
    Returns the two curves; Figure 1 prints no exact numbers, so the
    checks are qualitative (shape + asymptote context).
    """
    pvm_runtime = CommRuntime(machine, library=pvm_profile(), congestion=1)
    low_runtime = CommRuntime(machine, library=lowlevel_profile(), congestion=1)
    pvm_curve = pvm_runtime.sweep_message_sizes(
        list(sizes), style=OperationStyle.BUFFER_PACKING
    )
    # The "best library" path for contiguous blocks: no copies (the
    # low-level profile skips them), hardware block transfer — the
    # Paragon's DMA or the T3D's load-send feeding the wire directly.
    low_curve = low_runtime.sweep_message_sizes(
        list(sizes), style=OperationStyle.BUFFER_PACKING
    )
    return {"PVM": pvm_curve, "low-level": low_curve}


def figure4(
    machine: Machine,
    strides: Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> Dict[str, List[Tuple[int, float]]]:
    """Strided local copy throughput vs stride (Figure 4).

    Returns the strided-store curve (``1Cs``) and strided-load curve
    (``sC1``) measured on the simulator.
    """
    node = machine.node_memory()
    stores = [(s, node.measure_copy(CONTIGUOUS, strided(s))) for s in strides]
    loads = [(s, node.measure_copy(strided(s), CONTIGUOUS)) for s in strides]
    return {"strided stores (1Cs)": stores, "strided loads (sC1)": loads}


# -- Sections 3.4.1 and 5.1: model estimates -----------------------------------


def section341() -> List[Comparison]:
    """The 1024x1024 T3D transpose example: estimate and measurement."""
    machine = t3d()
    model = machine.model(source="paper")
    estimate = model.estimate(
        CONTIGUOUS, strided(1024), OperationStyle.BUFFER_PACKING
    ).mbps
    measured = measure_q(
        machine,
        CONTIGUOUS,
        strided(1024),
        MEASURE_BYTES,
        OperationStyle.BUFFER_PACKING,
    ).mbps
    return [
        Comparison("|1Q1024| estimate", paperdata.SEC341_EXAMPLE["estimate"], estimate),
        Comparison("|1Q1024| measured", paperdata.SEC341_EXAMPLE["measured"], measured),
    ]


def _parse_q(op: str) -> Tuple[AccessPattern, AccessPattern]:
    x_text, __, y_text = op.partition("Q")
    return AccessPattern.parse(x_text), AccessPattern.parse(y_text)


def section51(machine: Machine) -> List[Comparison]:
    """The printed Section 5.1 model estimates for this machine."""
    model = machine.model(source="paper")
    rows = []
    for (name, op, style), paper_rate in sorted(
        paperdata.SEC51_MODEL_ESTIMATES.items()
    ):
        if name != machine.name:
            continue
        x, y = _parse_q(op)
        ours = model.estimate(x, y, style).mbps
        rows.append(Comparison(f"{op} {style}", paper_rate, ours))
    return rows


# -- Figures 7/8 and Table 5: packing vs chained --------------------------------


def machine_grid(machine_key: str) -> Dict[str, Dict[str, float]]:
    """The Figure 7/8 pattern grid on any registered machine.

    Per pattern, model and measured rates for both styles, swept
    through :mod:`repro.sweep`, so machines beyond the paper's two get
    the same golden-pinned grid.  A machine that cannot build a cell
    raises the sweep's one-line :class:`~repro.sweep.SweepError`
    naming it.
    """
    spec = dataclasses.replace(sweep.figure7_spec(), machines=(machine_key,))
    result = sweep.run_sweep(spec)
    results: Dict[str, Dict[str, float]] = {}
    for cell, row in zip(result.cells, result.rows):
        entry = results.setdefault(f"{cell.x}Q{cell.y}", {})
        entry[f"{cell.style} model"] = row["model_mbps"]
        entry[f"{cell.style} measured"] = row["mbps"]
    return results


def figure7() -> Dict[str, Dict[str, float]]:
    """Buffer-packing vs chained on the T3D (Figure 7)."""
    return machine_grid("t3d")


def figure8() -> Dict[str, Dict[str, float]]:
    """Buffer-packing vs chained on the Paragon (Figure 8)."""
    return machine_grid("paragon")


#: The (sizes, node count) regime grid collective goldens pin.
COLLECTIVE_GRID_BYTES: Tuple[int, ...] = (1024, 1 << 20)
COLLECTIVE_GRID_NODES: int = 16


def collective_table(machine_key: str) -> Dict[str, Dict[str, float]]:
    """Every collective algorithm priced on one machine (paper rates).

    Returns ``{op/algorithm: {"<nbytes>B model_ns": ns, ...}}`` across
    the regime grid, plus the model-driven selector's pick per regime
    (as an index into the algorithm list) — pinning both the numbers
    and the crossover structure.
    """
    from ..compiler.advisor import choose_algorithm
    from ..machines.registry import MACHINE_FACTORIES
    from ..runtime.collectives import ALGORITHMS, run_collective

    machine = MACHINE_FACTORIES[machine_key]()
    runtime = CommRuntime(machine, rates="paper")
    nodes = COLLECTIVE_GRID_NODES
    results: Dict[str, Dict[str, float]] = {}
    for op, algorithms in sorted(ALGORITHMS.items()):
        entry: Dict[str, float] = {}
        for nbytes in COLLECTIVE_GRID_BYTES:
            for algorithm in algorithms:
                run = run_collective(runtime, op, algorithm, nodes, nbytes)
                entry[f"{algorithm} {nbytes}B ns"] = run.total_ns
            advice = choose_algorithm(
                op, machine, nbytes, nodes, runtime=runtime
            )
            entry[f"auto {nbytes}B pick"] = float(
                algorithms.index(advice.algorithm)
            )
        results[op] = entry
    return results


def table5() -> List[Comparison]:
    """Strided loads vs strided stores (Table 5), all 16 cells."""
    machines = {"Cray T3D": t3d(), "Intel Paragon": paragon()}
    rows = []
    for (machine_name, op), styles in sorted(paperdata.TABLE5.items()):
        machine = machines[machine_name]
        model = machine.model(source="paper")
        x, y = _parse_q(op)
        for style_name, (paper_model, paper_measured) in sorted(styles.items()):
            style = OperationStyle(style_name)
            ours_model = model.estimate(x, y, style).mbps
            ours_measured = measure_q(machine, x, y, MEASURE_BYTES, style).mbps
            short = "T3D" if "T3D" in machine_name else "Paragon"
            rows.append(
                Comparison(
                    f"{short} {op} {style_name} model", paper_model, ours_model
                )
            )
            rows.append(
                Comparison(
                    f"{short} {op} {style_name} meas",
                    paper_measured,
                    ours_measured,
                )
            )
    return rows


# -- Table 6: application kernels -----------------------------------------------


def table6() -> List[Comparison]:
    """Application kernels on the 64-node T3D (Table 6)."""
    from ..apps import FEMKernel, FFT2D, SORKernel

    machine = t3d()
    kernels = {
        "transpose": FFT2D(machine),
        "FEM": FEMKernel(machine),
        "SOR": SORKernel(machine),
    }
    rows = []
    for name, kernel in kernels.items():
        report = kernel.report()
        paper_packing, paper_chained, paper_model = paperdata.TABLE6_T3D[name]
        rows.append(
            Comparison(
                f"{name} packing meas", paper_packing, report.packing_measured_mbps
            )
        )
        rows.append(
            Comparison(
                f"{name} chained meas", paper_chained, report.chained_measured_mbps
            )
        )
        rows.append(
            Comparison(
                f"{name} chained model", paper_model, report.chained_model_mbps
            )
        )
    return rows
