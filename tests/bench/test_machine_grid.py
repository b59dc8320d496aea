"""The Figure 7/8 grid on every registered machine.

:func:`repro.bench.experiments.machine_grid` sweeps the figure grid
through :func:`repro.sweep.run_sweep`.  On every machine it either
matches the scalar reference loop (:func:`repro.sweep.run_serial`),
value for value and in the same key order, or rejects the machine with
one line naming the cell it cannot build.
"""

import dataclasses

import pytest

from repro.bench.experiments import figure7, figure8, machine_grid
from repro.machines.registry import MACHINE_FACTORIES
from repro.sweep import SweepError, figure7_spec, run_serial

#: Machines whose figure grid holds a cell the model cannot build.
UNBUILDABLE = {
    "t3d-contiguous-deposits": "t3d-contiguous-deposits:1Q64:chained:131072",
}


def _reference_grid(machine_key):
    spec = dataclasses.replace(figure7_spec(), machines=(machine_key,))
    result = run_serial(spec)
    grid = {}
    for cell, row in zip(result.cells, result.rows):
        entry = grid.setdefault(f"{cell.x}Q{cell.y}", {})
        entry[f"{cell.style} model"] = row["model_mbps"]
        entry[f"{cell.style} measured"] = row["mbps"]
    return grid


@pytest.mark.parametrize("machine_key", sorted(MACHINE_FACTORIES))
def test_machine_grid_matches_serial_reference(machine_key):
    if machine_key in UNBUILDABLE:
        with pytest.raises(SweepError) as excinfo:
            machine_grid(machine_key)
        message = str(excinfo.value)
        assert "\n" not in message
        assert repr(UNBUILDABLE[machine_key]) in message
        return
    grid = machine_grid(machine_key)
    reference = _reference_grid(machine_key)
    assert grid == reference
    assert list(grid) == list(reference)
    for name, entry in grid.items():
        assert list(entry) == list(reference[name])


def test_paper_figures_are_machine_grids():
    assert figure7() == machine_grid("t3d")
    assert figure8() == machine_grid("paragon")
