"""Bit-identity of every sweep strategy against the serial reference.

:func:`~repro.sweep.run_serial` rebuilds every cell's state from
scratch; :func:`~repro.sweep.run_sweep` shares worker memos across the
cells one process runs, in-process or on a pool.  Memo sharing is a
pure performance strategy: it may never change a single bit of the
canonical payload.  These properties drive random
:class:`~repro.sweep.SweepSpec` grids (from
``test_sweep_properties``) through both and compare canonical JSON
(hence SHA-256 digests) — fault-seeded cells and an ambient fault
plan included.  The in-process identity on generated grids is
``test_sweep_properties``' ``test_batching_cannot_change_results``;
``test_batch_parity`` holds :func:`~repro.sweep.worker.run_cells`
itself, on cold and warm memos, to the same reference.

Transfer grids use ``rates="paper"`` so Hypothesis can afford several
examples; the simulated-rates surface is covered by the slow-marked
calibration and figure-7 tests at the bottom and by the speed
benchmark's digest cross-check.
"""

import dataclasses
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.sweep import (
    NOMINAL_SEED,
    SweepError,
    SweepSpec,
    run_serial,
    run_sweep,
)
from repro.sweep.spec import SweepCell
from repro.sweep.worker import run_shard

from .test_sweep_properties import SLOW_SETTINGS, transfer_specs


class TestSweepBitIdentity:
    @SLOW_SETTINGS
    @given(
        spec=transfer_specs(),
        workers=st.sampled_from([2, 3]),
        shard_size=st.integers(min_value=1, max_value=7),
    )
    def test_pooled_sweep_matches_serial_reference(
        self, spec, workers, shard_size
    ):
        reference = run_serial(spec)
        pooled = run_sweep(spec, workers=workers, shard_size=shard_size)
        assert pooled.canonical_json() == reference.canonical_json()

    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_fault_seeded_cells_match_serial_reference(self, spec):
        seeded = dataclasses.replace(spec, seeds=(NOMINAL_SEED, 3, 11))
        reference = run_serial(seeded)
        inline = run_sweep(seeded, workers=1)
        assert any(cell.seed != NOMINAL_SEED for cell in inline.cells)
        assert inline.canonical_json() == reference.canonical_json()


class TestFaultsAndFailures:
    def test_ambient_fault_plan_matches_serial_reference(self):
        """A plan installed via ``injecting`` reaches every in-process
        cell exactly as it reaches the serial loop's."""
        from repro.faults import FaultPlan, injecting

        spec = SweepSpec(
            machines=("t3d",),
            pairs=(("1", "64"),),
            styles=("chained",),
            sizes=(8192,),
            rates="paper",
            duplex="off",
        )
        with injecting(FaultPlan.chaos(7)):
            reference = run_serial(spec)
            inline = run_sweep(spec, workers=1)
        assert inline.rows == reference.rows
        assert inline.rows != run_serial(spec).rows

    def test_failing_cell_raises_a_sweep_error(self):
        """A cell the runtime refuses aborts its shard with the
        canonical one-line SweepError naming it."""
        bad = SweepSpec(machines=("t3d",)).expand()[0].to_dict()
        bad["x"] = "not-a-pattern"
        cell = SweepCell.from_dict(bad)
        message = re.escape(f"{cell.cell_id!r} failed")
        with pytest.raises(SweepError, match=message):
            run_shard((0, ((0, bad),)))


@pytest.mark.slow
class TestSimulatedRatesParity:
    """The simulated-rates surfaces — where the memsim engine choice
    could in principle leak into a memo — stay bit-identical."""

    def test_calibration_grid_inline_vs_serial(self, monkeypatch):
        from repro.caching import CACHE_ENV
        from repro.sweep import calibration_spec

        monkeypatch.setenv(CACHE_ENV, "off")
        spec = dataclasses.replace(calibration_spec("t3d"), nwords=4096)
        reference = run_serial(spec)
        inline = run_sweep(spec, workers=1)
        assert inline.canonical_json() == reference.canonical_json()

    def test_figure7_grid_inline_vs_serial(self):
        from repro.sweep import figure7_spec

        spec = figure7_spec()
        assert (
            run_sweep(spec, workers=1).digest()
            == run_serial(spec).digest()
        )
