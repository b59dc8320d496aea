"""Bit-identity of the batched sweep engine against the scalar oracle.

The batch engine (:mod:`repro.sweep.batch`) is a pure performance
strategy: grouping, broadcasting and vectorized folds may never change
a single bit of the canonical payload.  These properties drive random
:class:`~repro.sweep.SweepSpec` grids through :func:`~repro.sweep.run_sweep`
(in-process and pooled, both batched) and compare canonical JSON (hence SHA-256 digests) against the serial
reference loop — including fault-seeded cells and other shapes the
batch path cannot express, which must *fall back* to the scalar oracle
per cell rather than drift.

Transfer grids use ``rates="paper"`` so Hypothesis can afford several
examples; the simulated-rates surface is covered by the slow-marked
calibration test at the bottom and by the speed benchmark's digest
cross-check.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sweep import NOMINAL_SEED, SweepSpec, run_serial, run_sweep
from repro.sweep.batch import run_cells_batched

PAIR_POOL = (
    ("1", "1"),
    ("1", "64"),
    ("64", "1"),
    ("1", "w"),
    ("w", "1"),
    ("w", "w"),
)

SLOW_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def transfer_specs(draw):
    """Small random transfer grids over the paper-rate calibration.

    The ``seeds`` axis deliberately includes fault seeds: seeded cells
    are outside the batch envelope and must take the per-cell fallback.
    """
    machines = draw(
        st.sampled_from([("t3d",), ("paragon",), ("t3d", "paragon")])
    )
    pairs = tuple(
        draw(
            st.lists(
                st.sampled_from(PAIR_POOL),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    styles = draw(
        st.sampled_from(
            [("buffer-packing",), ("chained",),
             ("buffer-packing", "chained")]
        )
    )
    sizes = tuple(
        draw(
            st.lists(
                st.sampled_from([4096, 8192, 65536]),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
    )
    seeds = draw(st.sampled_from([(), (NOMINAL_SEED, 3), (11,)]))
    return SweepSpec(
        machines=machines,
        pairs=pairs,
        styles=styles,
        sizes=sizes,
        seeds=seeds,
        rates="paper",
    )


class TestBatchBitIdentity:
    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_batch_engine_matches_serial_reference(self, spec):
        reference = run_serial(spec, batched=True)
        batched = run_sweep(spec, workers=1)
        assert batched.canonical_json() == reference.canonical_json()
        assert batched.digest() == reference.digest()

    @SLOW_SETTINGS
    @given(
        spec=transfer_specs(),
        workers=st.sampled_from([2, 3]),
        shard_size=st.integers(min_value=1, max_value=7),
    )
    def test_pooled_batch_matches_serial_reference(
        self, spec, workers, shard_size
    ):
        reference = run_serial(spec, batched=True)
        pooled = run_sweep(spec, workers=workers, shard_size=shard_size)
        assert pooled.canonical_json() == reference.canonical_json()

    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_fault_seeded_cells_fall_back_not_drift(self, spec):
        """Every seeded cell must be counted as a fallback — the batch
        path never attempts fault-plan execution — and the merged
        payload must still match the reference bit for bit."""
        seeded = dataclasses.replace(spec, seeds=(NOMINAL_SEED, 3, 11))
        reference = run_serial(seeded, batched=True)
        batched = run_sweep(seeded, workers=1)
        assert batched.canonical_json() == reference.canonical_json()
        n_seeded = sum(
            1 for cell in batched.cells if cell.seed != NOMINAL_SEED
        )
        assert n_seeded > 0
        assert batched.stats["batch_fallbacks"] >= n_seeded


class TestFallbackEnvelope:
    def test_ambient_fault_plan_sends_everything_to_fallback(self):
        """An ambient fault plan (installed via ``injecting``) is
        outside the batch envelope wholesale: every cell falls back and
        the rows still match the scalar loop's exactly."""
        from repro.faults import FaultPlan, injecting

        spec = SweepSpec(
            machines=("t3d",),
            pairs=(("1", "64"),),
            styles=("chained",),
            sizes=(8192,),
            rates="paper",
            duplex="off",
        )
        cells = spec.expand()
        with injecting(FaultPlan.chaos(7)):
            reference = run_serial(spec, batched=True)
            report = run_cells_batched(cells)
        assert report.fallbacks == len(cells)
        assert tuple(report.rows) == reference.rows

    def test_failing_cell_raises_the_scalar_error(self):
        """A cell the scalar loop would refuse must abort the batch
        run with the same canonical SweepError, not a numpy artifact."""
        from repro.sweep import SweepError
        from repro.sweep.spec import SweepCell

        bad = SweepSpec(machines=("t3d",)).expand()[0].to_dict()
        bad["x"] = "not-a-pattern"
        cell = SweepCell.from_dict(bad)
        with pytest.raises(SweepError, match="failed"):
            run_cells_batched([cell])

    def test_batch_trace_counters_account_for_every_cell(self):
        from repro.trace import tracing

        spec = SweepSpec(
            machines=("t3d", "paragon"),
            pairs=(("1", "1"), ("w", "1")),
            sizes=(8192,),
            seeds=(NOMINAL_SEED, 5),
            rates="paper",
        )
        cells = spec.expand()
        with tracing() as tracer:
            report = run_cells_batched(cells)
        counters = tracer.metrics.counters()
        assert counters["batch.cells"] == len(cells)
        assert counters["batch.fallbacks"] == report.fallbacks
        assert counters["batch.groups"] == report.groups
        # Seeded cells fall back; nominal cells ride the vector path.
        assert 0 < report.fallbacks < len(cells)


@pytest.mark.slow
class TestSimulatedRatesParity:
    """The simulated-rates surfaces — where the memsim engine choice
    could in principle leak into grouping — stay bit-identical."""

    def test_calibration_grid_batch_vs_serial(self, monkeypatch):
        from repro.caching import CACHE_ENV
        from repro.sweep import calibration_spec

        monkeypatch.setenv(CACHE_ENV, "off")
        spec = dataclasses.replace(calibration_spec("t3d"), nwords=4096)
        reference = run_serial(spec, batched=True)
        batched = run_sweep(spec, workers=1)
        assert batched.canonical_json() == reference.canonical_json()

    def test_figure7_grid_batch_vs_serial(self):
        from repro.sweep import figure7_spec

        spec = figure7_spec()
        assert (
            run_sweep(spec, workers=1).digest()
            == run_serial(spec, batched=True).digest()
        )
