"""Determinism properties of the sharded sweep engine.

The sweep's reproducibility obligation is absolute: the same
:class:`~repro.sweep.SweepSpec` must merge to a **bit-identical**
canonical payload no matter how the execution was sliced — worker
count, shard size, shard submission order, shared or fresh memos.
These properties drive randomly generated specs through every
execution strategy and compare SHA-256 digests of the canonical JSON.

The transfer grids here use ``rates="paper"`` so Hypothesis can afford
many examples (no simulator calibration in the loop).  The
simulated-rates path — where the fast/scalar engine choice could in
principle leak in — is covered by the slow-marked engine-parity test
at the bottom and by the speed benchmark's digest cross-check.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sweep import (
    NOMINAL_SEED,
    SweepSpec,
    figure7_spec,
    run_serial,
    run_sweep,
)

#: Pattern-pair pool for generated grids (paper notations).
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
    """Small random transfer grids over the paper-rate calibration."""
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
    seeds = draw(
        st.sampled_from([(), (NOMINAL_SEED, 3), (11,)])
    )
    return SweepSpec(
        machines=machines,
        pairs=pairs,
        styles=styles,
        sizes=sizes,
        seeds=seeds,
        rates="paper",
    )


class TestDeterministicMerge:
    @SLOW_SETTINGS
    @given(spec=transfer_specs(), workers=st.sampled_from([2, 4]))
    def test_worker_count_cannot_change_results(self, spec, workers):
        reference = run_sweep(spec, workers=1).digest()
        assert run_sweep(spec, workers=workers).digest() == reference

    @SLOW_SETTINGS
    @given(
        spec=transfer_specs(),
        shard_size=st.integers(min_value=1, max_value=7),
        shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sharding_and_order_cannot_change_results(
        self, spec, shard_size, shuffle_seed
    ):
        reference = run_sweep(spec, workers=1).digest()
        shuffled = run_sweep(
            spec,
            workers=1,
            shard_size=shard_size,
            shuffle_seed=shuffle_seed,
        )
        assert shuffled.digest() == reference

    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_batching_cannot_change_results(self, spec):
        """Cells sharing one set of worker memos merge to the payload
        of cells that each start from fresh memos."""
        cold = run_serial(spec)
        warm = run_sweep(spec, workers=1)
        assert cold.canonical_json() == warm.canonical_json()

    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_spec_serialization_cannot_change_results(self, spec):
        reloaded = SweepSpec.from_dict(spec.to_dict())
        assert (
            run_sweep(reloaded, workers=1).digest()
            == run_sweep(spec, workers=1).digest()
        )


@pytest.mark.slow
class TestEngineParity:
    """Where the fastpath claims parity, sweeping under either engine
    gives numerically equal calibration rates (rel 1e-9, the fastpath
    contract — the engines reassociate float sums, so this is a
    numeric bound, not a bitwise one)."""

    def test_calibration_sweep_scalar_vs_auto(
        self, monkeypatch, scalar_oracle
    ):
        from repro.caching import CACHE_ENV
        from repro.sweep import calibration_spec

        spec = dataclasses.replace(calibration_spec("t3d"), nwords=4096)
        monkeypatch.setenv(CACHE_ENV, "off")

        with scalar_oracle() as oracle:
            scalar = run_sweep(spec, workers=1)
        assert oracle.kernels > 0
        auto = run_sweep(spec, workers=1)

        for cell, srow, arow in zip(
            scalar.cells, scalar.rows, auto.rows
        ):
            assert srow["mbps"] == pytest.approx(
                arow["mbps"], rel=1e-9
            ), cell.cell_id


@pytest.mark.slow
class TestSimulatedRatesAcrossWorkers:
    """The full simulated-rates figure-7 grid — the exact acceptance
    surface — is bit-identical between in-process and 4-worker pooled
    execution (workers share the engine env and disk cache)."""

    def test_figure7_grid_pooled_vs_inline(self):
        spec = figure7_spec()
        assert (
            run_sweep(spec, workers=4, shard_size=2).digest()
            == run_sweep(spec, workers=1).digest()
        )
