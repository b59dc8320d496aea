"""Runner strategies and worker memos: equality and bookkeeping.

These use ``rates="paper"`` grids — no simulator calibration — so the
whole file stays fast; the simulated-rates equalities live in the
property suite and the speed benchmark.
"""

import pytest

from repro.sweep import (
    NOMINAL_SEED,
    SweepError,
    SweepSpec,
    run_serial,
    run_sweep,
)
from repro.sweep import worker as worker_module
from repro.sweep.spec import collectives_spec
from repro.trace import tracing

FAST_SPEC = SweepSpec(
    machines=("t3d", "paragon"),
    pairs=(("1", "1"), ("1", "64"), ("w", "1")),
    sizes=(8192,),
    rates="paper",
)


class TestStrategies:
    def test_serial_batched_and_unbatched_agree(self):
        # Fresh memos per cell (run_serial) against one batch of cells
        # on shared memos, run twice so the second pass reads warm ones.
        a = run_serial(FAST_SPEC)
        worker_module.reset_memos()
        try:
            cold = run_sweep(FAST_SPEC, workers=1)
            warm = run_sweep(FAST_SPEC, workers=1)
        finally:
            worker_module.reset_memos()
        assert a.canonical_json() == cold.canonical_json()
        assert a.canonical_json() == warm.canonical_json()

    def test_inline_matches_serial(self):
        assert (
            run_sweep(FAST_SPEC, workers=1).digest()
            == run_serial(FAST_SPEC).digest()
        )

    def test_pool_matches_serial(self):
        assert (
            run_sweep(FAST_SPEC, workers=2).digest()
            == run_serial(FAST_SPEC).digest()
        )

    def test_rows_align_with_cells(self):
        result = run_sweep(FAST_SPEC, workers=1)
        assert len(result.rows) == len(result.cells)
        for cell, row in zip(result.cells, result.rows):
            assert row["id"] == cell.cell_id

    def test_stats_record_strategy(self):
        assert run_sweep(FAST_SPEC, workers=1).stats["strategy"] == "inline"
        assert run_sweep(FAST_SPEC, workers=2).stats["strategy"] == "pool"

    def test_preflight_verify_counts_distinct_shapes(self):
        result = run_sweep(FAST_SPEC, workers=1, preflight_verify=True)
        # Every (machine, source, x, y, style, size) combination of the
        # spec is distinct here, so each cell is one verified shape.
        assert result.stats["preflight_verified"] == len(result.cells)
        # Verification must not perturb the results themselves.
        assert result.digest() == run_sweep(FAST_SPEC, workers=1).digest()

    def test_preflight_stat_absent_when_disabled(self):
        assert "preflight_verified" not in run_sweep(
            FAST_SPEC, workers=1
        ).stats
        assert run_serial(FAST_SPEC).stats["strategy"] == "serial"

    def test_seeded_cells_execute_under_fault_plans(self):
        spec = SweepSpec(
            machines=("t3d",),
            pairs=(("1", "64"),),
            styles=("chained",),
            sizes=(8192,),
            seeds=(NOMINAL_SEED, 7),
            rates="paper",
            duplex="off",
        )
        result = run_sweep(spec, workers=1)
        nominal, seeded = result.rows
        assert nominal["mbps"] > seeded["mbps"]
        assert "degraded" in seeded or seeded["retries"] >= 0

    def test_failing_cell_aborts_with_cell_name(self):
        bad = SweepSpec(machines=("t3d",)).expand()[0].to_dict()
        bad["x"] = "not-a-pattern"
        with pytest.raises(SweepError, match="failed"):
            worker_module.run_shard((0, ((0, bad),)))


class TestWorkerCrash:
    """A worker process that dies during initialization must surface
    as one :class:`SweepError`, never a raw multiprocessing traceback
    or a silently broken pool."""

    def test_crashing_initializer_raises_sweep_error(self, monkeypatch):
        def boom():
            raise RuntimeError("deliberate init crash")

        # init_worker calls reset_memos; with the fork start method the
        # children inherit the patched module, so every worker's
        # initializer fails.
        monkeypatch.setattr(worker_module, "reset_memos", boom)
        with pytest.raises(
            SweepError, match="initialization failed.*deliberate init crash"
        ):
            run_sweep(FAST_SPEC, workers=2)

    def test_init_worker_records_instead_of_raising(self, monkeypatch):
        def boom():
            raise RuntimeError("deliberate init crash")

        monkeypatch.setattr(worker_module, "reset_memos", boom)
        worker_module.init_worker({})  # must not raise (pool contract)
        assert "deliberate init crash" in worker_module._INIT_ERROR
        with pytest.raises(SweepError, match="initialization failed"):
            worker_module.run_shard((0, ()))
        monkeypatch.undo()
        worker_module.init_worker({})
        assert worker_module._INIT_ERROR is None

    def test_unpicklable_worker_failure_wrapped(self, monkeypatch):
        # Failures the pool itself raises (pickling, lost processes)
        # are wrapped in SweepError by the runner.
        from repro.sweep import runner as runner_module

        def explode(*args, **kwargs):
            raise BrokenPipeError("worker died")

        monkeypatch.setattr(
            runner_module.ProcessPoolExecutor, "submit", explode
        )
        with pytest.raises(SweepError, match="worker pool failed"):
            run_sweep(FAST_SPEC, workers=2)


class TestCollectiveGrid:
    def test_64_node_seed_7_digest_is_pinned(self):
        spec = collectives_spec(nodes=(64,), seeds=(7,))
        assert run_sweep(spec).digest() == (
            "7392ae216c29b9a5112559c050e4f70c7ed61ed143352fa8b123f7d0b5eaac80"
        )


class TestTracing:
    def test_sweep_emits_shard_spans_and_counters(self):
        with tracing() as tracer:
            run_sweep(FAST_SPEC, workers=2, shard_size=4)
        counters = tracer.metrics.counters()
        assert counters["sweep.cells"] == 12
        assert counters["sweep.shards"] == 3
        spans = tracer.spans("shard")
        assert len(spans) == 3
        assert {span.track for span in spans} == {"sweep"}
        (sweep_span,) = tracer.spans("sweep")
        assert sweep_span.args["cells"] == 12


class TestWorkerHygiene:
    def test_reset_memos_clears_everything(self):
        worker_module.machine_by_key("t3d")
        assert worker_module._machines
        worker_module.reset_memos()
        assert not worker_module._machines
        assert not worker_module._tables
        assert not worker_module._runtimes

    def test_tables_follow_the_engine_selection(self, monkeypatch):
        """A runtime's and a model's simulated table is the one measured
        under the current engine selection, never one memoized under
        another."""
        from repro import caching
        from repro.machines.measure import DEFAULT_STRIDES, measurement_cache_key
        from repro.memsim.node import DEFAULT_MEASURE_WORDS, ENGINE_ENV

        machine = worker_module.machine_by_key("t3d")
        cache = caching.CalibrationCache(use_disk=False)
        monkeypatch.setattr(caching, "_DEFAULT_CACHE", cache)

        def publish(engine):
            # A distinct stand-in table under this engine's cache key,
            # so nothing is simulated.
            monkeypatch.setenv(ENGINE_ENV, engine)
            table = machine.paper_table()
            cache.store(
                measurement_cache_key(
                    machine, machine.network.default_congestion,
                    DEFAULT_MEASURE_WORDS, DEFAULT_STRIDES,
                ),
                table,
            )
            return table

        def runtime_table(style):
            return worker_module._runtime("t3d", style, "simulated").table

        worker_module.reset_memos()
        try:
            for engine in ("auto", "scalar"):
                table = publish(engine)
                assert runtime_table("chained") is table
                assert runtime_table("buffer-packing") is table
                assert worker_module._model("t3d", "simulated").table is table
        finally:
            worker_module.reset_memos()

    def test_unknown_machine_key_raises(self):
        with pytest.raises(SweepError, match="unknown machine"):
            worker_module.machine_by_key("cm5")

    def test_init_worker_pins_environment(self, monkeypatch):
        from repro.memsim.node import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "scalar")
        worker_module.init_worker({})
        assert ENGINE_ENV not in __import__("os").environ
        worker_module.init_worker({ENGINE_ENV: "auto"})
        assert __import__("os").environ[ENGINE_ENV] == "auto"

    def test_pinned_environment_round_trips(self, monkeypatch):
        from repro.caching import CACHE_ENV

        monkeypatch.setenv(CACHE_ENV, "off")
        snapshot = worker_module.pinned_environment()
        assert snapshot[CACHE_ENV] == "off"
