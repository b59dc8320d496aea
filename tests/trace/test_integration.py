"""End-to-end tracing of the runtime, memsim and caching layers."""

import pytest

from repro.core.errors import CompositionError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.faults import FaultPlan
from repro.machines import MACHINE_FACTORIES, machine_by_key
from repro.runtime.collective import CommunicationStep
from repro.runtime.engine import CommRuntime
from repro.runtime.stages import Stage, StagePipeline
from repro.trace import chrome_trace, tracing, validate_chrome_trace


@pytest.fixture(scope="module")
def runtime(t3d_machine):
    return CommRuntime(t3d_machine, rates="paper")


class TestTransferTracing:
    def test_phase_spans_sum_to_reported_ns(self, runtime):
        """The headline invariant: phases partition the measured time."""
        with tracing() as tracer:
            result = runtime.transfer(CONTIGUOUS, strided(64), 131072)
        phase_sum = sum(s.duration_ns for s in tracer.spans("phase"))
        assert phase_sum == pytest.approx(result.ns, rel=1e-9)

    @pytest.mark.parametrize(
        "chaos", [False, True], ids=["nominal", "chaos7"]
    )
    @pytest.mark.parametrize(
        "duplex", [False, True], ids=["simplex", "duplex"]
    )
    @pytest.mark.parametrize(
        "style", list(OperationStyle), ids=[s.value for s in OperationStyle]
    )
    @pytest.mark.parametrize("key", sorted(MACHINE_FACTORIES))
    def test_phase_spans_sum_for_packing_and_duplex(
        self, key, style, duplex, chaos
    ):
        runtime = CommRuntime(
            machine_by_key(key),
            rates="paper",
            faults=FaultPlan.chaos(7) if chaos else None,
        )
        with tracing() as tracer:
            try:
                result = runtime.transfer(
                    CONTIGUOUS, strided(64), 65536,
                    style=style, duplex=duplex, src=0, dst=1,
                )
            except CompositionError as exc:
                # Infeasible on this machine: one line, nothing traced.
                assert str(exc) and "\n" not in str(exc)
                assert len(tracer) == 0
                return
        phase_sum = sum(s.duration_ns for s in tracer.spans("phase"))
        assert phase_sum == pytest.approx(result.ns, rel=1e-9)
        # The phases the result reports are the traced executed phases
        # (the library and residual rows are charges on top).
        executed = tuple(
            (s.name, s.duration_ns) for s in tracer.spans("phase")
            if s.name not in (
                "library-overhead", "efficiency-derate", "duplex-memory-cap"
            )
        )
        assert executed == result.phase_ns

    def test_stage_spans_cover_resources(self, runtime):
        with tracing() as tracer:
            runtime.transfer(CONTIGUOUS, strided(64), 131072)
        tracks = {s.track for s in tracer.spans("stage")}
        assert {"sender_cpu", "network"} <= tracks

    def test_duplex_cap_counted(self, runtime):
        with tracing() as tracer:
            result = runtime.transfer(
                CONTIGUOUS, CONTIGUOUS, 1 << 20, duplex=True
            )
        if result.memory_capped:
            assert tracer.metrics.counter("runtime.duplex_caps") == 1.0

    def test_trace_exports_valid_chrome_json(self, runtime):
        with tracing() as tracer:
            runtime.transfer(CONTIGUOUS, strided(64), 131072)
        assert validate_chrome_trace(chrome_trace(tracer)) == []


class TestPipelineTracing:
    def test_chunk_spans_and_waits(self):
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 50.0, "net")]
        result = StagePipeline(stages).run(
            1 << 16, chunk_bytes=8192, record=True
        )
        # 8 chunks x 2 stages, clocked from the pipeline's start.
        assert len(result.chunks) == 16
        ends = [start + ns for __, __, start, ns, __ in result.chunks]
        assert max(ends) == pytest.approx(result.ns)
        # The fast stage ends up waiting on the slow one's resource
        # hand-off, so some wait must have been recorded.
        assert any(args["wait_ns"] > 0.0 for *__, args in result.chunks)

    def test_phase_prefix_applied(self, t3d_machine):
        # Packing on the T3D runs a pack phase before the transfer
        # phase: each chunk span is named after its phase and sits on
        # the transfer's clock, inside its phase span.
        runtime = CommRuntime(t3d_machine, rates="paper")
        with tracing() as tracer:
            runtime.transfer(
                strided(64), CONTIGUOUS, 65536, OperationStyle.BUFFER_PACKING
            )
        phases = {s.name: s for s in tracer.spans("phase")}
        stage_spans = tracer.spans("stage")
        assert {s.name.split(":")[0] for s in stage_spans} >= {
            "pack", "transfer"
        }
        for span in stage_spans:
            phase, __, label = span.name.partition(":")
            if phase == "library-overhead":
                continue
            assert label
            assert phases[phase].start_ns <= span.start_ns
            assert span.end_ns <= phases[phase].end_ns * (1 + 1e-12)
        assert tracer.metrics.histogram("pipeline.resource_wait_ns").count > 0


class TestStepTracing:
    def test_step_spans_sum_to_step_ns(self, runtime):
        from repro.netsim.patterns import all_to_all

        step = CommunicationStep(
            runtime, all_to_all(8), CONTIGUOUS, strided(64), 8192
        )
        with tracing() as tracer:
            result = step.run()
        step_sum = sum(s.duration_ns for s in tracer.spans("step"))
        assert step_sum == pytest.approx(result.step_ns, rel=1e-9)
        assert tracer.metrics.counter("step.messages_per_node") == 7.0


class TestMemsimTracing:
    def test_kernel_counters_emitted(self, t3d_machine):
        node = t3d_machine.node_memory(nwords=2048)
        node.clear_cache()
        with tracing() as tracer:
            node.measure_copy(CONTIGUOUS, strided(8))
        metrics = tracer.metrics
        assert metrics.counter("memsim.kernels") >= 1.0
        total_probes = (
            metrics.counter("memsim.cache_hits")
            + metrics.counter("memsim.cache_misses")
        )
        assert total_probes > 0
        assert (
            metrics.counter("memsim.page_hits")
            + metrics.counter("memsim.page_misses")
        ) > 0
        assert metrics.counter("memsim.wb_drains") > 0

    def test_scalar_and_fast_counters_agree(self):
        """Both engines count the same events, write-back included, over
        more words than one fast-path block holds."""
        shared = (
            "memsim.kernels",
            "memsim.cache_hits",
            "memsim.cache_misses",
            "memsim.dirty_evictions",
            "memsim.page_hits",
            "memsim.page_misses",
            "memsim.wb_drains",
        )
        for key in ("t3d", "xe", "cluster"):
            machine = machine_by_key(key)
            results = {}
            for mode in ("scalar", "fast"):
                node = machine.node_memory(nwords=5000)
                node.engine = mode
                with tracing() as tracer:
                    node.measure_copy(CONTIGUOUS, strided(8))
                results[mode] = {
                    name: tracer.metrics.counter(name) for name in shared
                }
            assert results["scalar"] == results["fast"], key
            if machine.node.cache.write_policy == "back":
                assert results["fast"]["memsim.dirty_evictions"] > 0, key

    def test_memo_hits_counted(self, t3d_machine):
        node = t3d_machine.node_memory(nwords=2048)
        node.clear_cache()
        with tracing() as tracer:
            node.measure_copy(CONTIGUOUS, CONTIGUOUS)
            node.measure_copy(CONTIGUOUS, CONTIGUOUS)
        assert tracer.metrics.counter("memsim.memo_hits") == 1.0


class TestCalibrationCacheTracing:
    def test_miss_store_then_hit(self, t3d_machine, monkeypatch, tmp_path):
        from repro.caching import default_cache
        from repro.machines.measure import measure_table

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        default_cache().clear()
        with tracing() as tracer:
            measure_table(t3d_machine, nwords=512)
        assert tracer.metrics.counter("calibration_cache.miss") == 1.0
        assert tracer.metrics.counter("calibration_cache.store") == 1.0
        with tracing() as tracer:
            measure_table(t3d_machine, nwords=512)
        assert tracer.metrics.counter("calibration_cache.memory_hit") == 1.0
