"""Tests for the chunked stage pipeline (repro.runtime.stages)."""

import math
import random

import numpy as np
import pytest

from repro.runtime.stages import Stage, StagePipeline


def run(stages, nbytes=1 << 20, chunk=8192):
    return StagePipeline(stages).run(nbytes, chunk_bytes=chunk)


class TestSingleStage:
    def test_rate_recovered(self):
        result = run([Stage("only", 100.0, "cpu")])
        assert result.mbps == pytest.approx(100.0, rel=0.01)

    def test_chunk_overhead_slows(self):
        clean = run([Stage("s", 100.0, "cpu")])
        noisy = run([Stage("s", 100.0, "cpu", chunk_overhead_ns=10_000.0)])
        assert noisy.mbps < clean.mbps

    def test_startup_charged_once(self):
        with_startup = run([Stage("s", 100.0, "cpu", startup_ns=1e6)])
        without = run([Stage("s", 100.0, "cpu")])
        assert with_startup.ns == pytest.approx(without.ns + 1e6)


class TestParallelStages:
    def test_disjoint_resources_pipeline_to_min(self):
        """The model's parallel (min) rule emerges with many chunks."""
        stages = [
            Stage("send", 120.0, "cpu"),
            Stage("net", 60.0, "net"),
            Stage("recv", 150.0, "deposit"),
        ]
        result = run(stages)
        assert result.mbps == pytest.approx(60.0, rel=0.05)

    def test_bottleneck_identified(self):
        stages = [Stage("send", 120.0, "cpu"), Stage("net", 60.0, "net")]
        assert run(stages).bottleneck() == "net"


class TestSharedResource:
    def test_shared_resource_harmonic(self):
        """The model's sequential (harmonic) rule: same resource."""
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 50.0, "cpu")]
        result = run(stages)
        expected = 1.0 / (1 / 100.0 + 1 / 50.0)
        assert result.mbps == pytest.approx(expected, rel=0.05)

    def test_mixed_composition(self):
        """cpu-shared pair in parallel with a slower background stage."""
        stages = [
            Stage("a", 100.0, "cpu"),
            Stage("b", 100.0, "cpu"),
            Stage("net", 40.0, "net"),
        ]
        result = run(stages)
        assert result.mbps == pytest.approx(40.0, rel=0.05)


class TestGranularity:
    def test_single_chunk_serializes_everything(self):
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 100.0, "net")]
        nbytes = 1 << 20
        whole = StagePipeline(stages).run(nbytes, chunk_bytes=nbytes)
        fine = StagePipeline(stages).run(nbytes, chunk_bytes=4096)
        # Store-and-forward: both stages' full time; pipelined: ~max.
        assert whole.mbps == pytest.approx(50.0, rel=0.02)
        assert fine.mbps > 90.0

    def test_tail_chunk_handled(self):
        result = run([Stage("s", 100.0, "cpu")], nbytes=10_000, chunk=4096)
        assert result.nbytes == 10_000
        assert result.mbps == pytest.approx(100.0, rel=0.05)

    def test_busy_accounting_sums(self):
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 50.0, "net")]
        result = run(stages)
        assert result.stage_busy_ns["b"] == pytest.approx(
            2 * result.stage_busy_ns["a"], rel=0.01
        )


class TestDuplicateNames:
    """Regression: busy/startup accounting was keyed by stage *name*,
    so two stages sharing a name merged their busy accounts and the
    second stage's startup was never charged."""

    def test_duplicate_names_keep_separate_accounts(self):
        stages = [Stage("copy", 100.0, "cpu"), Stage("copy", 50.0, "net")]
        result = run(stages)
        assert set(result.stage_busy_ns) == {"copy#0", "copy#1"}
        assert result.stage_busy_ns["copy#1"] == pytest.approx(
            2 * result.stage_busy_ns["copy#0"], rel=0.01
        )

    def test_duplicate_names_match_renamed_pipeline(self):
        dup = run([
            Stage("copy", 100.0, "cpu", startup_ns=1e6),
            Stage("copy", 50.0, "net", startup_ns=2e6),
        ])
        uniq = run([
            Stage("copy-a", 100.0, "cpu", startup_ns=1e6),
            Stage("copy-b", 50.0, "net", startup_ns=2e6),
        ])
        assert dup.ns == uniq.ns
        assert dup.mbps == uniq.mbps

    def test_both_startups_charged(self):
        base = run([Stage("s", 100.0, "cpu"), Stage("s", 100.0, "net")])
        both = run([
            Stage("s", 100.0, "cpu", startup_ns=1e6),
            Stage("s", 100.0, "net", startup_ns=1e6),
        ])
        # Disjoint resources at equal rates: the startups land one
        # after the other ahead of the stream, so both must show up.
        assert both.ns == pytest.approx(base.ns + 2e6)

    def test_unique_names_unmangled(self):
        result = run([Stage("a", 100.0, "cpu"), Stage("b", 50.0, "net")])
        assert set(result.stage_busy_ns) == {"a", "b"}


class TestValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([Stage("s", 0.0, "cpu")])

    def test_nonpositive_sizes_rejected(self):
        pipeline = StagePipeline([Stage("s", 10.0, "cpu")])
        with pytest.raises(ValueError):
            pipeline.run(0)
        with pytest.raises(ValueError):
            pipeline.run(100, chunk_bytes=0)

    @pytest.mark.parametrize("rate", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="positive rate"):
            StagePipeline([Stage("s", rate, "cpu")])

    @pytest.mark.parametrize("field", ["chunk_overhead_ns", "startup_ns"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_overhead_or_startup_rejected(self, field, value):
        # A NaN startup used to drop out of the finish (``free >
        # chunk_ready`` is false), a negative overhead ran backwards.
        stage = Stage("s", 10.0, "cpu", **{field: value})
        with pytest.raises(ValueError, match=field) as caught:
            StagePipeline([stage, Stage("t", 10.0, "net")])
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("bad", [True, False, 512.0, 1.5, "512", None])
    def test_non_integer_sizes_rejected(self, bad):
        # ``run(True, 512)`` used to price a 1-byte message, a float
        # raised a raw TypeError from the size list.
        pipeline = StagePipeline([Stage("s", 10.0, "cpu")])
        with pytest.raises(ValueError, match="integer transfer size"):
            pipeline.run(bad, chunk_bytes=512)
        with pytest.raises(ValueError, match="integer chunk size"):
            pipeline.run(4096, chunk_bytes=bad)

    def test_numpy_integer_sizes_accepted(self):
        # CommRuntime.transfer accepts any Integral byte count.
        pipeline = StagePipeline([Stage("s", 10.0, "cpu")])
        for nbytes in (4096, 1 << 20):
            assert pipeline.run(np.int64(nbytes), np.int64(512)) == (
                pipeline.run(nbytes, 512)
            )


def _reference_run(stages, nbytes, chunk_bytes):
    """The chunk loop as first written: every chunk re-costs every
    stage and looks its resource up by name.  Kept verbatim so the
    precomputed-cost loops can be held to it bit for bit."""
    full_chunks, tail = divmod(nbytes, chunk_bytes)
    sizes = [chunk_bytes] * full_chunks + ([tail] if tail else [])
    busy = [0.0] * len(stages)
    labels = StagePipeline(stages).labels
    chunks = []
    resource_free = {}
    started = [False] * len(stages)
    finish = 0.0
    for chunk_index, size in enumerate(sizes):
        chunk_ready = 0.0
        for position, stage in enumerate(stages):
            start = max(chunk_ready, resource_free.get(stage.resource, 0.0))
            duration = stage.chunk_ns(size)
            if not started[position]:
                duration += stage.startup_ns
                started[position] = True
            chunks.append((
                labels[position], stage.resource, start, duration,
                {"chunk": chunk_index, "bytes": size,
                 "wait_ns": start - chunk_ready},
            ))
            chunk_ready = start + duration
            resource_free[stage.resource] = chunk_ready
            busy[position] += duration
        finish = chunk_ready
    return finish, dict(zip(labels, busy)), tuple(chunks)


def _random_stages(rng):
    resources = ["cpu", "net", "dma", "deposit"][: rng.randint(1, 4)]
    return [
        Stage(
            rng.choice(["copy", "send", "wire", "recv"]),
            rng.uniform(5.0, 500.0),
            rng.choice(resources),
            chunk_overhead_ns=rng.choice([0.0, rng.uniform(0.0, 5000.0)]),
            startup_ns=rng.choice([0.0, rng.uniform(0.0, 1e6)]),
        )
        for __ in range(rng.randint(1, 6))
    ]


class TestMatchesReferenceLoop:
    """Per-size chunk costs and positional resources change no bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pipelines_match_bit_for_bit(self, seed):
        rng = random.Random(seed)
        for __ in range(50):
            stages = _random_stages(rng)
            chunk = rng.choice([1, 7, 512, 4096, 8192, 65536])
            nbytes = rng.choice([1, chunk, chunk * rng.randint(1, 40)])
            nbytes += rng.choice([0, 0, rng.randint(1, chunk)])
            ns, busy, chunks = _reference_run(stages, nbytes, chunk)
            pipeline = StagePipeline(stages)
            fast = pipeline.run(nbytes, chunk_bytes=chunk)
            recorded = pipeline.run(nbytes, chunk_bytes=chunk, record=True)
            for result in (fast, recorded):
                assert result.ns == ns
                assert result.stage_busy_ns == busy
            assert recorded.chunks == chunks
            assert fast.chunks == ()
