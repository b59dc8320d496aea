"""Tests for the tracer core (repro.trace.tracer)."""

import pytest

from repro.trace import Tracer, current_tracer, tracing


class TestScoping:
    def test_off_by_default(self):
        assert current_tracer() is None

    def test_installed_inside_block(self):
        with tracing() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_nested_blocks_shadow(self):
        with tracing() as outer:
            with tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_explicit_tracer_reused(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert current_tracer() is None


class TestSpans:
    def test_span_recorded(self):
        tracer = Tracer()
        tracer.span("gather", track="cpu", start_ns=10.0, duration_ns=5.0,
                    category="stage", chunk=3)
        (span,) = tracer.spans()
        assert span.name == "gather"
        assert span.track == "cpu"
        assert span.end_ns == 15.0
        assert span.args["chunk"] == 3

    def test_category_filter(self):
        tracer = Tracer()
        tracer.span("a", track="t", start_ns=0, duration_ns=1, category="phase")
        tracer.span("b", track="t", start_ns=1, duration_ns=1, category="stage")
        assert [s.name for s in tracer.spans("phase")] == ["a"]

    def test_tracks_in_first_appearance_order(self):
        tracer = Tracer()
        tracer.span("a", track="net", start_ns=0, duration_ns=1)
        tracer.span("b", track="cpu", start_ns=0, duration_ns=1)
        tracer.span("c", track="net", start_ns=1, duration_ns=1)
        assert tracer.tracks() == ("net", "cpu")

    def test_end_ns(self):
        tracer = Tracer()
        assert tracer.end_ns() == 0.0
        tracer.span("a", track="t", start_ns=5.0, duration_ns=10.0)
        tracer.span("b", track="t", start_ns=0.0, duration_ns=2.0)
        assert tracer.end_ns() == 15.0


class TestCounters:
    def test_count_updates_metrics_and_samples(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 4.0)
        assert tracer.metrics.counter("hits") == 5.0
        assert [c.value for c in tracer.counters()] == [1.0, 4.0]

    def test_observe_feeds_histogram(self):
        tracer = Tracer()
        tracer.observe("wait_ns", 10.0)
        tracer.observe("wait_ns", 30.0)
        assert tracer.metrics.histogram("wait_ns").mean == 20.0

    def test_len_counts_spans(self):
        tracer = Tracer()
        assert len(tracer) == 0
        tracer.span("a", track="t", start_ns=0, duration_ns=1)
        assert len(tracer) == 1
