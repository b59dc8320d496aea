"""Load tracing: the ``load.*`` metrics restate the report's own tallies.

The engine counts requests once, in the report's per-generator tallies,
and hands the run totals and the latency samples to an active tracer
when the event loop ends, also when an aborted transfer ends it.  Tracing must not move a byte of the report, and
every traced counter must equal the total the report states.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.errors import TransferAbortedError
from repro.faults import FaultPlan, FragmentFault, RetryPolicy
from repro.load import (
    LoadEngine,
    OverloadSpec,
    profile_by_name,
)
from repro.runtime.engine import CommRuntime
from repro.trace import chrome_trace, tracing

from .test_pinned_digests import BENCH, BENCH_DIGEST, BENCH_HORIZON_NS


def _overloaded():
    """3.2x the steady load behind a tight admission queue, with
    deadlines and backoff retries: rejects, sheds and retries all
    happen within 10 ms."""
    profile = profile_by_name("steady").scaled(3.2)
    return dataclasses.replace(
        profile,
        overload=OverloadSpec(
            admission="bounded-queue", queue_limit=8, reject_retry="backoff"
        ),
        open_loops=tuple(
            dataclasses.replace(
                spec,
                templates=tuple(
                    dataclasses.replace(t, deadline_ns=2_000_000.0)
                    for t in spec.templates
                ),
            )
            for spec in profile.open_loops
        ),
    )


def _traced(profile, horizon_ns):
    with tracing() as tracer:
        result = LoadEngine(profile, seed=7).run(horizon_ns)
    return result, tracer


def _assert_counters_restate_report(result, tracer):
    totals = dict(result.to_dict().get("overload", {}).get("totals", {}))
    totals["completed"] = result.completed
    for key in ("completed", "retried", "evicted", "shed", "rejected", "broken"):
        assert tracer.metrics.counter(f"load.{key}") == totals.get(key, 0), key
    latency = tracer.metrics.histogram("load.latency_ns")
    assert latency.count == result.latency["count"]
    if latency.count:
        assert latency.minimum == result.latency["min"]
        assert latency.maximum == result.latency["max"]
    # One counter sample per non-zero total, not one per request.
    names = [
        sample.name for sample in tracer.counters()
        if sample.name.startswith("load.")
    ]
    assert len(names) == len(set(names))


class TestBenchProfile:
    def test_traced_and_untraced_digests_are_pinned(self):
        untraced = LoadEngine(BENCH, seed=7).run(BENCH_HORIZON_NS)
        traced, tracer = _traced(BENCH, BENCH_HORIZON_NS)
        assert untraced.digest() == BENCH_DIGEST
        assert traced.digest() == BENCH_DIGEST
        _assert_counters_restate_report(traced, tracer)
        assert tracer.metrics.counter("load.completed") > 0


class TestOverloadedProfile:
    def test_counters_equal_the_overload_totals(self):
        result, tracer = _traced(_overloaded(), 10_000_000.0)
        untraced = LoadEngine(_overloaded(), seed=7).run(10_000_000.0)
        assert result.canonical_json() == untraced.canonical_json()
        _assert_counters_restate_report(result, tracer)
        for key in ("rejected", "shed", "retried"):
            assert tracer.metrics.counter(f"load.{key}") > 0, key

    @pytest.mark.parametrize("name", ["steady", "bursty", "closed"])
    def test_registered_profiles(self, name):
        _assert_counters_restate_report(
            *_traced(profile_by_name(name), 10_000_000.0)
        )


class TestAbortedRun:
    def test_requests_counted_before_the_abort_are_traced(self):
        """An unprotected run raises on an aborted transfer; the requests
        it completed before that still reach the tracer."""
        plan = FaultPlan(
            seed=3,
            fragments=(FragmentFault(loss=0.5),),
            retry=RetryPolicy(max_attempts=2, retry_budget=0.5),
        )
        engine = LoadEngine(profile_by_name("steady"), seed=7, faults=plan)
        with tracing() as tracer:
            with pytest.raises(TransferAbortedError):
                engine.run(2e7)
        completed = tracer.metrics.counter("load.completed")
        assert completed > 0
        assert tracer.metrics.histogram("load.latency_ns").count == completed


#: A protected run whose fault plan aborts most routes: the seed-7
#: steady profile behind a bounded queue, with 97 % fragment loss.
_ABORTING_PLAN = FaultPlan(seed=1, fragments=(FragmentFault(loss=0.97),))

#: SHA-256 of its report JSON and of its trace (Chrome trace plus the
#: counter samples).
_ABORTING_PINS = (
    "b2a9933f4b2ae14d5a192935fdefedb8a005ef85a02e468783d7ff4e71bc9b71",
    "d49a29fb8664d877362a80942aedb4de0c91d4a2de33bcc85183852f59e6b89f",
)


class TestMemoizedAborts:
    """An aborted route is simulated once; repeats replay its trace."""

    @pytest.fixture
    def aborting(self, monkeypatch):
        transfers = []
        transfer = CommRuntime.transfer

        def counted(runtime, *args, **kwargs):
            transfers.append(kwargs.get("src"))
            return transfer(runtime, *args, **kwargs)

        monkeypatch.setattr(CommRuntime, "transfer", counted)
        profile = dataclasses.replace(
            profile_by_name("steady"),
            overload=OverloadSpec(admission="bounded-queue"),
        )
        engine = LoadEngine(profile, seed=7, faults=_ABORTING_PLAN)
        with tracing() as tracer:
            result = engine.run(20_000_000.0)
        return engine, result, tracer, transfers

    def test_report_and_trace_are_pinned(self, aborting):
        __, result, tracer, __ = aborting
        samples = [(c.name, c.value, c.at_ns) for c in tracer.counters()]
        trace = json.dumps([chrome_trace(tracer), samples], sort_keys=True)
        assert (
            hashlib.sha256(result.canonical_json().encode()).hexdigest(),
            hashlib.sha256(trace.encode()).hexdigest(),
        ) == _ABORTING_PINS

    def test_each_route_is_simulated_once(self, aborting):
        engine, result, tracer, transfers = aborting
        broken = result.to_dict()["overload"]["totals"]["broken"]
        # Every broken arrival still traces its abort ...
        assert tracer.metrics.counter("faults.aborts") == broken == 62
        # ... but only the first on each route runs the transfer.
        assert len(engine._aborts) == 11 and len(engine._prices) == 3
        assert len(transfers) == 14
