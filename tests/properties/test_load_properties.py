"""Property-based tests for the traffic engine's replay guarantees.

The contracts under test (see docs/LOAD.md):

* **Replay** — the same (profile, seed, horizon) produces a
  bit-identical canonical report, for any worker count and however
  the generators are interleaved in the profile.
* **Empty workload** — a horizon too short for any arrival completes
  zero requests and reports an all-zero latency distribution.
* **Closed-loop degeneracy** — with think time 0 a client's requests
  are back to back: each issue departs exactly when the previous one
  completes, so issue order is sequential per client and the number
  of in-flight requests never exceeds the client count.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.load import (
    ClosedLoopSpec,
    LatencyStore,
    LoadEngine,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    Station,
)

_TEMPLATES = (
    RequestTemplate("small", nbytes=2048),
    RequestTemplate("large", y="64", nbytes=32768, priority=1),
)


def _open_spec(index: int, rate: float, burst: int) -> OpenLoopSpec:
    return OpenLoopSpec(
        name=f"gen{index}",
        rate_per_s=rate,
        burst=burst,
        templates=_TEMPLATES,
    )


_PROFILE_BITS = st.tuples(
    st.integers(min_value=1, max_value=4),     # generators
    st.floats(min_value=500.0, max_value=20_000.0),  # rate
    st.integers(min_value=1, max_value=4),     # burst
    st.sampled_from(["round-robin", "least-loaded", "affinity"]),
    st.sampled_from(["fifo", "priority"]),
)


@given(
    bits=_PROFILE_BITS,
    seed=st.integers(min_value=0, max_value=2**31),
    workers=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=15, deadline=None)
def test_same_seed_bit_identical_across_worker_counts(bits, seed, workers):
    count, rate, burst, dispatch, discipline = bits
    profile = LoadProfile(
        name="prop",
        dispatch=dispatch,
        discipline=discipline,
        open_loops=tuple(
            _open_spec(index, rate, burst) for index in range(count)
        ),
    )
    serial = LoadEngine(profile, seed=seed).run(5e6, workers=1)
    threaded = LoadEngine(profile, seed=seed).run(5e6, workers=workers)
    assert serial.canonical_json() == threaded.canonical_json()
    assert serial.digest() == threaded.digest()


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    order=st.permutations(range(3)),
)
@settings(max_examples=15, deadline=None)
def test_generator_interleaving_does_not_change_per_generator_streams(
    seed, order
):
    """Listing the same generators in a different order must not change
    what each generator does: arrival streams are keyed on generator
    *name*, and event ordering on content, so the completed request
    count and the latency distribution are order-invariant.  (The
    report embeds the profile verbatim, so whole-payload equality is
    deliberately not asserted — the profile listing itself differs.)"""
    specs = [_open_spec(index, 4000.0 * (index + 1), 1) for index in range(3)]
    base = LoadProfile(name="prop", open_loops=tuple(specs))
    shuffled = LoadProfile(
        name="prop", open_loops=tuple(specs[index] for index in order)
    )
    first = LoadEngine(base, seed=seed).run(5e6)
    second = LoadEngine(shuffled, seed=seed).run(5e6)
    assert first.offered == second.offered
    assert first.completed == second.completed
    assert first.latency == second.latency


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_empty_workload_reports_zero_latency(seed):
    # One expected arrival per 10 ms; a 1 ns horizon sees none
    # (the first exponential gap is astronomically unlikely to be
    # sub-nanosecond, and the draw is deterministic anyway).
    profile = LoadProfile(
        name="idle",
        open_loops=(
            OpenLoopSpec(name="sparse", rate_per_s=100.0,
                         templates=_TEMPLATES),
        ),
    )
    result = LoadEngine(profile, seed=seed).run(1.0)
    assert result.offered == 0
    assert result.completed == 0
    summary = result.latency
    assert summary["count"] == 0
    assert summary["p50"] == summary["p99"] == summary["p999"] == 0.0
    assert all(
        station["served"] == 0 and station["busy_ns"] == 0.0
        for station in result.stations.values()
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    clients=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_zero_think_closed_loop_is_back_to_back(seed, clients):
    profile = LoadProfile(
        name="b2b",
        closed_loops=(
            ClosedLoopSpec(
                name="c",
                clients=clients,
                think_ns=0.0,
                templates=(RequestTemplate("t", nbytes=2048),),
            ),
        ),
    )
    result = LoadEngine(profile, seed=seed).run(5e6)
    # Closed loop: a client's next issue departs exactly at the
    # previous completion, so the loop can never have more than
    # `clients` requests in flight and every offered request completes.
    assert result.completed == result.offered > 0
    max_depth = max(
        station["max_depth"] for station in result.stations.values()
    )
    assert max_depth <= max(0, clients - 1)
    # Per-client issue streams are sequential: with think 0 the total
    # busy time of the bottleneck station accounts for every request
    # back to back (no idle gaps while a client waits to think).
    if clients == 1:
        nic_busy = sum(
            station["busy_ns"]
            for name, station in result.stations.items()
            if name.endswith("/nic")
        )
        per_request = nic_busy / result.completed
        # Completions are spaced by the full round-trip (all legs +
        # transit), each >= the NIC service time.
        assert result.latency["max"] >= per_request


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e9),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_percentiles_are_monotone_observed_values(samples):
    store = LatencyStore()
    for sample in samples:
        store.record(sample)
    summary = store.summary()
    assert (
        summary["min"] <= summary["p50"] <= summary["p99"]
        <= summary["p999"] <= summary["max"]
    )
    # Nearest-rank: every percentile is an actual sample, and the
    # percentile function is monotone in q.
    quantiles = [store.percentile(q) for q in (0.0, 10.0, 50.0, 90.0,
                                               99.0, 99.9, 100.0)]
    assert all(value in samples for value in quantiles)
    assert quantiles == sorted(quantiles)


_STATION_OPS = st.lists(
    st.tuples(
        st.sampled_from(["offer", "pop"]),
        st.integers(min_value=0, max_value=3),        # priority
        st.sampled_from([0.0, 5.0, 50.0]),            # deadline_ns
        st.floats(min_value=1.0, max_value=20.0),     # time gap
    ),
    min_size=1,
    max_size=40,
)


@given(
    ops=_STATION_OPS,
    discipline=st.sampled_from(["fifo", "priority"]),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
@settings(max_examples=40, deadline=None)
def test_station_accounting_is_exact_under_bounded_interleavings(
    ops, discipline, capacity
):
    """Whatever the offer / reject / evict / shed interleaving, the
    station's exact accounting holds: the waiting line never exceeds
    capacity, every accepted request is eventually popped, shed, still
    queued, or was evicted, and the depth integral equals the step
    function an independent model integrates.  An unbounded station
    (``capacity=None``) accepts every offer."""
    station = Station("s", discipline, capacity=capacity)
    now = 0.0
    integral = 0.0
    depth = 0
    peak = 0
    accepted = popped = evictions = newcomer_rejects = 0
    for index, (kind, priority, deadline_ns, gap) in enumerate(ops):
        integral += depth * gap
        now += gap
        if kind == "offer":
            ok, evicted = station.offer(
                now, priority, (0, index), index, deadline_ns=deadline_ns
            )
            if ok:
                accepted += 1
                if evicted is not None:
                    evictions += 1       # net depth unchanged
                else:
                    depth += 1
            else:
                newcomer_rejects += 1
        else:
            shed, waiter, __, __ = station.finish(now)
            depth -= len(shed)
            if waiter is not None:
                depth -= 1
                popped += 1
        peak = max(peak, depth)
        assert station.depth() == depth
        assert capacity is None or depth <= capacity
    if capacity is None:
        assert newcomer_rejects == evictions == 0
    # Conservation: nothing vanishes, nothing is double-counted.
    assert accepted == popped + station.shed + station.depth() + evictions
    assert station.rejected == newcomer_rejects + evictions
    # The depth integral is exact, not sampled.
    end = now + 10.0
    integral += depth * 10.0
    summary = station.summary(end, overload=True)
    assert abs(summary["mean_depth"] - integral / end) < 1e-9
    assert summary["max_depth"] == peak
    assert summary["shed"] == station.shed
