"""Workload specs: validation, serialization, deterministic draws."""

import math

import pytest

from repro.contract import draws
from repro.core.errors import ModelError
from repro.load import (
    PROFILES,
    ClosedLoopSpec,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    profile_by_name,
    uniform,
)
from repro.load.workload import _BLOCK, exponential


class TestUniform:
    def test_pure_function_of_seed_and_key(self):
        assert uniform(7, "a", 1) == uniform(7, "a", 1)
        assert uniform(7, "a", 1) != uniform(7, "a", 2)
        assert uniform(7, "a", 1) != uniform(8, "a", 1)

    def test_range(self):
        for draw in range(50):
            value = uniform(3, "range", draw)
            assert 0.0 <= value < 1.0


class TestSpecs:
    def test_template_rejects_nonpositive_bytes(self):
        with pytest.raises(ModelError):
            RequestTemplate("bad", nbytes=0)

    def test_open_loop_rejects_bad_rate_and_burst(self):
        template = (RequestTemplate("t"),)
        with pytest.raises(ModelError):
            OpenLoopSpec("g", rate_per_s=0.0, templates=template)
        with pytest.raises(ModelError):
            OpenLoopSpec("g", rate_per_s=10.0, burst=0, templates=template)

    def test_closed_loop_rejects_bad_clients_and_think(self):
        template = (RequestTemplate("t"),)
        with pytest.raises(ModelError):
            ClosedLoopSpec("g", clients=0, templates=template)
        with pytest.raises(ModelError):
            ClosedLoopSpec("g", clients=1, think_ns=-1.0, templates=template)

    def test_profile_needs_generators_and_nodes(self):
        with pytest.raises(ModelError):
            LoadProfile(name="empty")
        with pytest.raises(ModelError):
            LoadProfile(
                name="tiny",
                nodes=1,
                open_loops=(OpenLoopSpec("g", rate_per_s=1.0),),
            )

    def test_profile_rejects_duplicate_generator_names(self):
        with pytest.raises(ModelError):
            LoadProfile(
                name="dup",
                open_loops=(OpenLoopSpec("g", rate_per_s=1.0),),
                closed_loops=(ClosedLoopSpec("g", clients=1),),
            )

    def test_profile_rejects_unknown_discipline(self):
        with pytest.raises(ModelError):
            LoadProfile(
                name="bad",
                discipline="lifo",
                open_loops=(OpenLoopSpec("g", rate_per_s=1.0),),
            )


class TestArrivals:
    def test_stream_is_reproducible_and_sorted(self):
        spec = OpenLoopSpec("g", rate_per_s=50_000.0)
        first = list(spec.arrivals(seed=7, horizon_ns=1e6))
        again = list(spec.arrivals(seed=7, horizon_ns=1e6))
        assert first == again
        times = [time_ns for time_ns, __ in first]
        assert times == sorted(times)
        assert all(time_ns < 1e6 for time_ns in times)

    def test_mean_gap_tracks_rate(self):
        spec = OpenLoopSpec("g", rate_per_s=100_000.0)
        times = [t for t, __ in spec.arrivals(seed=3, horizon_ns=1e9)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert math.isclose(mean, 1e9 / 100_000.0, rel_tol=0.1)

    def test_burst_multiplies_requests_per_arrival(self):
        plain = OpenLoopSpec("g", rate_per_s=10_000.0)
        bursty = OpenLoopSpec("g", rate_per_s=10_000.0, burst=4)
        n_plain = len(list(plain.arrivals(seed=7, horizon_ns=1e7)))
        n_bursty = len(list(bursty.arrivals(seed=7, horizon_ns=1e7)))
        assert n_bursty == 4 * n_plain


def _reference_arrivals(spec, seed, horizon_ns):
    """The open-loop stream as first written: one draw per key."""
    mean_gap_ns = 1e9 / spec.rate_per_s
    gap = draws(seed, "gap", spec.name)
    pick = draws(seed, "template", spec.name)
    templates = spec.templates
    time_ns = 0.0
    index = 0
    while True:
        time_ns += exponential(mean_gap_ns, gap(index))
        if time_ns >= horizon_ns:
            return
        for flight in range(spec.burst):
            if len(templates) == 1:
                template = templates[0]
            else:
                draw = pick(index, flight)
                template = templates[
                    min(len(templates) - 1, int(draw * len(templates)))
                ]
            yield time_ns, template
        index += 1


_TEMPLATES = (
    RequestTemplate("small", nbytes=2048),
    RequestTemplate("large", y="64", nbytes=65536),
    RequestTemplate("urgent", nbytes=1024, priority=1),
)


class TestBlockedArrivals:
    """The batched stream against the per-draw loop, bit for bit."""

    @pytest.mark.parametrize("burst", [1, 3])
    @pytest.mark.parametrize("shapes", [1, 3])
    def test_blocks_draw_the_reference_stream(self, burst, shapes):
        spec = OpenLoopSpec(
            "g", rate_per_s=1e6, burst=burst, templates=_TEMPLATES[:shapes]
        )
        # About four blocks of bursts at the mean gap of 1 000 ns.
        stream = _reference_arrivals(spec, 5, 4 * _BLOCK * 1000.0)
        bursts = [time_ns for time_ns, __ in stream][::burst]
        assert len(bursts) > 3 * _BLOCK
        horizons = [
            bursts[0],               # ends before the first arrival
            bursts[_BLOCK // 2],     # mid-block
            bursts[_BLOCK],          # exactly one full block
            bursts[_BLOCK] + 1.0,    # one arrival into the second block
            bursts[3 * _BLOCK - 7],  # three blocks
        ]
        for horizon_ns in horizons:
            expected = list(_reference_arrivals(spec, 5, horizon_ns))
            got = list(spec.arrivals(5, horizon_ns))
            assert [time_ns for time_ns, __ in got] == [
                time_ns for time_ns, __ in expected
            ]
            assert all(
                mine[1] is theirs[1] for mine, theirs in zip(got, expected)
            )
        assert list(spec.arrivals(5, bursts[0])) == []


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profiles_round_trip(self, name):
        profile = profile_by_name(name)
        assert LoadProfile.from_dict(profile.to_dict()) == profile

    def test_unknown_profile_is_model_error(self):
        with pytest.raises(ModelError):
            profile_by_name("nope")
