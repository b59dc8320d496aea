"""The traffic engine: conservation, replay, faults, report shape."""

import dataclasses
from collections import Counter

import pytest

from repro.core.errors import ModelError
from repro.faults import FaultPlan
from repro.faults.spec import LinkFault
from repro.load import (
    ClosedLoopSpec,
    LoadEngine,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    Station,
    profile_by_name,
    validate_load_report,
)
from repro.load import engine as engine_module
from repro.trace import tracing

from .test_pinned_digests import MIXED, MIXED_HORIZON_NS

_HORIZON = 10_000_000.0  # 10 ms of simulated traffic

#: Report digest of the seed-7 steady profile under ``FaultPlan.chaos(7)``
#: over 20 ms: the digest inside the pinned ``load --chaos-seed 7``
#: report of ``tests/load/test_pinned_reports.py``.
_CHAOS_DIGEST = (
    "4c5e6a5d7339714e0017e5d374f6494e8cfd9739f194ad111f4737eff40e37ec"
)


def _steady():
    return profile_by_name("steady")


class TestConservation:
    def test_every_offered_request_completes(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        assert result.offered > 0
        assert result.completed == result.offered

    def test_served_counts_match_completions(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        nic_served = sum(
            summary["served"]
            for name, summary in result.stations.items()
            if name.endswith("/nic")
        )
        assert nic_served == result.completed

    def test_drain_runs_past_horizon(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        assert result.end_ns >= 0.0
        assert result.latency["count"] == result.completed


@pytest.fixture
def stations_made(monkeypatch):
    """Every station the engine builds, in build order."""
    made = []

    class Recorded(Station):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine_module, "Station", Recorded)
    return made


class TestLittlesLaw:
    @pytest.mark.parametrize("name", ["steady", "bursty", "closed", "mixed"])
    def test_depth_integral_equals_total_wait(self, name, stations_made):
        """On a run that starts and ends empty, each station's queue-depth
        integral and the summed queue waits of everyone who left its line
        — served, shed or evicted — are one quantity counted two ways."""
        if name == "mixed":
            profile, horizon_ns = MIXED, MIXED_HORIZON_NS
        else:
            profile, horizon_ns = profile_by_name(name), _HORIZON
        LoadEngine(profile, seed=7).run(horizon_ns)
        assert len(stations_made) == 3 * profile.nodes
        assert sum(station.wait_ns for station in stations_made) > 0.0
        for station in stations_made:
            assert station.depth() == 0 and station.backlog() == 0
            gap = abs(station._depth_integral - station.wait_ns)
            assert gap <= 1e-9 * max(1.0, station.wait_ns), station.name


class _InstantOpenLoop(OpenLoopSpec):
    """Three open-loop arrivals, all at time 0."""

    def arrivals(self, seed, horizon_ns):
        for __ in range(3):
            yield 0.0, self.templates[0]


class TestEventSources:
    def test_equal_time_events_follow_the_key_across_sources(
        self, monkeypatch
    ):
        """Open-loop arrivals come from their presorted list, closed-loop
        issues from the event heap.  At seed 7 generators ``a``, ``d``
        and ``e`` share a home NIC, and all nine requests arrive there at
        time 0: they must reach it in identity order, whichever source
        holds them."""
        offers = []

        class Recorded(Station):
            def offer(self, now_ns, priority, identity, *rest):
                offers.append((now_ns, identity))
                return super().offer(now_ns, priority, identity, *rest)

        monkeypatch.setattr(engine_module, "Station", Recorded)
        profile = LoadProfile(
            name="tied",
            nodes=2,
            open_loops=(_InstantOpenLoop(name="d", rate_per_s=1.0),),
            closed_loops=(
                ClosedLoopSpec(name="a", clients=3),
                ClosedLoopSpec(name="e", clients=3),
            ),
        )
        engine = LoadEngine(profile, seed=7)
        assert {engine._home(name) for name in "ade"} == {1}
        engine.run(1.0)
        at_zero = [identity for now_ns, identity in offers if now_ns == 0.0]
        assert {identity[0] for identity in at_zero} == set("ade")
        assert at_zero == sorted(at_zero)


class TestReplay:
    @pytest.mark.parametrize("name", ("steady", "bursty", "closed"))
    def test_same_seed_is_bit_identical(self, name):
        profile = profile_by_name(name)
        first = LoadEngine(profile, seed=7).run(_HORIZON)
        again = LoadEngine(profile, seed=7).run(_HORIZON)
        assert first.canonical_json() == again.canonical_json()
        assert first.digest() == again.digest()

    def test_different_seeds_differ(self):
        first = LoadEngine(_steady(), seed=7).run(_HORIZON)
        other = LoadEngine(_steady(), seed=8).run(_HORIZON)
        assert first.digest() != other.digest()

    def test_workers_do_not_change_the_payload(self):
        profile = LoadProfile(
            name="multi",
            open_loops=tuple(
                OpenLoopSpec(
                    name=f"gen{index}",
                    rate_per_s=2000.0,
                    templates=(RequestTemplate(f"t{index}", nbytes=4096),),
                )
                for index in range(5)
            ),
        )
        serial = LoadEngine(profile, seed=7).run(_HORIZON, workers=1)
        threaded = LoadEngine(profile, seed=7).run(_HORIZON, workers=4)
        assert serial.canonical_json() == threaded.canonical_json()

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError):
            LoadEngine(_steady(), seed=-1)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ModelError):
            LoadEngine(_steady(), seed=7).run(0.0)


class TestFaults:
    def test_chaos_plan_degrades_the_tail(self):
        healthy = LoadEngine(_steady(), seed=7).run(_HORIZON)
        chaotic = LoadEngine(
            _steady(), seed=7, faults=FaultPlan.chaos(7)
        ).run(_HORIZON)
        assert chaotic.latency["p99"] > healthy.latency["p99"]

    def test_empty_plan_is_bit_identical_to_none(self):
        healthy = LoadEngine(_steady(), seed=7).run(_HORIZON)
        empty = LoadEngine(
            _steady(), seed=7, faults=FaultPlan(seed=7)
        ).run(_HORIZON)
        assert healthy.canonical_json() == empty.canonical_json()

    def test_plan_is_embedded_in_the_report(self):
        plan = FaultPlan.chaos(11)
        result = LoadEngine(_steady(), seed=7, faults=plan).run(_HORIZON)
        payload = result.to_dict()
        assert payload["faults"] == plan.to_dict()
        assert validate_load_report(payload) == []


def _shape(template):
    return (template.x, template.y, template.nbytes, template.style)


def _spy(engine, name, calls):
    """Record the arguments of every call to one of ``engine``'s methods."""
    method = getattr(engine, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)

    setattr(engine, name, spy)


class TestRouteMemo:
    def test_healthy_run_prices_each_shape_and_binds_each_route_once(self):
        profile = _steady()
        engine = LoadEngine(profile, seed=7)
        transfers, priced = [], []
        _spy(engine.runtime, "transfer", transfers)
        _spy(engine, "_price", priced)
        result = engine.run(_HORIZON)
        shapes = {
            _shape(template)
            for spec in profile.generators for template in spec.templates
        }
        assert len(transfers) == len(shapes)
        routes = Counter(
            _shape(template) + (src, dst) for template, src, dst in priced
        )
        assert set(routes.values()) == {1}
        assert sum(routes.values()) < result.offered

    def test_pairs_with_different_link_derates_get_different_legs(self):
        chaos = FaultPlan.chaos(7)
        plan = dataclasses.replace(
            chaos, links=chaos.links + (LinkFault(src=0, dst=1, derate=0.1),)
        )
        engine = LoadEngine(_steady(), seed=7, faults=plan)
        topology = engine.runtime.machine.topology()
        # 0 -> 2 crosses the derated 0 -> 1 link; 0 -> 3 does not, and
        # neither destination is a slow node.
        derated, clear = (
            plan.route_derate(topology.route(0, dst)) for dst in (2, 3)
        )
        assert derated < clear
        assert plan.node_slowdown(2) == plan.node_slowdown(3)
        large = _steady().open_loops[0].templates[-1]

        def service(route):
            legs, transit_ns, __ = route
            return [service_ns for __, service_ns in legs], transit_ns

        near = engine._fill_route(large, 0, 2)
        assert engine._fill_route(large, 0, 2) is near
        assert service(near) != service(engine._fill_route(large, 0, 3))

    def test_traced_chaos_run_matches_untraced_and_pinned_report(self):
        horizon_ns = 20_000_000.0
        plan = FaultPlan.chaos(7)
        untraced = LoadEngine(_steady(), seed=7, faults=plan).run(horizon_ns)
        with tracing():
            traced = LoadEngine(_steady(), seed=7, faults=plan).run(horizon_ns)
        assert traced.canonical_json() == untraced.canonical_json()
        assert untraced.digest() == _CHAOS_DIGEST


class TestBackpressure:
    def test_overload_builds_queues(self):
        hot = LoadProfile(
            name="hot",
            open_loops=(
                OpenLoopSpec(
                    name="flood",
                    rate_per_s=100_000.0,
                    templates=(RequestTemplate("big", y="64", nbytes=65536),),
                ),
            ),
        )
        result = LoadEngine(hot, seed=7).run(_HORIZON)
        max_depth = max(
            summary["max_depth"] for summary in result.stations.values()
        )
        assert max_depth > 1
        # The generator's home-node NIC is the bottleneck: it tops out.
        hottest = max(
            summary["utilization"]
            for name, summary in result.stations.items()
            if name.endswith("/nic")
        )
        assert hottest > 0.9

    def test_closed_loop_self_limits(self):
        profile = LoadProfile(
            name="closed1",
            closed_loops=(
                ClosedLoopSpec(
                    name="c",
                    clients=1,
                    think_ns=0.0,
                    templates=(RequestTemplate("t", nbytes=2048),),
                ),
            ),
        )
        result = LoadEngine(profile, seed=7).run(_HORIZON)
        # One client, zero think: exactly one request in flight at a
        # time, so no queue ever forms.
        assert all(
            summary["max_depth"] == 0
            for summary in result.stations.values()
        )
        assert result.completed == result.offered > 0


class TestReport:
    def test_payload_validates(self):
        payload = LoadEngine(_steady(), seed=7).run(_HORIZON).to_dict()
        assert validate_load_report(payload) == []

    def test_validator_catches_damage(self):
        payload = LoadEngine(_steady(), seed=7).run(_HORIZON).to_dict()
        payload["schema"] = "bogus"
        payload["latency_ns"]["p50"] = -1.0
        del payload["offered"]
        errors = validate_load_report(payload)
        assert any("schema" in error for error in errors)
        assert any("p50" in error for error in errors)
        assert any("offered" in error for error in errors)

    def test_profile_in_payload_replays(self):
        payload = LoadEngine(_steady(), seed=7).run(_HORIZON).to_dict()
        rebuilt = LoadProfile.from_dict(payload["profile"])
        again = LoadEngine(rebuilt, seed=payload["seed"]).run(
            payload["duration_ns"]
        )
        assert again.to_dict() == payload

    def test_stats_are_not_canonical(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        assert "events" in result.stats
        assert "stats" not in result.to_dict()
        assert "events" not in result.to_dict()
