"""Overload protection: specs, admission policies, engine behavior.

The two invariants this file pins hardest:

* protection OFF is a no-op — seed-7 reports are *byte-identical* to
  the pre-protection engine (digests pinned below);
* protection ON bounds the tail — at 3x capacity the unprotected p99
  grows with duration while the bounded-queue p99 stays put.
"""

import dataclasses

import pytest

from repro.core.errors import LoadError, TransferAbortedError
from repro.faults import FaultPlan, FragmentFault, RetryPolicy
from repro.load import (
    LoadEngine,
    OverloadSpec,
    RequestTemplate,
    admission_by_name,
    profile_by_name,
    validate_load_report,
)
from repro.load.overload import (
    AdaptiveAdmission,
    BoundedQueueAdmission,
    TokenBucketAdmission,
)

_HORIZON = 10_000_000.0

#: Nine fragments in ten lost, two attempts: most transfers abort.
_LOSSY = FaultPlan(
    seed=3,
    fragments=(FragmentFault(loss=0.9),),
    retry=RetryPolicy(max_attempts=2, retry_budget=0.5),
)

#: Canonical seed-7 digests of the pre-protection engine.  The
#: protection-off path must reproduce these byte for byte.
_PINNED = {
    "steady": "6efcdef6991b2f0c47f5c9db4ba2c8ff8a36c0666c7abcc3bbfe6521674f47c5",
    "bursty": "e2d18397d7426837dc1d7cedbd2120bd0e0df1927f19d89b17bfd7956a6b2cde",
    "closed": "0c28fbbf2cb42a56e9356d2a064ac97ca501a9fea4ef264fbd83391fa2965e39",
}


def _protected(name="steady", multiplier=3.2, **spec_kwargs):
    spec_kwargs.setdefault("admission", "bounded-queue")
    spec_kwargs.setdefault("queue_limit", 32)
    return dataclasses.replace(
        profile_by_name(name).scaled(multiplier),
        overload=OverloadSpec(**spec_kwargs),
    )


class TestOverloadSpec:
    def test_default_is_noop(self):
        assert OverloadSpec().is_noop()

    @pytest.mark.parametrize("kwargs", [
        {"admission": "bounded-queue"},
        {"station_capacity": 8},
        {"breaker_threshold": 2},
    ])
    def test_any_protection_breaks_noop(self, kwargs):
        assert not OverloadSpec(**kwargs).is_noop()

    @pytest.mark.parametrize("kwargs", [
        {"admission": "nope"},
        {"queue_limit": 0},
        {"station_capacity": -1},
        {"admission": "token-bucket"},          # needs a rate
        {"token_rate_per_s": -1.0},
        {"token_burst": 0},
        {"admission": "adaptive"},              # needs a target
        {"target_p99_ns": -1.0},
        {"reject_retry": "maybe"},
        {"max_retries": -1},
        {"retry_budget": 1.5},
        {"retry_budget": -0.1},
        {"breaker_threshold": -1},
        {"breaker_probes": 0},
        {"breaker_derate_trip": 2.0},
        {"retry_backoff_ns": -1.0},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(LoadError):
            OverloadSpec(**kwargs)

    def test_round_trip(self):
        spec = OverloadSpec(
            admission="adaptive", target_p99_ns=5e6,
            station_capacity=16, reject_retry="backoff",
            breaker_threshold=3,
        )
        assert OverloadSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(LoadError):
            OverloadSpec.from_dict({"admission": "none", "bogus": 1})


class TestAdmissionPolicies:
    def test_factory_returns_the_named_policy(self):
        assert isinstance(
            admission_by_name(
                OverloadSpec(admission="bounded-queue"), 7
            ),
            BoundedQueueAdmission,
        )
        assert isinstance(
            admission_by_name(
                OverloadSpec(
                    admission="token-bucket", token_rate_per_s=1000.0
                ), 7,
            ),
            TokenBucketAdmission,
        )

    def test_bounded_queue_gates_on_backlog(self):
        policy = admission_by_name(
            OverloadSpec(admission="bounded-queue", queue_limit=4), 7
        )
        assert policy.admit(0.0, 3, ("g", 0))
        assert not policy.admit(0.0, 4, ("g", 1))

    def test_token_bucket_exhausts_and_refills(self):
        policy = admission_by_name(
            OverloadSpec(
                admission="token-bucket",
                token_rate_per_s=1e9,  # one token per simulated ns
                token_burst=2,
            ),
            7,
        )
        assert policy.admit(0.0, 0, ("g", 0))
        assert policy.admit(0.0, 0, ("g", 1))
        assert not policy.admit(0.0, 0, ("g", 2))   # bucket dry
        assert policy.admit(5.0, 0, ("g", 3))       # refilled

    def test_adaptive_backs_off_over_target_and_recovers(self):
        policy = admission_by_name(
            OverloadSpec(admission="adaptive", target_p99_ns=100.0), 7
        )
        for __ in range(policy._PERIOD):
            policy.observe(0.0, 1_000.0)            # way over target
        assert policy._fraction < 1.0
        shrunk = policy._fraction
        for __ in range(policy._PERIOD * policy._WINDOW):
            policy.observe(0.0, 1.0)                # way under target
        assert policy._fraction > shrunk

    def test_adaptive_gate_is_deterministic(self):
        spec = OverloadSpec(admission="adaptive", target_p99_ns=100.0)
        first = admission_by_name(spec, 7)
        again = admission_by_name(spec, 7)
        for policy in (first, again):
            for __ in range(policy._PERIOD):
                policy.observe(0.0, 1_000.0)
        draws = [
            policy.admit(0.0, 0, ("g", index))
            for policy in (first, again)
            for index in range(50)
        ]
        assert draws[:50] == draws[50:]
        assert not all(draws[:50])                  # fraction < 1 sheds


class TestProtectionOffIdentity:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_unprotected_digest_matches_pre_protection_engine(self, name):
        result = LoadEngine(profile_by_name(name), seed=7).run(_HORIZON)
        assert result.digest() == _PINNED[name]
        assert "overload" not in result.to_dict()

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_noop_spec_is_byte_identical_to_no_spec(self, name):
        profile = profile_by_name(name)
        with_noop = dataclasses.replace(profile, overload=OverloadSpec())
        plain = LoadEngine(profile, seed=7).run(_HORIZON)
        noop = LoadEngine(with_noop, seed=7).run(_HORIZON)
        assert noop.canonical_json() == plain.canonical_json()


class TestAbortedTransfers:
    """An aborted transfer escapes an unprotected run; protection counts it."""

    def test_unprotected_run_raises(self):
        engine = LoadEngine(profile_by_name("steady"), seed=7, faults=_LOSSY)
        with pytest.raises(TransferAbortedError):
            engine.run(2e7)

    def test_protected_run_counts_aborts_as_broken(self):
        profile = dataclasses.replace(
            profile_by_name("steady"),
            overload=OverloadSpec(admission="bounded-queue"),
        )
        result = LoadEngine(profile, seed=7, faults=_LOSSY).run(2e7)
        assert result.to_dict()["overload"]["totals"]["broken"] > 0


class TestProtectedEngine:
    def test_bounded_queue_rejects_and_bounds_p99(self):
        protected = LoadEngine(_protected(), seed=7).run(_HORIZON * 2)
        unprotected = LoadEngine(
            profile_by_name("steady").scaled(3.2), seed=7
        ).run(_HORIZON * 2)
        section = protected.to_dict()["overload"]
        assert section["totals"]["rejected"] > 0
        assert (
            protected.latency["p99"] < unprotected.latency["p99"]
        )

    def test_unprotected_p99_grows_with_duration_protected_does_not(self):
        base = profile_by_name("steady").scaled(3.2)
        u_short = LoadEngine(base, seed=7).run(_HORIZON)
        u_long = LoadEngine(base, seed=7).run(_HORIZON * 4)
        # Open-loop overload: the queue (and the tail) never stops
        # growing, so doubling the horizon keeps inflating p99 ...
        assert u_long.latency["p99"] > 2.0 * u_short.latency["p99"]
        p_short = LoadEngine(_protected(), seed=7).run(_HORIZON)
        p_long = LoadEngine(_protected(), seed=7).run(_HORIZON * 4)
        # ... while the bounded queue pins it (well under 2x growth).
        assert p_long.latency["p99"] < 2.0 * p_short.latency["p99"]

    def test_protected_run_replays_bit_identically(self):
        first = LoadEngine(_protected(), seed=7).run(_HORIZON)
        again = LoadEngine(_protected(), seed=7).run(_HORIZON)
        assert first.canonical_json() == again.canonical_json()

    def test_protected_report_validates(self):
        result = LoadEngine(
            _protected(station_capacity=16, reject_retry="backoff"),
            seed=7,
        ).run(_HORIZON)
        payload = result.to_dict()
        assert validate_load_report(payload) == []
        assert payload["overload"]["schema"] == "repro-load-overload/1"

    def test_accounting_balances(self):
        result = LoadEngine(
            _protected(station_capacity=16), seed=7
        ).run(_HORIZON)
        section = result.to_dict()["overload"]
        for counts in section["generators"].values():
            # Every offered or retried arrival was accepted, rejected,
            # or broken — nothing vanishes at the door.
            assert (
                counts["offered"] + counts["retried"]
                == counts["accepted"] + counts["rejected"]
                + counts["broken"]
            )
            # Every accepted request completed, was deadline-shed, or
            # was evicted mid-route by a bounded station.
            assert (
                counts["accepted"]
                == counts["completed"] + counts["shed"] + counts["evicted"]
            )

    def test_deadlines_shed_with_exact_station_accounting(self):
        profile = profile_by_name("steady").scaled(3.2)
        deadline = dataclasses.replace(
            profile,
            open_loops=tuple(
                dataclasses.replace(spec, templates=tuple(
                    dataclasses.replace(t, deadline_ns=2_000_000.0)
                    for t in spec.templates
                ))
                for spec in profile.open_loops
            ),
        )
        result = LoadEngine(deadline, seed=7).run(_HORIZON * 2)
        payload = result.to_dict()
        totals = payload["overload"]["totals"]
        assert totals["shed"] > 0
        station_sheds = sum(
            summary["shed"] for summary in payload["stations"].values()
        )
        assert station_sheds == totals["shed"]
        # Shed wait is accounted and each shed waited past its deadline.
        total_wait = sum(
            summary["shed_wait_ns"]
            for summary in payload["stations"].values()
        )
        assert total_wait > totals["shed"] * 2_000_000.0

    def test_closed_loop_survives_rejections(self):
        profile = dataclasses.replace(
            profile_by_name("closed").scaled(2.0),
            overload=OverloadSpec(admission="bounded-queue", queue_limit=2),
        )
        result = LoadEngine(profile, seed=7).run(_HORIZON * 2)
        section = result.to_dict()["overload"]
        counts = section["generators"]["clients"]
        assert counts["rejected"] > 0
        # Rejected clients reissued: far more offers than one per client.
        assert counts["offered"] > 128

    def test_backoff_retries_recover_rejections(self):
        drop = LoadEngine(_protected(), seed=7).run(_HORIZON)
        retry = LoadEngine(
            _protected(reject_retry="backoff", max_retries=3),
            seed=7,
        ).run(_HORIZON)
        d = drop.to_dict()["overload"]["totals"]
        r = retry.to_dict()["overload"]["totals"]
        assert d["retried"] == 0
        assert r["retried"] > 0
        assert retry.completed > drop.completed

    def test_breakers_open_under_a_lossy_fault_plan(self):
        plan = _LOSSY
        profile = _protected(breaker_threshold=2, breaker_cooldown_ns=2e6)
        result = LoadEngine(profile, seed=7, faults=plan).run(_HORIZON * 2)
        section = result.to_dict()["overload"]
        assert section["totals"]["broken"] > 0
        breakers = section["breakers"]
        assert breakers, "lossy links should surface in the board"
        assert any(b["opened"] > 0 for b in breakers.values())
        # The timeline replays: states are drawn from the machine's
        # vocabulary and transition stamps never run backwards.
        for link in breakers.values():
            stamps = [t["at_ns"] for t in link["transitions"]]
            assert stamps == sorted(stamps)
        # And the whole protected+faulted run is still bit-identical.
        again = LoadEngine(profile, seed=7, faults=plan).run(_HORIZON * 2)
        assert result.canonical_json() == again.canonical_json()

    def test_retry_budget_zero_disables_retries(self):
        result = LoadEngine(
            _protected(
                reject_retry="backoff", max_retries=3, retry_budget=0.0
            ),
            seed=7,
        ).run(_HORIZON)
        assert result.to_dict()["overload"]["totals"]["retried"] == 0
