"""The latency-vs-load curve sweep: validation, knee, determinism."""

import dataclasses

import pytest

from repro.core.errors import LoadError
from repro.load import OverloadSpec, profile_by_name
from repro.sweep import CURVE_SCHEMA, run_load_curve
from repro.sweep.loadcurve import _check_multipliers, _find_knee

_HORIZON = 10_000_000.0


def _curve(profile=None, multipliers=(0.5, 1.0, 2.0, 4.0), **kwargs):
    if profile is None:
        profile = profile_by_name("steady")
    return run_load_curve(
        profile, seed=7, horizon_ns=_HORIZON,
        multipliers=multipliers, **kwargs,
    )


class TestValidation:
    @pytest.mark.parametrize("multipliers", [
        (),
        (0.0, 1.0),
        (-1.0,),
        (1.0, 1.0),
        (2.0, 1.0),
        (1.0, float("inf")),
        (float("nan"),),
    ])
    def test_bad_multipliers_raise(self, multipliers):
        with pytest.raises(LoadError):
            _check_multipliers(multipliers)

    def test_knee_factor_must_exceed_one(self):
        with pytest.raises(LoadError):
            _curve(knee_factor=1.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(LoadError):
            run_load_curve(
                profile_by_name("steady"), seed=7, horizon_ns=0.0
            )

    @pytest.mark.parametrize("horizon_ns", [float("inf"), float("nan")])
    def test_duration_must_be_finite(self, horizon_ns):
        with pytest.raises(LoadError, match="finite"):
            run_load_curve(
                profile_by_name("steady"), seed=7, horizon_ns=horizon_ns
            )


class TestKnee:
    def test_flat_curve_has_no_knee(self):
        points = [
            {"multiplier": m, "p99_ns": 100.0} for m in (1.0, 2.0, 3.0)
        ]
        assert _find_knee(points, 3.0) is None

    def test_knee_is_first_blowup(self):
        points = [
            {"multiplier": 1.0, "p99_ns": 100.0},
            {"multiplier": 2.0, "p99_ns": 250.0},
            {"multiplier": 3.0, "p99_ns": 900.0},
            {"multiplier": 4.0, "p99_ns": 5_000.0},
        ]
        assert _find_knee(points, 3.0) == 3.0

    def test_all_zero_p99_has_no_knee(self):
        points = [{"multiplier": 1.0, "p99_ns": 0.0}]
        assert _find_knee(points, 3.0) is None

    def test_saturating_sweep_finds_a_knee(self):
        payload = _curve()
        assert payload["knee_multiplier"] in payload["multipliers"]


class TestPayload:
    def test_schema_and_point_order(self):
        payload = _curve()
        assert payload["schema"] == CURVE_SCHEMA
        assert [p["multiplier"] for p in payload["points"]] == [
            0.5, 1.0, 2.0, 4.0,
        ]
        for point in payload["points"]:
            assert point["offered"] >= point["completed"] >= 0

    def test_protected_points_carry_drop_counters(self):
        profile = dataclasses.replace(
            profile_by_name("steady"),
            overload=OverloadSpec(admission="bounded-queue", queue_limit=32),
        )
        payload = _curve(profile=profile)
        top = payload["points"][-1]
        for key in ("rejected", "evicted", "shed", "broken", "retried"):
            assert key in top
        assert top["rejected"] > 0           # 4x load engaged the gate

    def test_unprotected_points_omit_drop_counters(self):
        payload = _curve()
        assert "rejected" not in payload["points"][0]


class TestDeterminism:
    def test_workers_do_not_change_the_payload(self):
        from repro.contract import canonical_json

        serial = _curve(multipliers=(0.5, 1.0, 2.0))
        fanned = _curve(multipliers=(0.5, 1.0, 2.0), workers=3)
        assert canonical_json(serial) == canonical_json(fanned)
