"""The ``python -m repro load`` report format and its validator.

The load CLI emits one JSON object per run.  The CI load job replays
``--seed 7`` and validates the payload with
:func:`validate_load_report`, so the schema is load-bearing:

* ``schema`` — format tag, currently ``"repro-load-report/1"``;
* ``machine`` / ``profile`` / ``seed`` / ``duration_ns`` — what ran;
  ``profile`` is the full workload description, replayable verbatim;
* ``end_ns`` — when the last drained request finished;
* ``offered`` / ``completed`` — request counts;
* ``latency_ns`` — ``{count, mean, min, max, p50, p99, p999}``
  (nearest-rank percentiles over completed requests);
* ``throughput`` — ``{completed, requests_per_s}``;
* ``stations`` — per-station ``{served, busy_ns, utilization,
  mean_depth, max_depth}``; protected runs add ``rejected`` / ``shed``
  / ``shed_wait_ns``;
* ``faults`` — the composed fault plan, or ``null`` when healthy;
* ``overload`` — *only* on protected runs: the versioned
  ``repro-load-overload/1`` section with the protection spec, the
  admission policy's self-description, per-generator accept / reject /
  shed / broken / retry tallies, goodput, and per-link breaker states.

Every run goes through the same event loop; a run without an
``OverloadSpec`` runs under the no-op spec (``none`` admission,
unbounded stations, no breakers).  A run is *protected* when its spec
is not a no-op or a template sets a deadline.  Other runs cannot drop
a request, so their reports leave out the ``overload`` key and the
station drop tallies, and stay byte-identical to the pre-protection
format.

Wall-clock facts (events/sec, elapsed seconds) are *not* part of the
payload: the canonical JSON below must be bit-identical across
replays, worker counts and host machines.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List

__all__ = [
    "GENERATOR_KEYS",
    "OVERLOAD_SCHEMA",
    "SCHEMA",
    "canonical_json",
    "digest",
    "validate_load_report",
]

SCHEMA = "repro-load-report/1"

OVERLOAD_SCHEMA = "repro-load-overload/1"

_LATENCY_KEYS = ("count", "mean", "min", "max", "p50", "p99", "p999")

_STATION_KEYS = ("served", "busy_ns", "utilization", "mean_depth", "max_depth")

#: Per-generator request tallies of the ``overload`` section, in order.
GENERATOR_KEYS = (
    "offered", "accepted", "completed", "rejected", "evicted", "shed",
    "broken", "retried",
)

_BREAKER_STATES = ("closed", "open", "half-open")


def canonical_json(payload: Any) -> str:
    """Key-sorted, separator-pinned JSON — the replay-equality witness."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """SHA-256 of :func:`canonical_json` (cheap bit-identity check)."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def validate_load_report(payload: Any) -> List[str]:
    """Structural errors in a load report (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(
            f"schema: expected {SCHEMA!r}, got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("machine"), str) or not payload.get("machine"):
        errors.append("machine: missing or not a string")
    if not isinstance(payload.get("seed"), int) or payload.get("seed", -1) < 0:
        errors.append("seed: must be a non-negative integer")
    for key in ("duration_ns", "end_ns"):
        value = payload.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            errors.append(f"{key}: must be a non-negative number")
    for key in ("offered", "completed"):
        value = payload.get(key)
        if not isinstance(value, int) or value < 0:
            errors.append(f"{key}: must be a non-negative integer")
    profile = payload.get("profile")
    if not isinstance(profile, dict):
        errors.append("profile: not an object")
    else:
        from .workload import LoadProfile

        try:
            LoadProfile.from_dict(profile)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            errors.append(f"profile: not replayable ({exc})")
    latency = payload.get("latency_ns")
    if not isinstance(latency, dict):
        errors.append("latency_ns: not an object")
    else:
        for key in _LATENCY_KEYS:
            value = latency.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"latency_ns.{key}: must be a non-negative number")
        if not errors and latency["count"] > 0:
            if not (
                latency["min"] <= latency["p50"]
                <= latency["p99"] <= latency["p999"] <= latency["max"]
            ):
                errors.append("latency_ns: percentiles out of order")
    throughput = payload.get("throughput")
    if not isinstance(throughput, dict):
        errors.append("throughput: not an object")
    elif "requests_per_s" not in throughput:
        errors.append("throughput.requests_per_s: missing")
    stations = payload.get("stations")
    if not isinstance(stations, dict):
        errors.append("stations: not an object")
    else:
        for name, summary in stations.items():
            if not isinstance(summary, dict):
                errors.append(f"stations[{name!r}]: not an object")
                continue
            for key in _STATION_KEYS:
                value = summary.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"stations[{name!r}].{key}: "
                        "must be a non-negative number"
                    )
    faults = payload.get("faults")
    if faults is not None:
        if not isinstance(faults, dict):
            errors.append("faults: not an object or null")
        else:
            from ..faults.spec import FaultPlan

            try:
                FaultPlan.from_dict(faults)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                errors.append(f"faults: not replayable ({exc})")
    if "overload" in payload:
        errors.extend(_validate_overload(payload["overload"]))
    return errors


def _validate_overload(section: Any) -> List[str]:
    """Structural errors in a report's ``overload`` section."""
    errors: List[str] = []
    if not isinstance(section, dict):
        return ["overload: not an object"]
    if section.get("schema") != OVERLOAD_SCHEMA:
        errors.append(
            f"overload.schema: expected {OVERLOAD_SCHEMA!r}, "
            f"got {section.get('schema')!r}"
        )
    spec = section.get("spec")
    if not isinstance(spec, dict):
        errors.append("overload.spec: not an object")
    else:
        from .overload import OverloadSpec

        try:
            OverloadSpec.from_dict(spec)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            errors.append(f"overload.spec: not replayable ({exc})")
    admission = section.get("admission")
    if not isinstance(admission, dict) or "policy" not in admission:
        errors.append("overload.admission: missing policy description")
    generators = section.get("generators")
    if not isinstance(generators, dict):
        errors.append("overload.generators: not an object")
    else:
        for name, counts in generators.items():
            if not isinstance(counts, dict):
                errors.append(f"overload.generators[{name!r}]: not an object")
                continue
            for key in GENERATOR_KEYS:
                value = counts.get(key)
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"overload.generators[{name!r}].{key}: "
                        "must be a non-negative integer"
                    )
    totals = section.get("totals")
    if not isinstance(totals, dict):
        errors.append("overload.totals: not an object")
    goodput = section.get("goodput")
    if not isinstance(goodput, dict) or "goodput_per_s" not in goodput:
        errors.append("overload.goodput: missing goodput_per_s")
    breakers = section.get("breakers")
    if not isinstance(breakers, dict):
        errors.append("overload.breakers: not an object")
    else:
        for link, state in breakers.items():
            if (
                not isinstance(state, dict)
                or state.get("state") not in _BREAKER_STATES
            ):
                errors.append(
                    f"overload.breakers[{link!r}]: missing or bad state"
                )
    return errors
