"""The report contract: validator parity corpus and emitted-payload checks.

Every rejection site of the report validators and the latency-curve
table has one negative payload here, built by mutating a valid CLI
payload; the test asserts the payload is rejected and that one message
names the offending field path.  The other direction is checked too: every payload the
CLI emits validates clean, on every registered machine.  The canonical
JSON, digest and draw helpers are pinned to fixed values: every replay,
digest and cache key depends on them.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.load
from repro.__main__ import main
from repro.analysis import validate_lint_report, validate_verify_report
from repro.caching import content_key
import repro.contract as contract
from repro.contract import canonical_json, digest, draws, uniform
from repro.faults import FaultPlan, validate_faults_report
from repro.load import PROFILES, validate_load_report
from repro.machines.registry import MACHINE_FACTORIES
from repro.sweep import SweepSpec
from repro.trace import validate_chrome_trace

VALIDATORS = {
    "lint": validate_lint_report,
    "verify": validate_verify_report,
    "faults": validate_faults_report,
    "load": validate_load_report,
    "overload": validate_load_report,
    "trace": validate_chrome_trace,
    "curve": lambda payload: contract.check(
        payload, contract.LOAD_CURVE_TABLE
    ),
}

_LOAD = ["load", "--seed", "7", "--duration", "0.005", "--json"]
_PROTECTED = [
    "--admission", "bounded-queue", "--queue-limit", "4", "--rate-x", "3",
    "--deadline-us", "200",
]


def _emit(argv, tmp_path=None):
    """Run the CLI in-process; (exit code, parsed JSON payload).

    A run that fails with a one-line ``error:`` emits no payload
    (``None``).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0 and err.getvalue().startswith("error: "):
        assert len(err.getvalue().strip().splitlines()) == 1
        return code, None
    if tmp_path is not None:
        return code, json.loads(tmp_path.read_text())
    payload = json.loads(out.getvalue())
    payload.pop("digest", None)
    return code, payload


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """One valid payload per report kind, from the CLI."""
    trace_path = tmp_path_factory.mktemp("trace") / "trace.json"
    payloads = {
        "lint": _emit(["lint", "--json", "64C1 o 2C1"])[1],
        "verify": _emit(
            ["verify", "--json", "--step", "fan-in", "--schedule", "eager"]
        )[1],
        "faults": _emit(["faults", "--seed", "7", "--json"])[1],
        "load": _emit(_LOAD)[1],
        "overload": _emit(_LOAD + _PROTECTED)[1],
        "curve": _emit(_LOAD + _PROTECTED + ["--latency-curve", "0.5,1,2"])[1],
        "trace": _emit(
            ["trace", "--machine", "t3d", "--out", str(trace_path)],
            trace_path,
        )[1],
    }
    # Optional sections the seed-7 runs leave empty, filled in validly
    # so their rejection sites can be reached by one mutation.
    payloads["faults"]["degraded"]["fallback"] = {
        "fault": "DepositFault",
        "requested": "chained",
        "fallback": "buffer-packing",
        "nominal_mbps": 30.0,
        "degraded_mbps": 20.0,
        "throughput_delta": 0.33,
    }
    payloads["overload"]["overload"]["breakers"]["0->1"] = {
        "state": "open", "opened": 1, "rejected": 0, "failures": 3,
        "transitions": [],
    }
    events = payloads["trace"]["traceEvents"]
    for ph in ("X", "M", "C"):
        payloads[f"trace.{ph}"] = next(
            i for i, event in enumerate(events) if event["ph"] == ph
        )
    return payloads


def _set(path, value):
    """A mutation that sets (or, with ``...``, deletes) one field."""

    def mutate(payload):
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        if value is ...:
            del target[last]
        else:
            target[last] = value

    return mutate


def _event(ph, key, value):
    """Set ``key`` (or, with ``None``, the whole event) on the first
    trace event of phase ``ph``."""
    return (ph, key, value)


_STATION = "node0/nic"
_GEN = "poisson"
_COVER = "DepositFault"

#: (kind, mutation, path fragments one error message must all contain).
#: A mutation is ``_set(path, value)``, ``_event(...)`` or a callable
#: that edits the payload in place or returns its replacement.
CORPUS = [
    # -- repro-load-report/1 ------------------------------------------
    ("load", lambda p: [], ()),
    ("load", _set(["schema"], "bogus"), ("schema",)),
    ("load", _set(["machine"], ""), ("machine",)),
    ("load", _set(["seed"], -1), ("seed",)),
    ("load", _set(["duration_ns"], -1.0), ("duration_ns",)),
    ("load", _set(["offered"], ...), ("offered",)),
    ("load", _set(["profile"], "steady"), ("profile",)),
    ("load", _set(["profile"], {"name": 3}), ("profile",)),
    ("load", _set(["latency_ns"], None), ("latency_ns",)),
    ("load", _set(["latency_ns", "p50"], -1.0), ("latency_ns", "p50")),
    (
        "load",
        lambda p: p["latency_ns"].update(p50=p["latency_ns"]["max"] + 1.0),
        ("latency_ns",),
    ),
    ("load", _set(["throughput"], 3), ("throughput",)),
    (
        "load",
        _set(["throughput", "requests_per_s"], ...),
        ("throughput", "requests_per_s"),
    ),
    ("load", _set(["stations"], []), ("stations",)),
    ("load", _set(["stations", _STATION], 3), ("stations", _STATION)),
    (
        "load",
        _set(["stations", _STATION, "served"], -1),
        ("stations", _STATION, "served"),
    ),
    ("load", _set(["faults"], "chaos"), ("faults",)),
    ("load", _set(["faults"], {"links": "x"}), ("faults",)),
    # -- repro-load-overload/1 (a protected load report) ---------------
    ("overload", _set(["overload"], None), ("overload",)),
    (
        "overload",
        _set(["overload", "schema"], "repro-load-overload/0"),
        ("overload", "schema"),
    ),
    ("overload", _set(["overload", "spec"], 3), ("overload", "spec")),
    (
        "overload",
        _set(["overload", "spec"], {"admission": "bogus"}),
        ("overload", "spec"),
    ),
    (
        "overload",
        _set(["overload", "admission", "policy"], ...),
        ("overload", "admission", "policy"),
    ),
    ("overload", _set(["overload", "generators"], 3),
     ("overload", "generators")),
    (
        "overload",
        _set(["overload", "generators", _GEN], 3),
        ("overload", "generators", _GEN),
    ),
    (
        "overload",
        _set(["overload", "generators", _GEN, "shed"], -1),
        ("overload", "generators", _GEN, "shed"),
    ),
    ("overload", _set(["overload", "totals"], 3), ("overload", "totals")),
    (
        "overload",
        _set(["overload", "goodput", "goodput_per_s"], ...),
        ("overload", "goodput", "goodput_per_s"),
    ),
    ("overload", _set(["overload", "breakers"], 3),
     ("overload", "breakers")),
    (
        "overload",
        _set(["overload", "breakers", "0->1", "state"], "ajar"),
        ("overload", "breakers", "0->1"),
    ),
    # -- repro-faults-report/1 -----------------------------------------
    ("faults", lambda p: "report", ()),
    ("faults", _set(["schema"], "repro-faults-report/0"), ("schema",)),
    ("faults", _set(["operation"], ""), ("operation",)),
    ("faults", _set(["nbytes"], 0), ("nbytes",)),
    ("faults", _set(["seed"], "7"), ("seed",)),
    ("faults", _set(["plan"], None), ("plan",)),
    ("faults", _set(["plan"], {"links": "x"}), ("plan",)),
    ("faults", _set(["nominal"], "fast"), ("nominal",)),
    ("faults", _set(["nominal", "ns"], ...), ("nominal", "ns")),
    ("faults", _set(["degraded", "mbps"], 0.0), ("degraded", "mbps")),
    ("faults", _set(["nominal", "phase_ns"], [1.0]),
     ("nominal", "phase_ns")),
    (
        "faults",
        _set(["nominal", "phase_ns", "chained"], -1.0),
        ("nominal", "phase_ns", "chained"),
    ),
    ("faults", _set(["degraded", "retries"], -1), ("degraded", "retries")),
    ("faults", _set(["degraded", "fallback"], "lost"),
     ("degraded", "fallback")),
    (
        "faults",
        _set(["degraded", "fallback", "fault"], 3),
        ("degraded", "fallback", "fault"),
    ),
    (
        "faults",
        _set(["degraded", "fallback", "nominal_mbps"], "fast"),
        ("degraded", "fallback", "nominal_mbps"),
    ),
    ("faults", _set(["delta", "throughput_pct"], ...),
     ("delta", "throughput_pct")),
    ("faults", _set(["counters"], []), ("counters",)),
    # -- repro-lint-report/1 -------------------------------------------
    ("lint", lambda p: 3, ()),
    ("lint", _set(["schema"], "repro-verify-report/1"), ("schema",)),
    ("lint", _set(["ok"], 0), ("ok",)),
    ("lint", _set(["results"], {}), ("results",)),
    ("lint", _set(["results", 0], "64C1"), ("results[0]",)),
    ("lint", _set(["results", 0, "notation"], None),
     ("results[0]", "notation")),
    (
        "lint",
        _set(["results", 0, "diagnostics"], "CT101"),
        ("results[0]", "diagnostics"),
    ),
    (
        "lint",
        _set(["results", 0, "diagnostics", 0], "CT101"),
        ("results[0]", "diagnostics[0]"),
    ),
    (
        "lint",
        _set(["results", 0, "diagnostics", 0, "message"], 3),
        ("results[0]", "diagnostics[0]", "message"),
    ),
    (
        "lint",
        _set(["results", 0, "diagnostics", 0, "severity"], "fatal"),
        ("results[0]", "diagnostics[0]", "severity"),
    ),
    (
        "lint",
        _set(["results", 0, "diagnostics", 0, "span"], [7]),
        ("results[0]", "diagnostics[0]", "span"),
    ),
    ("lint", _set(["counts"], [1, 0, 0]), ("counts",)),
    ("lint", _set(["counts", "fatal"], 0), ("counts", "fatal")),
    ("lint", _set(["counts", "error"], "1"), ("counts", "error")),
    ("lint", _set(["counts", "warning"], 1), ("counts",)),
    # -- repro-verify-report/1 -----------------------------------------
    ("verify", lambda p: [p], ()),
    ("verify", _set(["schema"], "repro-verify-report/999"), ("schema",)),
    ("verify", _set(["ok"], "false"), ("ok",)),
    ("verify", _set(["counts"], 2), ("counts",)),
    ("verify", _set(["counts", "CT211"], "two"), ("counts", "CT211")),
    ("verify", _set(["results"], {}), ("results",)),
    ("verify", _set(["results", 0], "plan"), ("results[0]",)),
    ("verify", _set(["results", 0, "estimate_mbps"], ...),
     ("results[0]", "estimate_mbps")),
    ("verify", _set(["results", 0, "extra"], 1), ("results[0]", "extra")),
    ("verify", _set(["results", 0, "target"], 3), ("results[0]", "target")),
    ("verify", _set(["results", 0, "ok"], "no"), ("results[0]", "ok")),
    (
        "verify",
        _set(["results", 0, "estimate_mbps"], "fast"),
        ("results[0]", "estimate_mbps"),
    ),
    ("verify", _set(["results", 0, "bounds"], {}), ("results[0]", "bounds")),
    (
        "verify",
        _set(["results", 0, "bounds", 0, "lo_ns"], ...),
        ("results[0]", "bounds[0]", "lo_ns"),
    ),
    (
        "verify",
        _set(["results", 0, "bounds", 0, "phase"], 0),
        ("results[0]", "bounds[0]", "phase"),
    ),
    (
        "verify",
        _set(["results", 0, "bounds", 0, "hi_ns"], "x"),
        ("results[0]", "bounds[0]", "hi_ns"),
    ),
    (
        "verify",
        _set(["results", 0, "bounds", 0, "mbps_lo"], 1e9),
        ("results[0]", "bounds[0]", "mbps_lo"),
    ),
    ("verify", _set(["results", 0, "coverage"], []),
     ("results[0]", "coverage")),
    (
        "verify",
        _set(["results", 0, "coverage", _COVER], True),
        ("results[0]", "coverage", _COVER),
    ),
    (
        "verify",
        _set(["results", 0, "coverage", _COVER, "covered"], "yes"),
        ("results[0]", "coverage", _COVER, "covered"),
    ),
    (
        "verify",
        _set(["results", 0, "coverage", _COVER, "reason"], 3),
        ("results[0]", "coverage", _COVER, "reason"),
    ),
    (
        "verify",
        _set(["results", 0, "coverage", _COVER, "covered"], False),
        ("results[0]", "coverage", _COVER),
    ),
    (
        "verify",
        _set(["results", 0, "diagnostics"], "CT211"),
        ("results[0]", "diagnostics"),
    ),
    (
        "verify",
        _set(["results", 0, "diagnostics", 0], "CT211"),
        ("results[0]", "diagnostics[0]"),
    ),
    (
        "verify",
        _set(["results", 0, "diagnostics", 0, "rule"], None),
        ("results[0]", "diagnostics[0]", "rule"),
    ),
    (
        "verify",
        _set(["results", 0, "diagnostics", 0, "severity"], "fatal"),
        ("results[0]", "diagnostics[0]", "severity"),
    ),
    (
        "verify",
        _set(["results", 0, "diagnostics", 0, "span"], "x"),
        ("results[0]", "diagnostics[0]", "span"),
    ),
    ("verify", _set(["ok"], True), ("ok",)),
    # -- repro-load-curve/1 ------------------------------------------
    ("curve", lambda p: [], ()),
    ("curve", _set(["schema"], "bogus"), ("schema",)),
    ("curve", _set(["profile"], "steady"), ("profile",)),
    ("curve", _set(["seed"], -1), ("seed",)),
    ("curve", _set(["duration_ns"], 0.0), ("duration_ns",)),
    ("curve", _set(["multipliers"], []), ("multipliers",)),
    ("curve", _set(["multipliers", 0], 0.0), ("multipliers[0]",)),
    ("curve", _set(["knee_factor"], 1.0), ("knee_factor",)),
    ("curve", _set(["points"], 3), ("points",)),
    ("curve", _set(["points", 0, "extra"], 1), ("points[0]", "unknown")),
    ("curve", _set(["points", 0, "offered"], -1), ("points[0]", "offered")),
    ("curve", _set(["points", 0, "rejected"], "x"),
     ("points[0]", "rejected")),
    (
        "curve",
        lambda p: p["points"][0].update(p50_ns=p["points"][0]["p999_ns"] + 1),
        ("points[0]", "percentiles"),
    ),
    ("curve", _set(["multipliers"], [0.5, 1.0, 4.0]), ("multipliers",)),
    ("curve", _set(["knee_multiplier"], 3.0), ("knee_multiplier",)),
    ("curve", _set(["knee_multiplier"], "2x"), ("knee_multiplier",)),
    # -- Chrome trace ----------------------------------------------------
    ("trace", lambda p: [], ()),
    ("trace", _set(["traceEvents"], ...), ("traceEvents",)),
    ("trace", _set(["traceEvents"], []), ("traceEvents",)),
    ("trace", _event("X", None, 3), ("traceEvents[{X}]",)),
    ("trace", _event("X", "ph", "Z"), ("traceEvents[{X}]", "ph")),
    ("trace", _event("X", "name", ""), ("traceEvents[{X}]", "name")),
    ("trace", _event("M", "tid", "0"), ("traceEvents[{M}]", "tid")),
    ("trace", _event("X", "ts", True), ("traceEvents[{X}]", "ts")),
    ("trace", _event("X", "dur", -1.0),
     ("traceEvents[{X}]", "dur", "negative")),
    ("trace", _event("X", "cat", 3), ("traceEvents[{X}]", "cat")),
    ("trace", _event("M", "args", {}), ("traceEvents[{M}]", "args", "name")),
    ("trace", _event("C", "args", {}), ("traceEvents[{C}]", "args")),
    ("trace", _event("C", "args", {"value": True}),
     ("traceEvents[{C}]", "args")),
    ("trace", _set(["displayTimeUnit"], "s"), ("displayTimeUnit",)),
]


def _apply(bases, kind, mutation, fragments):
    payload = copy.deepcopy(bases[kind])
    if isinstance(mutation, tuple):
        ph, key, value = mutation
        index = bases[f"trace.{ph}"]
        if key is None:
            payload["traceEvents"][index] = value
        else:
            payload["traceEvents"][index][key] = value
        fragments = tuple(
            f.format(**{p: bases[f"trace.{p}"] for p in "XMC"})
            for f in fragments
        )
    else:
        replaced = mutation(payload)
        if replaced is not None:
            payload = replaced
    return payload, fragments


def _case_id(case):
    kind, mutation, fragments = case
    return f"{kind}:{'.'.join(fragments) or 'root'}"


class TestParityCorpus:
    def test_one_case_per_rejection_site(self):
        assert len(CORPUS) == 121

    def test_bases_validate_clean(self, bases):
        for kind, validator in VALIDATORS.items():
            assert validator(bases[kind]) == [], kind

    @pytest.mark.parametrize(
        "case", CORPUS, ids=[_case_id(case) for case in CORPUS]
    )
    def test_rejected_naming_the_field(self, bases, case):
        kind, mutation, fragments = case
        payload, fragments = _apply(bases, kind, mutation, fragments)
        errors = VALIDATORS[kind](payload)
        assert errors, "mutated payload validated clean"
        assert any(
            all(fragment in error for fragment in fragments)
            for error in errors
        ), errors

    def test_bool_is_an_int_for_load_counts(self, bases):
        payload = copy.deepcopy(bases["load"])
        payload["offered"] = True
        assert validate_load_report(payload) == []


@pytest.mark.parametrize("machine", sorted(MACHINE_FACTORIES))
class TestEmittedPayloadsValidate:
    """A machine may refuse a default operation with a one-line error
    (no payload); every payload emitted with exit 0 validates."""

    def test_lint(self, machine):
        __, payload = _emit(
            ["lint", "--json", "--machine", machine, "--style", "both"]
        )
        assert payload is None or validate_lint_report(payload) == []

    def test_verify(self, machine):
        __, payload = _emit(
            ["verify", "--json", "--machine", machine, "--step", "shift"]
        )
        assert payload is None or validate_verify_report(payload) == []

    def test_trace(self, machine, tmp_path):
        out = tmp_path / "trace.json"
        __, payload = _emit(
            ["trace", "--machine", machine, "--out", str(out)], out
        )
        assert payload is None or validate_chrome_trace(payload) == []

    def test_faults(self, machine):
        __, payload = _emit(
            ["faults", "--json", "--machine", machine, "--seed", "7"]
        )
        assert payload is None or validate_faults_report(payload) == []


    def test_faults_sweep(self, machine):
        __, payload = _emit(
            ["faults", "--json", "--machine", machine, "--seeds", "7", "9"]
        )
        assert payload is None or contract.check(
            payload, contract.FAULTS_SWEEP_TABLE
        ) == []


def _sweep_spec(tmp_path, **fields):
    path = tmp_path / f"{fields['kind']}.json"
    path.write_text(json.dumps(SweepSpec(**fields).to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def sweep_bases(tmp_path_factory):
    """A valid faults sweep and transfer / collective sweep results."""
    tmp_path = tmp_path_factory.mktemp("sweeps")
    transfer = _sweep_spec(
        tmp_path, kind="transfer", machines=("t3d", "cluster"),
        pairs=(("1", "64"),), styles=("chained",), sizes=(65536,),
        seeds=(-1, 7), rates="paper",
    )
    collective = _sweep_spec(
        tmp_path, kind="collective", machines=("xe",),
        ops=("allreduce",), styles=("auto", "ring"), sizes=(4096,),
        nodes=(8,), seeds=(-1, 7), rates="paper",
    )
    return {
        "faults-sweep": _emit(["faults", "--json", "--seeds", "7", "9"])[1],
        "transfer": _emit(["sweep", "--spec", transfer, "--json"])[1],
        "collective": _emit(["sweep", "--spec", collective, "--json"])[1],
    }


def _swap_first_rows(payload):
    rows = payload["results"]
    rows[0], rows[1] = rows[1], rows[0]


class TestSweepTables:
    """``repro-faults-sweep/1`` and ``repro-sweep-result/1`` payloads
    validate clean as emitted, and a broken one is rejected naming the
    field."""

    TABLES = {
        "faults-sweep": contract.FAULTS_SWEEP_TABLE,
        "transfer": contract.SWEEP_RESULT_TABLE,
        "collective": contract.SWEEP_RESULT_TABLE,
    }

    def test_bases_validate_clean(self, sweep_bases):
        for kind, table in self.TABLES.items():
            assert contract.check(sweep_bases[kind], table) == [], kind
        # The seeded runs exercise the fallback and degraded sections.
        assert any(
            row["fallback"] for row in sweep_bases["faults-sweep"]["seeds"]
        )
        assert any(
            "degraded" in row for row in sweep_bases["transfer"]["results"]
        )

    @pytest.mark.parametrize("kind, mutation, fragments", [
        ("faults-sweep", _set(["schema"], "repro-faults-report/1"),
         ("schema",)),
        ("faults-sweep", _set(["seeds"], []), ("seeds", "length")),
        ("faults-sweep", _set(["nominal", "mbps"], 0.0), ("nominal.mbps",)),
        ("faults-sweep", _set(["seeds", 0, "retries"], -1),
         ("seeds[0].retries", "negative")),
        ("faults-sweep", _set(["seeds", 0, "extra"], 1),
         ("seeds[0]", "unknown keys")),
        ("faults-sweep", _set(["seeds", 0, "fallback"], "chained"),
         ("seeds[0].fallback",)),
        ("faults-sweep", _set(["seeds", 0, "delta"], {}),
         ("seeds[0].delta.throughput_pct", "missing")),
        ("transfer", _set(["schema"], "repro-sweep/1"), ("schema",)),
        ("transfer", _set(["spec", "kind"], "teleport"),
         ("spec", "not replayable")),
        ("transfer", _swap_first_rows, ("do not follow",)),
        ("transfer", _set(["results", 0, "mbps"], -1.0),
         ("results[0].mbps", "negative")),
        ("transfer", _set(["results", 0, "gbps"], 1.0),
         ("results[0]", "unknown keys")),
        ("transfer", _set(["results", 0, "id"], ...),
         ("results[0].id", "missing")),
        ("transfer", _set(["digest"], "abc"), ("digest", "length")),
        ("collective", _set(["results", 0, "nodes"], 0),
         ("results[0].nodes",)),
        ("collective", _set(["results", 0, "hierarchical"], "no"),
         ("results[0].hierarchical",)),
    ], ids=lambda case: case if isinstance(case, str) else None)
    def test_rejected_naming_the_field(
        self, sweep_bases, kind, mutation, fragments
    ):
        payload = copy.deepcopy(sweep_bases[kind])
        mutation(payload)
        errors = contract.check(payload, self.TABLES[kind])
        assert errors, "mutated payload validated clean"
        assert any(
            all(fragment in error for fragment in fragments)
            for error in errors
        ), errors


@pytest.mark.parametrize("protected", [False, True])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_load_profiles_validate(profile, protected):
    argv = _LOAD + ["--profile", profile] + (_PROTECTED if protected else [])
    code, payload = _emit(argv)
    assert code == 0
    assert ("overload" in payload) is protected
    assert validate_load_report(payload) == []


class TestCanonicalBytes:
    SAMPLE = {"b": [1, 2.5, None, True], "a": "\u00e9t\u00e9", "c": {"z": 0}}

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json(self.SAMPLE) == json.dumps(
            self.SAMPLE, sort_keys=True, separators=(",", ":")
        )
        assert canonical_json(self.SAMPLE).startswith('{"a":"\\u00e9t')

    def test_digest_is_sha256_of_canonical_json(self):
        assert digest(self.SAMPLE) == hashlib.sha256(
            canonical_json(self.SAMPLE).encode()
        ).hexdigest()

    def test_content_key_is_pinned(self):
        assert content_key("a", 1, 2.5, None, {"x": (1, 2)}) == (
            "cf75e3f974dbb8987acfbe87b1fd779ec6af37a61073ba6e4944bdb4990651e4"
        )


#: Seed-7 draws every load and fault replay depends on; they never move.
PINNED_DRAWS = [
    (("arrive", "g", 3), 0.9742515796928916),
    (("\u00e9", 1), 0.21178546535069015),
    ((("a", 1), 2.0), 0.8376939166209003),
    ((), 0.15109249682984888),
]


class TestUniform:
    @pytest.mark.parametrize("key, value", PINNED_DRAWS)
    def test_pinned_draws(self, key, value):
        assert uniform(7, *key) == value
        assert FaultPlan(seed=7).uniform(*key) == value

    def test_load_and_faults_share_one_draw(self):
        assert repro.load.uniform is uniform

    def test_draw_hashes_the_canonical_key(self):
        key = ("home", "poisson")
        raw = hashlib.sha256(
            canonical_json([7, [repr(part) for part in key]]).encode()
        ).digest()
        assert uniform(7, *key) == int.from_bytes(raw[:8], "big") / 2.0**64


_REFERENCE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _reference_uniform(seed, *key):
    """The draw as first written: a full canonical-JSON encode per draw."""
    payload = _REFERENCE_ENCODER.encode([seed, [repr(part) for part in key]])
    word = hashlib.sha256(payload.encode()).digest()[:8]
    return int.from_bytes(word, "big") / float(1 << 64)


_AWKWARD_TEXT = st.text(alphabet=st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from(
        ['"', "'", "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028",
         "\ud800", "\udfff", "\U0001f600"]
    ),
), max_size=8)

_KEY_ATOMS = st.one_of(
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([
        float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -1e-310,
    ]),
    _AWKWARD_TEXT,
)

_KEY_PARTS = st.recursive(
    _KEY_ATOMS,
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)


class TestDrawStreams:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(min_value=-(1 << 70), max_value=1 << 70),
            st.booleans(),
        ),
        key=st.lists(_KEY_PARTS, max_size=5).map(tuple),
    )
    def test_every_split_draws_the_reference_bits(self, seed, key):
        expected = _reference_uniform(seed, *key)
        assert uniform(seed, *key) == expected
        for split in range(len(key) + 1):
            stream = draws(seed, *key[:split])
            assert stream(*key[split:]) == expected

    def test_a_stream_is_reusable(self):
        gap = draws(7, "gap", "poisson")
        assert [gap(i) for i in range(3)] == [
            _reference_uniform(7, "gap", "poisson", i) for i in range(3)
        ]


_ROOT = Path(__file__).resolve().parent.parent


def _section(page, heading):
    """The text of one section of a docs page, up to the next ``## ``."""
    text = (_ROOT / page).read_text(encoding="utf-8")
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


class TestDocsDrift:
    @pytest.mark.parametrize("table, page, heading", [
        ("LOAD_TABLE", "docs/LOAD.md", "## The report schema"),
        ("OVERLOAD_TABLE", "docs/LOAD.md", "## The report schema"),
        ("FAULTS_TABLE", "docs/FAULTS.md", "### The report"),
        ("LOAD_CURVE_TABLE", "docs/LOAD.md", "### The latency curve"),
        ("FAULTS_SWEEP_TABLE", "docs/FAULTS.md", "### The seed sweep"),
        ("SWEEP_RESULT_TABLE", "docs/SWEEPS.md", "## The result schema"),
    ])
    def test_docs_name_every_top_level_field(self, table, page, heading):
        section = _section(page, heading)
        missing = [
            field.name for field in getattr(contract, table).fields
            if not re.search(rf"\b{re.escape(field.name)}\b", section)
        ]
        assert missing == [], f"{page} does not name {missing}"

    def test_report_formats_table_lists_every_tag(self):
        section = _section("DESIGN.md", "### Report formats")
        tags = [
            value for name, value in vars(contract).items()
            if name.isupper() and isinstance(value, str)
            and value.startswith("repro-")
        ]
        assert len(tags) == 10
        assert [tag for tag in tags if f"`{tag}`" not in section] == []
