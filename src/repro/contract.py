"""The report contract: what every ``repro-*/N`` payload looks like.

Every measured number this package prints is meant to be traced and
replayed, and that rests on one set of decisions made here:

* :func:`canonical_json` and :func:`digest` — the key-sorted,
  separator-pinned JSON (and its SHA-256) that replay equality, sweep
  and load digests and calibration cache keys are all defined over;
* :func:`uniform` — the deterministic draw behind fault injection and
  load generation: a pure function of ``(seed, key)`` with no RNG
  state, so call order, worker sharding and event interleaving cannot
  perturb replay;
* :func:`draws` — the one encoder behind every draw: it binds a
  stream to ``(seed, *prefix)``, encodes that canonical-JSON head
  once, and per draw encodes only the remaining key parts.
  :func:`uniform` is the stream with an empty prefix, and a hot loop
  (arrival gaps, template picks, per-message fault decisions) binds
  its stream once instead of re-encoding the whole key every draw;
* the ten schema tags, one constant each;
* a small declarative checker (:class:`Field`, :class:`Schema`,
  :func:`check`) and the schema tables of the eight validated formats.
  A table's per-field ``doc`` strings are that format's documentation.

This is the only module that imports :mod:`hashlib`
(``scripts/selfcheck.py`` rule SC007).

Wall-clock facts (elapsed seconds, events/s) never enter a payload:
its canonical JSON must be bit-identical across replays, worker counts
and hosts.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from importlib import import_module
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .core.errors import ModelError

__all__ = [
    # schema tags
    "COMM_PLAN", "FAULTS_REPORT", "FAULTS_SWEEP", "GOLDEN", "LINT_REPORT",
    "LOAD_CURVE", "LOAD_OVERLOAD", "LOAD_REPORT", "SWEEP_RESULT",
    "VERIFY_REPORT",
    # canonical bytes and the deterministic draw
    "canonical_json", "digest", "draws", "uniform",
    # the checker and its tables
    "Field", "Schema", "check", "require_valid", "GENERATOR_KEYS",
    "FAULTS_SWEEP_TABLE", "FAULTS_TABLE", "LINT_TABLE", "LOAD_CURVE_TABLE",
    "LOAD_TABLE", "OVERLOAD_TABLE", "SWEEP_RESULT_TABLE", "TRACE_TABLE",
    "VERIFY_TABLE",
    # the five validators
    "validate_chrome_trace", "validate_faults_report", "validate_lint_report",
    "validate_load_report", "validate_verify_report",
]

# -- schema tags (DESIGN.md "Report formats" names each producer) ---------

LINT_REPORT = "repro-lint-report/1"
VERIFY_REPORT = "repro-verify-report/1"
FAULTS_REPORT = "repro-faults-report/1"
FAULTS_SWEEP = "repro-faults-sweep/1"
LOAD_REPORT = "repro-load-report/1"
LOAD_OVERLOAD = "repro-load-overload/1"
LOAD_CURVE = "repro-load-curve/1"
SWEEP_RESULT = "repro-sweep-result/1"
COMM_PLAN = "repro-comm-plan/1"
GOLDEN = "repro-golden/1"

# -- canonical JSON, digests, draws ----------------------------------------

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_TWO_64 = float(1 << 64)
_WORD = struct.Struct(">Q")
_sha256 = hashlib.sha256


def canonical_json(payload: Any) -> str:
    """Key-sorted, separator-pinned JSON — the replay-equality witness."""
    return _CANONICAL.encode(payload)


def digest(payload: Any) -> str:
    """SHA-256 of :func:`canonical_json` (cheap bit-identity check)."""
    return hashlib.sha256(_CANONICAL.encode(payload).encode()).hexdigest()


def draws(seed: int, *prefix: Any) -> Callable[..., float]:
    """The draw function of one stream: ``draws(seed, *prefix)(*rest)``.

    A call returns ``uniform(seed, *prefix, *rest)`` bit for bit, but
    the canonical-JSON head — the seed and the prefix parts — is
    encoded once, when the stream is bound; each draw encodes only its
    own key parts, with the escaping the canonical encoder uses.
    """
    head = "[" + _CANONICAL.encode(seed) + ",[" + "".join(
        [_quote(repr(part)) + "," for part in prefix]
    )
    # A draw with no parts of its own: drop the prefix's last comma.
    bare = ((head[:-1] if prefix else head) + "]]").encode()

    def draw(*rest: Any) -> float:
        payload = (
            (head + ",".join(map(_quote, map(repr, rest))) + "]]").encode()
            if rest else bare
        )
        word: int = _WORD.unpack_from(_sha256(payload).digest())[0]
        return word / _TWO_64

    return draw


def uniform(seed: int, *key: Any) -> float:
    """A reproducible uniform draw in ``[0, 1)`` for ``(seed, key)``.

    The draw is the top 64 bits of the SHA-256 of
    ``canonical_json([seed, [repr(part) for part in key]])``; it is
    the stream :func:`draws` binds with an empty prefix.
    """
    return draws(seed)(*key)


# -- the checker -------------------------------------------------------------

_TYPES: Dict[str, Callable[[Any], bool]] = {
    "any": lambda v: True,
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int),
    "num": lambda v: isinstance(v, (int, float)),
    "real": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "obj": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "pair": lambda v: (
        isinstance(v, list) and len(v) == 2
        and all(isinstance(part, int) for part in v)
    ),
}


@dataclass(frozen=True)
class Field:
    """One field of a :class:`Schema`.

    ``type`` is one of ``any``, ``bool``, ``int`` and ``num`` (both
    admit ``bool``, as ``isinstance`` does), ``real`` (a number that is
    not a ``bool``), ``str``, ``obj``, ``list`` or ``pair`` (a list of
    two integers).  ``lo`` bounds a number — or the length of a
    string, list or object — from below; ``lo_open`` makes the bound
    strict.  An ``optional`` field may be absent, a ``nullable`` one
    ``null``.  ``values`` fixes the allowed values; ``schema`` checks a
    nested object and ``each`` every value of an object or list;
    ``replay`` names a ``module:Class`` whose ``from_dict`` must accept
    the value.
    """

    name: str
    type: str = "any"
    doc: str = ""
    lo: Optional[float] = None
    lo_open: bool = False
    optional: bool = False
    nullable: bool = False
    values: Tuple[Any, ...] = ()
    schema: Optional["Schema"] = None
    each: Optional["Field"] = None
    replay: str = ""


#: A cross-field check over a structurally valid object: a problem or None.
Rule = Callable[[Dict[str, Any]], Optional[str]]


@dataclass(frozen=True)
class Schema:
    """An object's fields, plus the checks that span several of them.

    A ``closed`` schema rejects keys it does not name.  ``rules`` run
    only when every field of the object (and below) checked clean.
    ``cases`` adds fields by the value of the ``tag`` field.
    """

    fields: Tuple[Field, ...]
    closed: bool = False
    rules: Tuple[Rule, ...] = ()
    tag: str = ""
    cases: Tuple[Tuple[str, "Schema"], ...] = ()


def check(
    value: Any, schema: Schema, where: str = "",
    errors: Optional[List[str]] = None,
) -> List[str]:
    """Every way ``value`` breaks ``schema``; an empty list is valid.

    Each message starts with the offending field's path, such as
    ``stations['node0/nic'].served``; ``where`` is the path of
    ``value`` itself, and ``errors`` collects into an existing list.
    """
    errors = [] if errors is None else errors
    label = where or "payload"
    if not isinstance(value, dict):
        errors.append(f"{label}: expected obj, got {type(value).__name__}")
        return errors
    before = len(errors)
    for field in schema.fields:
        path = f"{where}.{field.name}" if where else field.name
        if field.name in value:
            _check_value(value[field.name], field, path, errors)
        elif not field.optional:
            errors.append(f"{path}: missing")
    if schema.closed:
        known = {field.name for field in schema.fields}
        unknown = sorted(str(key) for key in value if key not in known)
        if unknown:
            errors.append(f"{label}: unknown keys {unknown}")
    for tag, case in schema.cases:
        if value.get(schema.tag) == tag:
            check(value, case, where, errors)
    if len(errors) == before:
        for rule in schema.rules:
            problem = rule(value)
            if problem:
                errors.append(f"{where}: {problem}" if where else problem)
    return errors


def _check_value(
    value: Any, field: Field, where: str, errors: List[str]
) -> None:
    if value is None and field.nullable:
        return
    if not _TYPES[field.type](value):
        errors.append(f"{where}: expected {field.type}, got {type(value).__name__}")
        return
    if field.values and value not in field.values:
        errors.append(f"{where}: {value!r} is not one of {field.values}")
        return
    if field.lo is not None:
        sized = isinstance(value, (str, list, dict))
        size = len(value) if sized else value
        if size < field.lo or (field.lo_open and size == field.lo):
            errors.append(f"{where}: {'length ' if sized else ''}{size!r} is "
                          f"{'negative' if size < 0 else 'too small'}")
    if field.schema is not None:
        check(value, field.schema, where, errors)
    if field.each is not None:
        items: Iterable[Tuple[Any, Any]] = (
            value.items() if isinstance(value, dict) else enumerate(value)
        )
        for key, item in items:
            if isinstance(value, dict) and not isinstance(key, str):
                errors.append(f"{where}[{key!r}]: key is not a string")
            _check_value(item, field.each, f"{where}[{key!r}]", errors)
    if field.replay:
        module, name = field.replay.split(":")
        try:
            getattr(import_module(module), name).from_dict(value)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            errors.append(f"{where}: not replayable ({exc})")


def _of(schema: Schema) -> Field:
    """An element that is an object of ``schema`` (for ``each``)."""
    return Field("", "obj", schema=schema)


def require_valid(payload: Any, schema: Schema, what: str) -> None:
    """Refuse to emit a payload that fails its own schema table."""
    errors = check(payload, schema)
    if errors:
        raise ModelError(f"{what} fails its own schema: " + "; ".join(errors))


# -- repro-lint-report/1 and repro-verify-report/1 ---------------------------

_SEVERITIES = ("error", "warning", "advice")

_DIAGNOSTIC = Schema((
    Field("rule", "str", "rule id, e.g. CT101"),
    Field("severity", "str", "error, warning or advice", values=_SEVERITIES),
    Field("message", "str", "what is wrong"),
    Field("span", "pair", "[start, end] offsets into the notation",
          optional=True, nullable=True),
))


def _tally_matches(payload: Dict[str, Any]) -> Optional[str]:
    tally = dict.fromkeys(_SEVERITIES, 0)
    for result in payload["results"]:
        for diagnostic in result["diagnostics"]:
            tally[diagnostic["severity"]] += 1
    if payload["counts"] != tally:
        return "counts do not match the diagnostics lists"
    return None


LINT_TABLE = Schema((
    Field("schema", doc="format tag", values=(LINT_REPORT,)),
    Field("results", "list", "one entry per linted expression", each=_of(
        Schema((
            Field("notation", "str", "the expression in Q notation"),
            Field("diagnostics", "list", "its findings", each=_of(_DIAGNOSTIC)),
        ))
    )),
    Field("counts", "obj", "findings per severity", schema=Schema(
        tuple(Field(severity, "int") for severity in _SEVERITIES), closed=True
    )),
    Field("ok", "bool", "true when no finding is an error"),
), rules=(_tally_matches,))


def _reason_given(verdict: Dict[str, Any]) -> Optional[str]:
    if verdict["covered"] is False and verdict.get("reason") is None:
        return "uncovered but gives no reason"
    return None


def _ok_matches_results(payload: Dict[str, Any]) -> Optional[str]:
    derived = all(result["ok"] is True for result in payload["results"])
    if payload["ok"] != derived:
        return "ok does not match the per-result verdicts"
    return None


VERIFY_TABLE = Schema((
    Field("schema", doc="format tag", values=(VERIFY_REPORT,)),
    Field("ok", "bool", "true when every result is ok"),
    Field("counts", "obj", "findings per rule id", each=Field("", "int")),
    Field("results", "list", "one verdict per verified target", each=_of(
        Schema((
            Field("target", "str", "the plan or expression verified"),
            Field("machine", doc="machine name, or null without one"),
            Field("style", doc="requested operation style, or null"),
            Field("schedule", doc="how steps were ordered"),
            Field("discipline", doc="the send discipline"),
            Field("ok", "bool", "true when no finding is an error"),
            Field("estimate_mbps", "num", "model estimate", nullable=True),
            Field("bounds", "list", "per-phase throughput bounds", each=_of(
                Schema((
                    Field("phase", "str"),
                    Field("mbps_lo", "num"),
                    Field("mbps_hi", "num"),
                    Field("lo_ns", "num"),
                    Field("hi_ns", "num"),
                ), closed=True, rules=(
                    lambda row: "mbps_lo > mbps_hi"
                    if row["mbps_lo"] > row["mbps_hi"] else None,
                ))
            )),
            Field("coverage", "obj", "verdict per fault class", each=_of(
                Schema((
                    Field("covered", "bool"),
                    Field("reason", "str", "why a class is not covered",
                          optional=True, nullable=True),
                ), rules=(_reason_given,))
            )),
            Field("diagnostics", "list", "the findings", each=_of(_DIAGNOSTIC)),
        ), closed=True)
    )),
), rules=(_ok_matches_results,))

# -- repro-faults-report/1 ---------------------------------------------------


def _run(name: str, doc: str, *extra: Field) -> Field:
    """One measured run of a faults report."""
    return Field(name, "obj", doc, schema=Schema((
        Field("mbps", "num", "throughput", lo=0, lo_open=True),
        Field("ns", "num", "end-to-end time", lo=0, lo_open=True),
        Field("phase_ns", "obj", "time per runtime phase", nullable=True,
              each=Field("", "num", lo=0)),
    ) + extra))


#: A :class:`~repro.faults.degrade.DegradedResult`: a forced fallback.
_DEGRADED = Schema((
    Field("fault", "str"),
    Field("requested", "str"),
    Field("fallback", "str"),
    Field("nominal_mbps", "num"),
    Field("degraded_mbps", "num"),
))

FAULTS_TABLE = Schema((
    Field("schema", doc="format tag", values=(FAULTS_REPORT,)),
    Field("machine", "str", "machine name", lo=1),
    Field("operation", "str", "the xQy operation", lo=1),
    Field("style", "str", "operation style", lo=1),
    Field("nbytes", "int", "bytes per transfer", lo=0, lo_open=True),
    Field("seed", "int", "the fault plan's seed"),
    Field("plan", "obj", "the full fault plan, replayable verbatim "
          "via --plan", replay="repro.faults.spec:FaultPlan"),
    _run("nominal", "the fault-free run"),
    _run(
        "degraded", "the same operation under the plan",
        Field("retries", "int", "fragments re-sent", lo=0, optional=True),
        Field("fallback", "obj", "the DegradedResult of a forced "
              "strategy fallback", optional=True, nullable=True,
              schema=_DEGRADED),
    ),
    Field("delta", "obj", "throughput lost to the faults",
          schema=Schema((Field("throughput_pct"),))),
    Field("counters", "obj", "the degraded run's fault-related trace "
          "counters", optional=True, nullable=True),
))

# -- repro-faults-sweep/1 -----------------------------------------------------

FAULTS_SWEEP_TABLE = Schema((
    Field("schema", doc="format tag", values=(FAULTS_SWEEP,)),
    Field("machine", "str", "machine name", lo=1),
    Field("operation", "str", "the xQy operation", lo=1),
    Field("style", "str", "operation style", lo=1),
    Field("nbytes", "int", "bytes per transfer", lo=0, lo_open=True),
    Field("nominal", "obj", "the fault-free run", schema=Schema((
        Field("mbps", "num", "throughput", lo=0, lo_open=True),
        Field("ns", "num", "end-to-end time", lo=0, lo_open=True),
    ), closed=True)),
    Field("seeds", "list", "one run per chaos seed, in --seeds order",
          lo=1, each=_of(Schema((
              Field("seed", "int", "the chaos plan's seed"),
              Field("mbps", "num", "throughput under the plan", lo=0,
                    lo_open=True),
              Field("ns", "num", "end-to-end time", lo=0, lo_open=True),
              Field("retries", "int", "fragments re-sent", lo=0),
              Field("fallback", "obj", "the DegradedResult of a forced "
                    "strategy fallback, or null", nullable=True,
                    schema=_DEGRADED),
              Field("delta", "obj", "throughput lost to the plan",
                    schema=Schema((Field("throughput_pct", "num"),),
                                  closed=True)),
          ), closed=True))),
), closed=True)

# -- repro-sweep-result/1 ------------------------------------------------------


def _rows_follow_cells(payload: Dict[str, Any]) -> Optional[str]:
    from .sweep.spec import SweepSpec

    cells = SweepSpec.from_dict(payload["spec"]).expand()
    if [row["id"] for row in payload["results"]] != [
        cell.cell_id for cell in cells
    ]:
        return "results do not follow the spec's cells in order"
    return None


SWEEP_RESULT_TABLE = Schema((
    Field("schema", doc="format tag", values=(SWEEP_RESULT,)),
    Field("spec", "obj", "the swept grid, replayable verbatim",
          replay="repro.sweep.spec:SweepSpec"),
    Field("results", "list", "one row per cell, in the spec's canonical "
          "cell order", each=_of(Schema((
              Field("id", "str", "the cell id", lo=1),
              Field("mbps", "num", "measured throughput (collectives: per "
                    "node)", lo=0),
              Field("ns", "num", "end-to-end time (transfer and "
                    "collective cells)", lo=0, optional=True),
              Field("model_mbps", "num", "the model's estimate (transfer "
                    "cells)", lo=0, optional=True),
              Field("style", "str", "operation style run (transfer cells)",
                    optional=True),
              Field("retries", "int", "fragments re-sent (transfer cells)",
                    lo=0, optional=True),
              Field("degraded", "obj", "the DegradedResult of a forced "
                    "fallback (transfer cells under a plan)", optional=True,
                    schema=_DEGRADED),
              Field("op", "str", "the collective (collective cells)",
                    optional=True),
              Field("algorithm", "str", "the algorithm run (collective "
                    "cells)", optional=True),
              Field("nodes", "int", "participants (collective cells)",
                    lo=1, optional=True),
              Field("rounds", "int", "communication rounds (collective "
                    "cells)", lo=0, optional=True),
              Field("hierarchical", "bool", "node-aware schedule "
                    "(collective cells)", optional=True),
          ), closed=True))),
    Field("digest", "str", "SHA-256 of the payload without this field; "
          "sweep --json only", lo=64, optional=True),
), closed=True, rules=(_rows_follow_cells,))

# -- repro-load-report/1 and its repro-load-overload/1 section ---------------

#: Per-generator request tallies of the ``overload`` section, in order.
GENERATOR_KEYS = (
    "offered", "accepted", "completed", "rejected", "evicted", "shed",
    "broken", "retried",
)

OVERLOAD_TABLE = Schema((
    Field("schema", doc="section tag", values=(LOAD_OVERLOAD,)),
    Field("spec", "obj", "the protection spec, replayable verbatim",
          replay="repro.load.overload:OverloadSpec"),
    Field("admission", "obj", "the admission policy's self-description",
          schema=Schema((Field("policy"),))),
    Field("generators", "obj", "per-generator accept / reject / shed / "
          "broken / retry tallies", each=_of(Schema(
              tuple(Field(key, "int", lo=0) for key in GENERATOR_KEYS)
          ))),
    Field("totals", "obj", "the tallies summed over generators"),
    Field("goodput", "obj", "completed requests per second",
          schema=Schema((Field("goodput_per_s"),))),
    Field("breakers", "obj", "per-link circuit-breaker states", each=_of(
        Schema((Field("state", values=("closed", "open", "half-open")),))
    )),
))

_LATENCY_KEYS = ("count", "mean", "min", "max", "p50", "p99", "p999")


def _percentiles_ordered(latency: Dict[str, Any]) -> Optional[str]:
    ordered = (
        latency["min"] <= latency["p50"] <= latency["p99"]
        <= latency["p999"] <= latency["max"]
    )
    if latency["count"] > 0 and not ordered:
        return "percentiles out of order"
    return None


LOAD_TABLE = Schema((
    Field("schema", doc="format tag", values=(LOAD_REPORT,)),
    Field("machine", "str", "registry key of the machine", lo=1),
    Field("profile", "obj", "the full workload description, replayable "
          "verbatim", replay="repro.load.workload:LoadProfile"),
    Field("seed", "int", "replay seed", lo=0),
    Field("duration_ns", "num", "simulated horizon", lo=0),
    Field("end_ns", "num", "when the last drained request finished", lo=0),
    Field("offered", "int", "requests generated", lo=0),
    Field("completed", "int", "requests finished", lo=0),
    Field("latency_ns", "obj", "count, mean, min, max and nearest-rank "
          "p50 / p99 / p999 over completed requests", schema=Schema(
              tuple(Field(key, "num", lo=0) for key in _LATENCY_KEYS),
              rules=(_percentiles_ordered,),
          )),
    Field("throughput", "obj", "completed, requests_per_s",
          schema=Schema((Field("requests_per_s"),))),
    Field("stations", "obj", "per-station served, busy_ns, utilization, "
          "mean_depth, max_depth; protected runs add rejected / shed / "
          "shed_wait_ns", each=_of(Schema(tuple(
              Field(key, "num", lo=0) for key in
              ("served", "busy_ns", "utilization", "mean_depth", "max_depth")
          )))),
    Field("faults", "obj", "the composed fault plan, or null when healthy",
          optional=True, nullable=True,
          replay="repro.faults.spec:FaultPlan"),
    Field("overload", "obj", "only on protected runs (a run whose spec is "
          "not a no-op, or with a deadline): the overload section",
          optional=True, schema=OVERLOAD_TABLE),
))

# -- repro-load-curve/1 ------------------------------------------------------

_CURVE_TALLIES = ("rejected", "evicted", "shed", "broken", "retried")


def _point_percentiles_ordered(point: Dict[str, Any]) -> Optional[str]:
    if point["completed"] > 0 and not (
        point["p50_ns"] <= point["p99_ns"] <= point["p999_ns"]
    ):
        return "percentiles out of order"
    return None


def _points_follow_multipliers(payload: Dict[str, Any]) -> Optional[str]:
    swept = [point["multiplier"] for point in payload["points"]]
    if swept != payload["multipliers"]:
        return "points do not follow the multipliers in order"
    knee = payload["knee_multiplier"]
    if knee is not None and knee not in swept:
        return "knee_multiplier is not a swept multiplier"
    return None


LOAD_CURVE_TABLE = Schema((
    Field("schema", doc="format tag", values=(LOAD_CURVE,)),
    Field("profile", "obj", "the base workload (multiplier 1), replayable "
          "verbatim", replay="repro.load.workload:LoadProfile"),
    Field("seed", "int", "replay seed shared by every point", lo=0),
    Field("duration_ns", "num", "simulated horizon of each point", lo=0,
          lo_open=True),
    Field("multipliers", "list", "the swept arrival-rate multipliers, "
          "strictly increasing", lo=1, each=Field("", "real", lo=0,
                                                  lo_open=True)),
    Field("knee_factor", "real", "the p99 blow-up over the low-load "
          "baseline that marks the knee", lo=1, lo_open=True),
    Field("points", "list", "one run per multiplier, in multiplier order",
          each=_of(Schema((
              Field("multiplier", "real", "the rate multiplier of this run"),
              Field("offered", "int", "requests generated", lo=0),
              Field("completed", "int", "requests finished", lo=0),
              Field("goodput_per_s", "num", "completed requests per "
                    "simulated second", lo=0),
              Field("p50_ns", "num", "nearest-rank median latency", lo=0),
              Field("p99_ns", "num", "nearest-rank p99 latency", lo=0),
              Field("p999_ns", "num", "nearest-rank p999 latency", lo=0),
              Field("mean_ns", "num", "mean latency", lo=0),
          ) + tuple(
              Field(key, "int", "protected runs only: the overload "
                    "section's total", lo=0, optional=True)
              for key in _CURVE_TALLIES
          ), closed=True, rules=(_point_percentiles_ordered,)))),
    Field("knee_multiplier", "real", "the first multiplier whose p99 "
          "exceeds knee_factor times the baseline, or null when the "
          "curve never bends", nullable=True),
), rules=(_points_follow_multipliers,))

# -- Chrome Trace Event Format (python -m repro trace) -----------------------

TRACE_TABLE = Schema((
    Field("traceEvents", "list", "the events; never empty", lo=1, each=_of(
        Schema((
            Field("ph", doc="X: one span; M: a track's name; C: the final "
                  "value of a counter", values=("X", "M", "C")),
            Field("name", "str", lo=1),
            Field("pid", "int", "always 0"),
            Field("tid", "int", "the span's track index"),
        ), tag="ph", cases=(
            ("X", Schema((
                Field("ts", "real", "start, microseconds of simulated time",
                      lo=0),
                Field("dur", "real", "duration, microseconds", lo=0),
                Field("cat", "str", "span category", optional=True),
            ))),
            ("M", Schema((Field("args", "obj", "names the track",
                                schema=Schema((Field("name", "str"),))),))),
            ("C", Schema((Field("args", "obj", "counter values", lo=1,
                                each=Field("", "real")),))),
        ))
    )),
    Field("displayTimeUnit", doc="ms or ns", optional=True, nullable=True,
          values=("ms", "ns")),
))


def validate_lint_report(payload: Any) -> List[str]:
    """Structural errors in a lint report (empty list = valid)."""
    return check(payload, LINT_TABLE)


def validate_verify_report(payload: Any) -> List[str]:
    """Structural errors in a verify report (empty list = valid)."""
    return check(payload, VERIFY_TABLE)


def validate_faults_report(payload: Any) -> List[str]:
    """Structural errors in a faults report (empty list = valid)."""
    return check(payload, FAULTS_TABLE)


def validate_load_report(payload: Any) -> List[str]:
    """Structural errors in a load report (empty list = valid)."""
    return check(payload, LOAD_TABLE)


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural errors in an exported trace (empty list = valid).

    Extra top-level keys (``metadata``, ``metrics``) are allowed, as
    the trace-event spec allows them.
    """
    return check(payload, TRACE_TABLE)
