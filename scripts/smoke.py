#!/usr/bin/env python
"""End-to-end smoke checks of the command line, one table row per run.

Run as ``python scripts/smoke.py [SUBSYSTEM ...]`` (default: all of
trace, faults, load, verify, lint and collectives).  Each :class:`Row`
is one ``python -m repro`` run: its argv, its expected exit code, the
:mod:`repro.contract` schema table its JSON stdout must pass, an
optional replay whose stdout must match byte for byte (argv appended
to the row's own, or built from the payload), and an optional check
that raises :class:`SmokeFailure` with a one-line reason or returns a
one-line summary.  Stdout lands in ``smoke-out/`` at the repository
root, emptied first.  One line is printed per row; the first failing
row is named and the exit status is 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.contract import (  # noqa: E402
    FAULTS_TABLE,
    LINT_TABLE,
    LOAD_CURVE_TABLE,
    LOAD_TABLE,
    SWEEP_RESULT_TABLE,
    TRACE_TABLE,
    VERIFY_TABLE,
    Schema,
    check,
)

OUT = ROOT / "smoke-out"

#: Argv appended to the row's own, or the whole argv built from the payload.
Replay = Union[Tuple[str, ...], Callable[[Any], Sequence[str]]]


class SmokeFailure(Exception):
    """A row's run or payload broke one of its assertions."""


@dataclass(frozen=True)
class Row:
    """One CLI run; ``name`` is ``subsystem/what``."""

    name: str
    argv: Tuple[str, ...]
    exit: int = 0
    schema: Optional[Schema] = None
    replay: Optional[Replay] = None
    check: Optional[Callable[[Any], Optional[str]]] = None

    @property
    def subsystem(self) -> str:
        return self.name.split("/")[0]


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise SmokeFailure(reason)


def _trace(payload: Any) -> str:
    meta = payload["metadata"]
    _require(
        abs(meta["phase_sum_ns"] - meta["transfer_ns"])
        <= 1e-6 * meta["transfer_ns"],
        f"phase spans sum to {meta['phase_sum_ns']} ns but the transfer "
        f"reported {meta['transfer_ns']} ns",
    )
    written = json.loads((OUT / "trace.json").read_text())
    _require(written == payload, "--json stdout disagrees with the written file")
    return (f"{len(payload['traceEvents'])} events, "
            f"{meta['transfer_ns']:.0f} ns accounted for")


def _faults(payload: Any) -> str:
    fallback = payload["degraded"].get("fallback")
    _require(bool(fallback) and fallback["fallback"] == "buffer-packing",
             "chaos plan did not force the packing fallback")
    lost = payload["delta"]["throughput_pct"]
    _require(lost > 0, "chaos plan lost no throughput")
    return f"{payload['degraded']['mbps']:.1f} MB/s degraded (-{lost:.1f}%)"


def _replay_plan(payload: Any) -> Sequence[str]:
    plan = OUT / "faults-plan.json"
    plan.write_text(json.dumps(payload["plan"]))
    return ("faults", "--plan", str(plan), "--json")


def _load(payload: Any) -> str:
    latency = payload["latency_ns"]
    _require(latency["count"] > 0, "seed-7 steady run completed zero requests")
    return (f"{payload['completed']} requests, p50 {latency['p50'] / 1e3:.1f}"
            f"us / p99 {latency['p99'] / 1e3:.1f}us")


def _overload(payload: Any) -> str:
    section = payload.get("overload")
    _require(section is not None, "protected run is missing the overload section")
    totals = section["totals"]
    _require(totals["rejected"] + totals["shed"] > 0,
             "3.2x-capacity run with bounded-queue admission rejected/shed "
             "nothing: protection never engaged")
    ceiling = section["spec"]["p99_ceiling_ns"]
    p99 = payload["latency_ns"]["p99"]
    _require(p99 <= ceiling, f"protected p99 {p99 / 1e3:.1f}us exceeds the "
             f"declared ceiling {ceiling / 1e3:.1f}us")
    return (f"{totals['rejected']} rejected, {totals['shed']} shed, p99 "
            f"{p99 / 1e3:.1f}us <= {ceiling / 1e3:.1f}us")


def _curve(payload: Any) -> str:
    points = payload["points"]
    _require(len(points) == 4, f"expected 4 curve points, got {len(points)}")
    top = points[-1]
    _require(top.get("rejected", 0) + top.get("shed", 0) > 0,
             "4x point never engaged protection")
    return f"knee at {payload['knee_multiplier']}x"


def _racy(payload: Any) -> str:
    (result,) = payload["results"]
    rules = sorted({d["rule"] for d in result["diagnostics"]})
    _require("CT211" in rules, f"racy plan reported {rules}, no CT211")
    total = [b for b in result["bounds"] if b["phase"] == "total"]
    estimate = result["estimate_mbps"]
    _require(bool(total) and (
        total[0]["mbps_lo"] <= estimate <= total[0]["mbps_hi"]
    ), f"static bounds do not bracket {estimate} MB/s")
    uncovered = [name for name, entry in result["coverage"].items()
                 if not entry["covered"]]
    _require(not uncovered, f"uncovered fault classes: {uncovered}")
    return f"{rules} flagged, bounds bracket {estimate} MB/s"


def _collectives(payload: Any) -> str:
    rows = {row["id"]: row for row in payload["results"]}
    machines = {cell_id.split(":")[0] for cell_id in rows}
    _require({"cluster", "xe"} <= machines,
             f"grid covered {sorted(machines)}, not cluster+xe")
    for cell_id, row in rows.items():
        for field in ("op", "algorithm", "nodes", "ns", "mbps"):
            _require(field in row, f"{cell_id}: row is missing {field!r}")
    for machine in ("cluster", "xe"):
        for size, algorithm in (("1024", "binomial-tree"), ("1048576", "ring")):
            picked = rows[f"{machine}:broadcast:auto:{size}x16"]["algorithm"]
            _require(picked == algorithm, f"{machine}: {size} B broadcast "
                     f"picked {picked}, not {algorithm}")
    _require(any(row.get("hierarchical") and cell_id.startswith("cluster:")
                 for cell_id, row in rows.items()),
             "no cluster cell ran hierarchy-aware")
    seeded = [cell_id for cell_id in rows if cell_id.endswith(":seed7")]
    _require(bool(seeded), "the seed-7 axis produced no cells")
    return f"{len(rows)} cells, crossover holds, {len(seeded)} seeded"


_LOAD = ("load", "--seed", "7", "--json")
_PROTECTED = ("--admission", "bounded-queue", "--queue-limit", "32")
_BOTH = ("--x", "1", "--y", "64", "--style", "both")

ROWS: Tuple[Row, ...] = (
    Row("trace/t3d-chained", (
        "trace", "--machine", "t3d", "--x", "1", "--y", "64", "--bytes",
        "131072", "--style", "chained", "--out", str(OUT / "trace.json"),
        "--json"), schema=TRACE_TABLE, check=_trace),
    Row("faults/seed7", ("faults", "--seed", "7", "--json"),
        schema=FAULTS_TABLE, replay=_replay_plan, check=_faults),
    Row("load/steady", _LOAD + ("--duration", "0.02"), schema=LOAD_TABLE,
        replay=("--workers", "4"), check=_load),
    Row("load/overload", _LOAD + ("--duration", "0.02", "--rate-x", "3.2")
        + _PROTECTED + ("--station-capacity", "64", "--deadline-us", "20000",
                        "--p99-ceiling-us", "25000"),
        schema=LOAD_TABLE, replay=("--workers", "4"), check=_overload),
    Row("load/curve", _LOAD + ("--duration", "0.01", "--latency-curve",
                               "0.5,1,2,4") + _PROTECTED,
        schema=LOAD_CURVE_TABLE, check=_curve),
    Row("verify/clean", ("verify", "--step", "shift", "--machine", "t3d")),
    Row("verify/racy", ("verify", "--step", "fan-in", "--schedule", "eager",
                        "--machine", "t3d", "--json"),
        exit=1, schema=VERIFY_TABLE, check=_racy),
    Row("verify/deadlock", ("verify", "--step", "shift", "--discipline",
                            "blocking-sends", "--machine", "t3d"), exit=1),
    Row("lint/t3d", ("lint", "--machine", "t3d") + _BOTH),
    Row("lint/paragon", ("lint", "--machine", "paragon") + _BOTH),
    Row("lint/illegal", ("lint", "64C1 o 2C1"), exit=1),
    Row("lint/deep-json", ("lint", "--machine", "t3d") + _BOTH
        + ("--deep", "--json"), schema=LINT_TABLE),
    Row("collectives/seed7", ("sweep", "--grid", "collectives", "--seeds", "7",
                              "--json"), schema=SWEEP_RESULT_TABLE,
        replay=("--workers", "4", "--shard-size", "5"), check=_collectives),
)


def _cli(argv: Sequence[str], expected: int, out: Path) -> bytes:
    """Run ``python -m repro argv``; its stdout, saved to ``out``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "repro", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out.write_bytes(proc.stdout)
    if proc.returncode != expected:
        stderr = proc.stderr.decode(errors="replace").strip().splitlines()
        raise SmokeFailure(
            f"`repro {' '.join(argv)}` exited {proc.returncode}, expected "
            f"{expected}" + (f" ({stderr[-1]})" if stderr else ""))
    return proc.stdout


def _run_row(row: Row) -> Optional[str]:
    stem = row.name.replace("/", "-")
    stdout = _cli(row.argv, row.exit, OUT / f"{stem}.out")
    payload = None
    if row.schema is not None:
        payload = json.loads(stdout)
        errors = check(payload, row.schema)
        _require(not errors, "schema: " + "; ".join(errors))
    summary = row.check(payload) if row.check else None
    if row.replay is not None:
        argv = (row.argv + row.replay if isinstance(row.replay, tuple)
                else tuple(row.replay(payload)))
        replayed = _cli(argv, row.exit, OUT / f"{stem}.replay.out")
        _require(replayed == stdout,
                 f"replay `repro {' '.join(argv)}` is not byte-identical")
        summary = ", ".join(filter(None, (summary, "replay byte-identical")))
    return summary


def run(rows: Sequence[Row]) -> int:
    """Run ``rows`` in order; 0 when all pass, 1 at the first failure."""
    OUT.mkdir(exist_ok=True)
    for stale in OUT.iterdir():
        stale.unlink()
    start = time.perf_counter()
    for row in rows:
        print(f"{row.name:<20}", end=" ", flush=True)
        try:
            summary = _run_row(row)
        except SmokeFailure as exc:
            print(f"FAIL: {exc}")
            return 1
        print("ok" + (f": {summary}" if summary else ""), flush=True)
    print(f"{len(rows)} rows ok in {time.perf_counter() - start:.1f} s")
    return 0


def main(names: Sequence[str]) -> int:
    known = sorted({row.subsystem for row in ROWS})
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown subsystem {unknown}; choose from {known}", file=sys.stderr)
        return 2
    return run([row for row in ROWS if not names or row.subsystem in names])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
