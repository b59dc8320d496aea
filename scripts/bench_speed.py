#!/usr/bin/env python
"""Wall-clock benchmark of the calibration path: scalar vs fast engine.

Times end-to-end regeneration of the paper experiments that lean on
the memory-system simulator — Table 1 calibration, the Figure 4 stride
curves, the Figure 7 strategy comparison — once forced onto the scalar
reference oracle and once on the vectorized fast path, plus a
cache-warm rerun — the indexed-stream generator's bulk replay
against its per-run reference loop, and cold calibration of the
write-back machines (``modern``).  Emits ``BENCH_speed.json`` so
the performance trajectory stays visible across changes:

    python scripts/bench_speed.py [--output BENCH_speed.json]

The fast path must not change answers, so the harness also
cross-checks a headline figure between the two engines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.caching import CACHE_ENV, default_cache  # noqa: E402
from repro.memsim.engine import ENGINE_VERSION  # noqa: E402
from repro.memsim.fastpath import FASTPATH_VERSION  # noqa: E402
from repro.memsim.node import (  # noqa: E402
    DEFAULT_MEASURE_WORDS,
    ENGINE_ENV,
)

#: The acceptance bar: figure-4 regeneration at least this much faster.
FIG4_TARGET_SPEEDUP = 5.0

#: The sweep acceptance bar: the sharded engine regenerates the
#: figure-7 grid at least this much faster than the serial per-cell
#: loop it replaced (shared worker memos + process parallelism).
SWEEP_TARGET_SPEEDUP = 2.0

#: Worker processes for the sweep benchmark.
SWEEP_WORKERS = 4

#: The in-process sweep target: figure-7 regeneration on shared worker
#: memos at least this much faster than the honest serial per-cell loop.
BATCH_TARGET_SPEEDUP = 10.0

#: Hard regression floor for CI: below this the bench fails (between
#: floor and target it warns — single-run wall clocks on shared CI
#: hardware are noisy).
BATCH_FLOOR_SPEEDUP = 8.0

#: Tracing the figure-4 regeneration may cost at most this fraction of
#: the untraced run.  This is a hard gate: the overhead estimate is
#: the *median of per-round ratios* over rotated-order rounds (see
#: below), which is stable on shared hardware where single-shot ratios
#: swing by double digits.
TRACE_OVERHEAD_LIMIT = 0.02

#: An installed-but-empty fault plan must stay within the same bound:
#: the faults-off path is one context-var read per transfer.
FAULTS_OVERHEAD_LIMIT = 0.02

#: Rounds for the overhead measurement (each round times every mode
#: once, in rotated order).
OVERHEAD_ROUNDS = 7

#: The traffic engine must sustain at least this many discrete events
#: per wall-clock second (warn below target, fail below floor).
LOAD_TARGET_EVENTS_PER_S = 25_000.0
LOAD_FLOOR_EVENTS_PER_S = 8_000.0

#: Simulated horizon for the load benchmark.
LOAD_HORIZON_NS = 5e8

#: Pinned digest of the protection-off bench run.  The overload-
#: protection layer must not move a single byte of the unprotected
#: engine's canonical output — this is the regression tripwire.
LOAD_PROTECTION_OFF_DIGEST = (
    "2c3d33266f3778e6643a8f849dfb36f4a3afca45d1274b67512cc0ccc75fa3d0"
)

FIG4_STRIDES = (2, 4, 8, 16, 32, 64)

#: The stream-generation bar: every calibration-sized indexed stream
#: generates at least this much faster by bulk replay than by the
#: per-run reference loop — and byte for byte the same.
STREAMS_TARGET_SPEEDUP = 10.0

#: The write-back bar: a cold calibration table of each modern machine
#: builds at least this much faster on the fast path than on the scalar
#: oracle, every entry within MODERN_PARITY_REL of the oracle's.
MODERN_TARGET_SPEEDUP = 4.0
MODERN_PARITY_REL = 1e-9
MODERN_MACHINES = ("xe", "cluster")

#: Indexed streams timed: the run lengths the registered machines use,
#: each with both seeds NodeMemorySystem draws its streams from.
STREAM_INDEX_RUNS = (1, 2)
STREAM_SEEDS = (12345, 54321)


def _regen_figure4():
    from repro.bench import figure4
    from repro.machines import paragon, t3d

    return {
        "t3d": figure4(t3d(), FIG4_STRIDES),
        "paragon": figure4(paragon(), FIG4_STRIDES),
    }


def _regen_table1():
    from repro.bench import table1
    from repro.machines import paragon, t3d

    return {
        "t3d": [row.ours for row in table1(t3d())],
        "paragon": [row.ours for row in table1(paragon())],
    }


def _regen_figure7():
    from repro.bench import figure7
    from repro.sweep.worker import reset_memos

    # figure7() sweeps in-process, and the sweep's worker memos would
    # otherwise hand this run the tables an earlier engine measured.
    reset_memos()
    return figure7()


SECTIONS = {
    "figure4": _regen_figure4,
    "table1": _regen_table1,
    "figure7": _regen_figure7,
}


def _bench_streams(repeat: int) -> dict:
    """Time indexed offset generation: replay vs reference loop."""
    import numpy as np

    from repro.memsim.streams import (
        _indexed_word_offsets,
        _indexed_word_offsets_reference,
    )

    def reference(nwords, index_run, seed):
        rng = np.random.default_rng(seed)
        return _indexed_word_offsets_reference(nwords, index_run, rng)

    rows = []
    for index_run in STREAM_INDEX_RUNS:
        for seed in STREAM_SEEDS:
            times = {}
            outputs = {}
            for name, fn in (
                ("replay", _indexed_word_offsets),
                ("reference", reference),
            ):
                best = float("inf")
                for __ in range(repeat):
                    started = time.perf_counter()
                    outputs[name] = fn(DEFAULT_MEASURE_WORDS, index_run, seed)
                    best = min(best, time.perf_counter() - started)
                times[name] = best
            rows.append({
                "index_run": index_run,
                "seed": seed,
                "replay_s": round(times["replay"], 5),
                "reference_s": round(times["reference"], 4),
                "speedup": round(times["reference"] / times["replay"], 1),
                "byte_identical":
                    outputs["replay"].tobytes()
                    == outputs["reference"].tobytes(),
            })
    return {
        "nwords": DEFAULT_MEASURE_WORDS,
        "streams": rows,
        "min_speedup": min(row["speedup"] for row in rows),
        "byte_identical": all(row["byte_identical"] for row in rows),
    }


def _bench_modern(repeat: int) -> dict:
    """Time one cold full table per write-back machine, scalar vs fast.

    A table measures its entries when they are read, so the timer
    covers ``to_dict()``, which reads every one.
    """
    from repro.machines import machine_by_key
    from repro.machines.measure import measure_table

    rows = []
    for key in MODERN_MACHINES:
        times = {}
        tables = {}
        for mode in ("scalar", "fast"):
            os.environ[ENGINE_ENV] = mode
            best = float("inf")
            for __ in range(repeat):
                machine = machine_by_key(key)  # fresh kernel memo
                started = time.perf_counter()
                tables[mode] = measure_table(
                    machine, use_cache=False
                ).to_dict()
                best = min(best, time.perf_counter() - started)
            times[mode] = best
        scalar = tables["scalar"]
        fast = tables["fast"]
        worst_rel = max(
            abs(fast.get(name, float("inf")) - value) / abs(value)
            for name, value in scalar.items()
        )
        rows.append({
            "machine": key,
            "entries": len(scalar),
            "scalar_s": round(times["scalar"], 4),
            "fast_s": round(times["fast"], 4),
            "speedup": round(times["scalar"] / times["fast"], 2),
            "differing_entries": sum(
                fast.get(name) != value for name, value in scalar.items()
            ),
            "worst_rel_diff": worst_rel,
            "same_entries": fast.keys() == scalar.keys(),
        })
    os.environ.pop(ENGINE_ENV, None)
    return {
        "machines": rows,
        "min_speedup": min(row["speedup"] for row in rows),
        "worst_rel_diff": max(row["worst_rel_diff"] for row in rows),
        "same_entries": all(row["same_entries"] for row in rows),
    }


def _timed(fn, repeat: int):
    """Best-of-``repeat`` wall time and the last result."""
    best = float("inf")
    result = None
    for __ in range(repeat):
        default_cache().clear()
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _run_mode(mode: str, repeat: int):
    """Time every section with the given engine forced."""
    os.environ[ENGINE_ENV] = mode
    timings = {}
    results = {}
    for name, fn in SECTIONS.items():
        timings[name], results[name] = _timed(fn, repeat)
    return timings, results


def _flatten_fig4(curves) -> list:
    return [
        rate
        for machine_curves in curves.values()
        for series in machine_curves.values()
        for __, rate in series
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_speed.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="take the best of N runs per section")
    args = parser.parse_args()

    # Engine-vs-engine timings exclude the calibration cache; it gets
    # its own measurement below.
    os.environ[CACHE_ENV] = "off"

    streams = _bench_streams(args.repeat)
    modern = _bench_modern(args.repeat)
    scalar_times, scalar_results = _run_mode("scalar", args.repeat)
    fast_times, fast_results = _run_mode("auto", args.repeat)

    # Parity spot check on the headline numbers.
    mismatches = [
        (a, b)
        for a, b in zip(
            _flatten_fig4(scalar_results["figure4"]),
            _flatten_fig4(fast_results["figure4"]),
        )
        if abs(a - b) > 1e-6 * max(abs(a), abs(b), 1.0)
    ]

    # Tracer overhead: with a tracer installed, the figure-4 regen pays
    # only counter increments per kernel; it must stay within noise of
    # the untraced run (the trace-off path is a single context-var read).
    from repro.trace import tracing

    def _fig4_traced():
        with tracing():
            return _regen_figure4()

    # Faults-off overhead: an installed-but-empty fault plan must cost
    # no more than the context-var read the instrumentation pays.
    from repro.faults import FaultPlan, injecting

    def _fig4_empty_plan():
        with injecting(FaultPlan(seed=0)):
            return _regen_figure4()

    # Interleaved, rotated rounds with a median-of-ratios estimate.
    # Each round times every mode back to back, so clock drift hits all
    # modes equally; the order rotates each round, so systematic
    # first/last effects (cache warmth, frequency scaling) cancel; and
    # the reported overhead is the *median of per-round ratios* — a
    # single slow round (cron wakeup, GC) shifts one sample, not the
    # estimate, where best-of-N comparisons were at the mercy of which
    # mode caught the quiet moment.
    os.environ[ENGINE_ENV] = "auto"
    overhead_rounds = max(args.repeat, OVERHEAD_ROUNDS)
    modes = [
        ("untraced", _regen_figure4),
        ("traced", _fig4_traced),
        ("empty_plan", _fig4_empty_plan),
    ]
    round_times = {name: [] for name, __ in modes}
    for round_index in range(overhead_rounds):
        pivot = round_index % len(modes)
        for name, fn in modes[pivot:] + modes[:pivot]:
            default_cache().clear()
            started = time.perf_counter()
            fn()
            round_times[name].append(time.perf_counter() - started)

    def _median_ratio(name: str) -> float:
        ratios = sorted(
            mode_s / base_s
            for mode_s, base_s in zip(
                round_times[name], round_times["untraced"]
            )
        )
        return ratios[len(ratios) // 2] - 1.0

    untraced_s = min(round_times["untraced"])
    traced_s = min(round_times["traced"])
    faulted_s = min(round_times["empty_plan"])
    trace_overhead = _median_ratio("traced")
    faults_overhead = _median_ratio("empty_plan")

    # Sweep engine: the figure-7 grid, serial per-cell loop (the exact
    # code shape the consumers used before repro.sweep existed: every
    # cell rebuilds its runtime and table from scratch) vs the sharded
    # engine on SWEEP_WORKERS processes.  The cache stays off so this
    # measures execution strategy, not cache hits; the two results must
    # be bit-identical.
    from repro.sweep import figure7_spec, run_serial, run_sweep

    os.environ[ENGINE_ENV] = "auto"
    sweep_spec = figure7_spec()
    serial_sweep_s = float("inf")
    parallel_sweep_s = float("inf")
    serial_digest = parallel_digest = None
    for __ in range(args.repeat):
        default_cache().clear()
        started = time.perf_counter()
        serial_result = run_serial(sweep_spec)
        serial_sweep_s = min(
            serial_sweep_s, time.perf_counter() - started
        )
        serial_digest = serial_result.digest()
        default_cache().clear()
        started = time.perf_counter()
        parallel_result = run_sweep(sweep_spec, workers=SWEEP_WORKERS)
        parallel_sweep_s = min(
            parallel_sweep_s, time.perf_counter() - started
        )
        parallel_digest = parallel_result.digest()
    sweep_identical = serial_digest == parallel_digest
    sweep_speedup = (
        serial_sweep_s / parallel_sweep_s
        if parallel_sweep_s > 0
        else float("inf")
    )

    # In-process sweep: the same figure-7 grid run cell by cell in one
    # process on shared worker memos (run_sweep(workers=1)), against
    # the same honest serial baseline, which rebuilds every cell's
    # state.  Cache stays off; the payload must be bit-identical, cell
    # for cell.
    batch_sweep_s = float("inf")
    batch_digest = None
    for __ in range(args.repeat):
        default_cache().clear()
        started = time.perf_counter()
        batch_result = run_sweep(sweep_spec, workers=1)
        batch_sweep_s = min(batch_sweep_s, time.perf_counter() - started)
        batch_digest = batch_result.digest()
    batch_identical = serial_digest == batch_digest
    batch_speedup = (
        serial_sweep_s / batch_sweep_s if batch_sweep_s > 0 else float("inf")
    )

    # Traffic engine throughput: drive a sustained open-loop workload
    # through the discrete-event engine and report events processed per
    # wall-clock second, plus a replay for the bit-identity guarantee.
    from repro.load import (
        LoadEngine,
        LoadProfile,
        OpenLoopSpec,
        RequestTemplate,
    )

    load_profile = LoadProfile(
        name="bench",
        nodes=16,
        open_loops=(
            OpenLoopSpec(
                name="bench",
                rate_per_s=50_000.0,
                templates=(
                    RequestTemplate("small", nbytes=4096),
                    RequestTemplate("large", y="64", nbytes=65536),
                ),
            ),
        ),
    )
    started = time.perf_counter()
    load_result = LoadEngine(load_profile, seed=7).run(LOAD_HORIZON_NS)
    load_s = time.perf_counter() - started
    load_events = load_result.stats["events"]
    load_eps = load_events / load_s if load_s > 0 else float("inf")
    load_replay = LoadEngine(load_profile, seed=7).run(LOAD_HORIZON_NS)
    load_identical = load_result.digest() == load_replay.digest()
    load_digest_pinned = (
        load_result.digest() == LOAD_PROTECTION_OFF_DIGEST
    )

    # Cache effect: cold vs warm table regeneration with caching on.
    del os.environ[CACHE_ENV]
    os.environ[ENGINE_ENV] = "auto"
    default_cache().clear(disk=True)
    started = time.perf_counter()
    _regen_table1()
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    _regen_table1()
    warm_s = time.perf_counter() - started
    os.environ.pop(ENGINE_ENV, None)

    sections = {}
    for name in SECTIONS:
        speedup = (
            scalar_times[name] / fast_times[name]
            if fast_times[name] > 0
            else float("inf")
        )
        sections[name] = {
            "scalar_s": round(scalar_times[name], 4),
            "fast_s": round(fast_times[name], 4),
            "speedup": round(speedup, 2),
        }
    payload = {
        "generated_by": "scripts/bench_speed.py",
        "engine_version": ENGINE_VERSION,
        "fastpath_version": FASTPATH_VERSION,
        "sections": sections,
        "calibration_cache": {
            "table1_cold_s": round(cold_s, 4),
            "table1_warm_s": round(warm_s, 4),
        },
        "trace_overhead": {
            "figure4_untraced_s": round(untraced_s, 4),
            "figure4_traced_s": round(traced_s, 4),
            "overhead_pct": round(trace_overhead * 100.0, 2),
        },
        "faults_overhead": {
            "figure4_no_plan_s": round(untraced_s, 4),
            "figure4_empty_plan_s": round(faulted_s, 4),
            "overhead_pct": round(faults_overhead * 100.0, 2),
        },
        "sweep": {
            "grid": "figure7",
            "cells": len(serial_result),
            "workers": SWEEP_WORKERS,
            "serial_s": round(serial_sweep_s, 4),
            "parallel_s": round(parallel_sweep_s, 4),
            "speedup": round(sweep_speedup, 2),
            "bit_identical": sweep_identical,
            "digest": parallel_digest,
        },
        "batch": {
            "grid": "figure7",
            "cells": len(batch_result),
            "serial_s": round(serial_sweep_s, 4),
            "batch_s": round(batch_sweep_s, 4),
            "speedup": round(batch_speedup, 2),
            "bit_identical": batch_identical,
            "digest": batch_digest,
        },
        "load": {
            "profile": load_profile.name,
            "horizon_ns": LOAD_HORIZON_NS,
            "requests": load_result.completed,
            "events": load_events,
            "wall_s": round(load_s, 4),
            "events_per_s": round(load_eps, 1),
            "bit_identical": load_identical,
            "digest": load_result.digest(),
        },
        "streams": streams,
        "modern": modern,
        "parity_mismatches": len(mismatches),
        "meets_target": {
            "figure4_speedup_gte_5x":
                sections["figure4"]["speedup"] >= FIG4_TARGET_SPEEDUP,
            "figure4_trace_overhead_lt_2pct":
                trace_overhead < TRACE_OVERHEAD_LIMIT,
            "figure4_faults_off_overhead_lt_2pct":
                faults_overhead < FAULTS_OVERHEAD_LIMIT,
            "figure7_sweep_speedup_gte_2x":
                sweep_speedup >= SWEEP_TARGET_SPEEDUP,
            "figure7_sweep_bit_identical": sweep_identical,
            "figure7_batch_speedup_gte_10x":
                batch_speedup >= BATCH_TARGET_SPEEDUP,
            "figure7_batch_bit_identical": batch_identical,
            "load_engine_gte_25k_events_per_s":
                load_eps >= LOAD_TARGET_EVENTS_PER_S,
            "load_replay_bit_identical": load_identical,
            "load_protection_off_digest_pinned": load_digest_pinned,
            "indexed_streams_speedup_gte_10x":
                streams["min_speedup"] >= STREAMS_TARGET_SPEEDUP,
            "indexed_streams_byte_identical": streams["byte_identical"],
            "modern_calibration_speedup_gte_4x":
                modern["min_speedup"] >= MODERN_TARGET_SPEEDUP,
            "modern_calibration_within_1e-9":
                modern["same_entries"]
                and modern["worst_rel_diff"] <= MODERN_PARITY_REL,
        },
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(f"{'section':10} {'scalar':>9} {'fast':>9} {'speedup':>8}")
    for name, row in sections.items():
        print(
            f"{name:10} {row['scalar_s']:8.2f}s {row['fast_s']:8.2f}s "
            f"{row['speedup']:7.2f}x"
        )
    for row in streams["streams"]:
        print(
            f"indexed stream run {row['index_run']} seed {row['seed']}: "
            f"reference {row['reference_s']:.3f}s -> replay "
            f"{row['replay_s'] * 1e3:.1f}ms ({row['speedup']:.1f}x, "
            f"{'byte-identical' if row['byte_identical'] else 'BYTES DIFFER'})"
        )
    for row in modern["machines"]:
        print(
            f"modern {row['machine']} cold table: scalar "
            f"{row['scalar_s']:.2f}s -> fast {row['fast_s']:.2f}s "
            f"({row['speedup']:.1f}x, {row['differing_entries']} of "
            f"{row['entries']} entries differ, worst "
            f"{row['worst_rel_diff']:.1e} relative)"
        )
    print(
        f"table1 with calibration cache: cold {cold_s:.2f}s -> "
        f"warm {warm_s * 1e3:.1f}ms"
    )
    print(
        f"figure4 with tracer installed: {traced_s:.2f}s "
        f"({trace_overhead * 100.0:+.1f}% vs untraced, median of "
        f"{overhead_rounds} rounds)"
    )
    print(
        f"figure4 with empty fault plan: {faulted_s:.2f}s "
        f"({faults_overhead * 100.0:+.1f}% vs no plan, median of "
        f"{overhead_rounds} rounds)"
    )
    print(
        f"figure7 sweep: serial {serial_sweep_s:.2f}s -> "
        f"{SWEEP_WORKERS} workers {parallel_sweep_s:.2f}s "
        f"({sweep_speedup:.2f}x, "
        f"{'bit-identical' if sweep_identical else 'RESULTS DIFFER'})"
    )
    print(
        f"figure7 in-process sweep: serial {serial_sweep_s:.2f}s -> "
        f"in-process {batch_sweep_s:.2f}s "
        f"({batch_speedup:.2f}x, "
        f"{'bit-identical' if batch_identical else 'RESULTS DIFFER'})"
    )
    print(
        f"load engine: {load_result.completed} requests / "
        f"{load_events} events in {load_s:.2f}s "
        f"({load_eps:,.0f} events/s, "
        f"{'bit-identical replay' if load_identical else 'REPLAY DIFFERS'})"
    )
    print(f"wrote {args.output}")

    if trace_overhead >= TRACE_OVERHEAD_LIMIT:
        print(
            f"FAIL: tracer overhead {trace_overhead * 100.0:.1f}% >= "
            f"{TRACE_OVERHEAD_LIMIT * 100.0:.0f}% target "
            f"(median of {overhead_rounds} rotated rounds)",
            file=sys.stderr,
        )
        return 1
    if faults_overhead >= FAULTS_OVERHEAD_LIMIT:
        print(
            f"FAIL: faults-off overhead {faults_overhead * 100.0:.1f}% >= "
            f"{FAULTS_OVERHEAD_LIMIT * 100.0:.0f}% target "
            f"(median of {overhead_rounds} rotated rounds)",
            file=sys.stderr,
        )
        return 1
    if not load_identical:
        print(
            f"FAIL: load-engine replay differs "
            f"({load_result.digest()} vs {load_replay.digest()})",
            file=sys.stderr,
        )
        return 1
    if not load_digest_pinned:
        print(
            f"FAIL: protection-off load digest moved "
            f"({load_result.digest()} vs pinned "
            f"{LOAD_PROTECTION_OFF_DIGEST}) — the overload layer "
            f"must not perturb the unprotected engine",
            file=sys.stderr,
        )
        return 1
    if load_eps < LOAD_FLOOR_EVENTS_PER_S:
        print(
            f"FAIL: load engine {load_eps:,.0f} events/s < "
            f"{LOAD_FLOOR_EVENTS_PER_S:,.0f} regression floor",
            file=sys.stderr,
        )
        return 1
    if load_eps < LOAD_TARGET_EVENTS_PER_S:
        print(
            f"WARN: load engine {load_eps:,.0f} events/s < "
            f"{LOAD_TARGET_EVENTS_PER_S:,.0f} target",
            file=sys.stderr,
        )

    if not streams["byte_identical"]:
        print(
            "FAIL: indexed-stream replay differs from the reference loop",
            file=sys.stderr,
        )
        return 1
    if streams["min_speedup"] < STREAMS_TARGET_SPEEDUP:
        print(
            f"FAIL: indexed-stream replay speedup "
            f"{streams['min_speedup']:.1f}x < "
            f"{STREAMS_TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
        return 1
    if not payload["meets_target"]["modern_calibration_within_1e-9"]:
        print(
            f"FAIL: modern calibration tables differ between scalar and "
            f"fast beyond {MODERN_PARITY_REL:.0e} relative "
            f"(worst {modern['worst_rel_diff']:.1e})",
            file=sys.stderr,
        )
        return 1
    if modern["min_speedup"] < MODERN_TARGET_SPEEDUP:
        print(
            f"FAIL: modern calibration speedup "
            f"{modern['min_speedup']:.2f}x < "
            f"{MODERN_TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
        return 1
    if mismatches:
        print(f"FAIL: {len(mismatches)} scalar/fast figure-4 mismatches",
              file=sys.stderr)
        return 1
    if not sweep_identical:
        print(
            f"FAIL: figure-7 sweep results differ between serial and "
            f"{SWEEP_WORKERS}-worker execution "
            f"({serial_digest} vs {parallel_digest})",
            file=sys.stderr,
        )
        return 1
    if not payload["meets_target"]["figure7_sweep_speedup_gte_2x"]:
        print(
            f"FAIL: figure-7 sweep speedup {sweep_speedup:.2f}x < "
            f"{SWEEP_TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
        return 1
    if not batch_identical:
        print(
            f"FAIL: figure-7 batch results differ from the serial loop "
            f"({serial_digest} vs {batch_digest})",
            file=sys.stderr,
        )
        return 1
    if batch_speedup < BATCH_FLOOR_SPEEDUP:
        print(
            f"FAIL: figure-7 batch speedup {batch_speedup:.2f}x < "
            f"{BATCH_FLOOR_SPEEDUP:.0f}x regression floor",
            file=sys.stderr,
        )
        return 1
    if batch_speedup < BATCH_TARGET_SPEEDUP:
        print(
            f"WARN: figure-7 batch speedup {batch_speedup:.2f}x < "
            f"{BATCH_TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
    if not payload["meets_target"]["figure4_speedup_gte_5x"]:
        print(
            f"FAIL: figure-4 speedup "
            f"{sections['figure4']['speedup']:.2f}x < "
            f"{FIG4_TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
