#!/usr/bin/env python3
"""Host-time benchmark of the repository, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` repeats the workload, cold each time, for ``--seconds``
seconds and reports the end-to-end metrics: ``cells_per_s``,
``setup_s`` and ``peak_rss_mb``.  Times are quiet times, with the
shared host's interference taken out by ``perfbench/hostclock.py``.  ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics (calls and
self time per layer, counters the program exposes, ``unattributed_s``
and the tracing overhead).  Every repetition's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "golden" / "data"

WORKLOAD_NAMES = (
    "paper-figures", "modern-figures", "collectives-64", "load-steady"
)

#: The modules a user of the workloads imports; their import time, in
#: a fresh interpreter, is part of ``setup_s``.
IMPORTS = (
    "repro.bench.experiments, repro.bench.goldens, repro.sweep, "
    "repro.load, repro.caching"
)
IMPORT_SAMPLES = 5

#: Run in a fresh interpreter: times the imports on a :class:`HostClock`
#: and prints their quiet time.
IMPORT_PROBE = (
    "from hostclock import HostClock\n"
    "with HostClock() as clock:\n"
    f"    import {IMPORTS}\n"
    "print(repr(clock.quiet_s()))\n"
)

#: Environment switches that would take a run off the production path.
UNSET_ENV = ("REPRO_MEMSIM_ENGINE", "REPRO_CACHE")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_seconds() -> float:
    """Median quiet time to import the workload modules in a fresh process."""
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join((str(HERE), str(SRC)))
    )
    samples = []
    for __ in range(IMPORT_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=str(ROOT), env=env, check=True, timeout=120,
            stdout=subprocess.PIPE, text=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _cold() -> None:
    """Empty every cache the program keeps across calls in one process.

    The garbage of the previous repetition is collected too, so every
    repetition starts the cyclic collector from the same state; left
    in place, it made identical load-steady runs differ by 20 %.
    """
    from repro.caching import default_cache
    from repro.netsim import schedule
    from repro.sweep.worker import reset_memos

    default_cache().clear(disk=True)
    reset_memos()
    schedule._SCHEDULED_CACHE.clear()
    gc.collect()


class Repetition:
    """Timings, checks and counters of one cold repetition.

    A repetition whose setup, run or check raises counts as one failed
    operation; the traceback goes to standard error and the run goes on.
    """

    def __init__(
        self, workload: Any, seed: int, recorder: Any, quiet: bool
    ) -> None:
        self.traced = recorder is not None
        self.quiet = quiet
        self.ok = False
        self.attempted, self.failed = 1, 1
        try:
            output = self._measure(workload, seed, recorder)
            self.cells = workload.cells(output)
            self.counters = workload.counters(output)
            self.notes = workload.notes(output)
            self.attempted, self.failed = workload.check(output)
        except Exception:  # noqa: BLE001 - reported, counted as failed
            traceback.print_exc()
            return
        self.ok = True

    def _measure(self, workload: Any, seed: int, recorder: Any) -> Any:
        from repro.caching import default_cache

        cache = default_cache()
        before = (cache.memory_hits, cache.disk_hits, cache.misses)
        if recorder is None:
            with HostClock(probing=self.quiet) as setup_clock:
                state = workload.setup(seed)
            with HostClock(probing=self.quiet) as run_clock:
                output = workload.run(state)
            self.setup_s = setup_clock.quiet_s()
            self.run_s = run_clock.quiet_s()
            self.run_wall_s = run_clock.wall_s
            self.total_s = setup_clock.wall_s + run_clock.wall_s
        else:
            from layers import installed

            started = time.perf_counter()
            with installed(recorder), recorder.repetition():
                state = workload.setup(seed)
                built = time.perf_counter()
                output = workload.run(state)
            finished = time.perf_counter()
            self.setup_s = built - started
            self.run_s = self.run_wall_s = finished - built
            self.total_s = finished - started
        self.cache_hits = cache.memory_hits - before[0]
        self.cache_lookups = self.cache_hits + cache.misses - before[2]
        if cache.disk_hits != before[1]:
            raise RuntimeError(
                "calibration tables came from the disk cache: the "
                "repetition was not cold"
            )
        return output


def _repeat(
    workload: Any, seed: int, seconds: float, recorder: Any
) -> List[Repetition]:
    """Cold repetitions until the next step would overrun ``seconds``.

    Without a recorder each step is one untraced repetition, timed in
    quiet seconds on a :class:`HostClock`.  With one, each step is a
    pair, one untraced and one traced, both timed by the wall clock
    alone, whose order flips from pair to pair so that neither side
    always runs first.
    """
    reps: List[Repetition] = []
    order = [False] if recorder is None else [False, True]
    started = time.perf_counter()
    steps = 0
    while True:
        for traced in order:
            _cold()
            reps.append(Repetition(
                workload, seed, recorder if traced else None,
                quiet=recorder is None,
            ))
        order.reverse()
        steps += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / steps > seconds:
            return reps


def _end_to_end(reps: List[Repetition], import_s: float) -> Dict[str, Any]:
    import resource

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cells_per_s": {
            "value": statistics.median(r.cells / r.run_s for r in reps),
            "unit": "1/s",
        },
        "setup_s": {
            "value": import_s + statistics.median(r.setup_s for r in reps),
            "unit": "s",
        },
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def _per_layer(reps: List[Repetition], recorder: Any) -> Dict[str, Any]:
    from layers import LAYERS

    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    n = len(traced)
    ids = recorder.layer_ids
    self_s = {name: recorder.self_s[ids[name]] / n for name in LAYERS}
    calls = {name: recorder.calls[ids[name]] / n for name in LAYERS}
    self_s["memsim.stream"] += self_s.pop("memsim.stream.indexed")
    calls["memsim.stream"] += calls.pop("memsim.stream.indexed")

    metrics: Dict[str, Any] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer in self_s:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", self_s[layer], "s")
    put(
        "memsim.stream.indexed_self_s",
        recorder.self_s[ids["memsim.stream.indexed"]] / n, "s",
    )

    def succeeded(layer: str) -> int:
        return recorder.calls[ids[layer]] - recorder.failures[ids[layer]]

    kernels = succeeded("memsim.kernel.fast") + succeeded("memsim.kernel.scalar")
    kernel_s = self_s["memsim.kernel.fast"] + self_s["memsim.kernel.scalar"]
    node_calls = recorder.calls[ids["memsim.node"]]
    put(
        "memsim.kernel.fast_share",
        succeeded("memsim.kernel.fast") / kernels if kernels else 0.0, "ratio",
    )
    put(
        "memsim.kernel.words_per_s",
        recorder.kernel_words / n / kernel_s if kernel_s else 0.0, "1/s",
    )
    put(
        "memsim.memo_hit_ratio",
        (node_calls - kernels) / node_calls if node_calls else 0.0, "ratio",
    )
    put("memsim.fastpath_fallbacks", recorder.fastpath_fallbacks() / n, "count")

    lookups = sum(r.cache_lookups for r in traced)
    put(
        "calibration.cache.hit_ratio",
        sum(r.cache_hits for r in traced) / lookups if lookups else 0.0, "ratio",
    )

    for name in ("sweep.cells", "sweep.batch_fallback_ratio",
                 "load.events", "load.requests"):
        put(
            name,
            statistics.mean(r.counters.get(name, 0.0) for r in traced),
            "ratio" if name.endswith("ratio") else "count",
        )
    put(
        "load.events_per_s",
        statistics.median(
            r.counters.get("load.events", 0.0) / r.run_s for r in plain
        ),
        "1/s",
    )

    wall_s = recorder.wall_s / n
    put("unattributed_s", recorder.self_s[ids["rep"]] / n, "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.sum_error_s", recorder.worst_sum_error_s, "s")
    put("trace.spans", len(recorder.span_layer) / n, "count")
    # Reps run in (untraced, traced) or (traced, untraced) pairs.
    ratios = [
        (b.total_s / a.total_s) if b.traced else (a.total_s / b.total_s)
        for a, b in zip(reps[0::2], reps[1::2])
    ]
    put("trace.overhead_share", statistics.median(ratios) - 1.0, "ratio")
    return dict(sorted(metrics.items()))


def _print_metrics(metrics: Dict[str, Any]) -> None:
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")


def _write_spans(recorder: Any, workload: str, seed: int) -> bool:
    """Dump the spans; False if self times miss the traced wall time."""
    from layers import SUM_TOLERANCE_S

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload}-seed{seed}.json"
    recorder.write(str(spans))
    print(f"spans written to {spans.relative_to(ROOT)}")
    if recorder.worst_sum_error_s > SUM_TOLERANCE_S:
        print(
            f"error: layer self times plus unattributed_s miss the traced "
            f"wall time by {recorder.worst_sum_error_s:.3g} s",
            file=sys.stderr,
        )
        return False
    return True


def main(argv: List[str]) -> int:
    args = _parse(argv)
    missing = [str(p) for p in (SRC / "repro", GOLDENS) if not p.is_dir()]
    if missing:
        print(
            "error: not a checkout of the repository "
            f"(missing {', '.join(missing)})",
            file=sys.stderr,
        )
        return 2

    for name in UNSET_ENV:
        os.environ.pop(name, None)
    cache_dir = tempfile.mkdtemp(prefix=".perfbench-cache-", dir=str(ROOT))
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    sys.path.insert(0, str(SRC))
    try:
        import_s = _import_seconds()
        from layers import SpanRecorder
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        recorder = SpanRecorder() if args.trace else None
        reps = _repeat(workload, args.seed, args.seconds, recorder)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = failed == 0
    print(f"workload {workload.name}: {workload.why}")
    print(
        f"{len(reps)} cold repetitions; failed_share "
        f"{failed / attempted:.6g} ({failed}/{attempted})"
    )
    metrics: Dict[str, Any] = {}
    if not all(r.ok for r in reps):
        print("error: a repetition raised; no metrics", file=sys.stderr)
    else:
        for name, (value, unit) in reps[0].notes.items():
            print(f"{name} {value:.6g} {unit}")
        if recorder is None:
            wall_rate = statistics.median(r.cells / r.run_wall_s for r in reps)
            slowdown = statistics.median(r.run_wall_s / r.run_s for r in reps)
            print(f"cells_per_s by the wall clock {wall_rate:.6g} 1/s")
            print(f"wall time over quiet time {slowdown:.4g}")
            metrics = _end_to_end(reps, import_s)
        else:
            metrics = _per_layer(reps, recorder)
            correct = _write_spans(recorder, workload.name, args.seed) and correct
    if metrics:
        _print_metrics(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
