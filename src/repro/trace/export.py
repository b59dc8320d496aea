"""Trace exporters: Chrome/Perfetto JSON, text timeline, utilization.

All three read the same :class:`~repro.trace.tracer.Tracer`; none
mutate it, so a trace can be exported every way at once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .tracer import Tracer

__all__ = ["chrome_trace", "render_timeline", "utilization"]

_US_PER_NS = 1e-3


def chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Export as the Chrome Trace Event JSON Object Format.

    The result loads directly in ``chrome://tracing`` and Perfetto;
    :data:`repro.contract.TRACE_TABLE` describes the exact subset
    emitted.
    """
    tracks = {name: index for index, name in enumerate(tracer.tracks())}
    events: List[Dict[str, Any]] = []
    for name, tid in tracks.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            }
        )
    for span in tracer.spans():
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": span.start_ns * _US_PER_NS,
                "dur": span.duration_ns * _US_PER_NS,
                "pid": 0,
                "tid": tracks[span.track],
                "args": dict(span.args),
            }
        )
    counter_tid = len(tracks)
    end_us = tracer.end_ns() * _US_PER_NS
    for name, value in sorted(tracer.metrics.counters().items()):
        events.append(
            {
                "ph": "C",
                "name": name,
                "ts": end_us,
                "pid": 0,
                "tid": counter_tid,
                "args": {"value": value},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "metadata": dict(metadata or {}),
        "metrics": tracer.metrics.snapshot(),
    }


def utilization(tracer: Tracer, categories: tuple = ("stage",)) -> Dict[str, float]:
    """Busy fraction of each resource track over the traced interval.

    Only span categories that represent actual resource occupancy
    participate (chunk-level ``stage`` spans by default); logical
    lanes like the phase summary track are skipped.
    """
    total = tracer.end_ns()
    if total <= 0:
        return {}
    busy: Dict[str, float] = {}
    for span in tracer.spans():
        if span.category not in categories:
            continue
        busy[span.track] = busy.get(span.track, 0.0) + span.duration_ns
    return {track: ns / total for track, ns in sorted(busy.items())}


def render_timeline(tracer: Tracer, width: int = 64) -> str:
    """A fixed-width terminal timeline, one row per track.

    Each row shows the track's spans as filled cells over the traced
    interval, followed by the track's total busy time.  Intended for
    quick looks; load the Chrome JSON in Perfetto for real digging.
    """
    total = tracer.end_ns()
    if total <= 0:
        return "(empty trace)"
    tracks = tracer.tracks()
    label_width = max(len(t) for t in tracks)
    lines = [
        f"{'':{label_width}}  0 ns {'·' * (width - 12)} {total:,.0f} ns"
    ]
    for track in tracks:
        cells = [" "] * width
        busy_ns = 0.0
        for span in tracer.spans():
            if span.track != track:
                continue
            busy_ns += span.duration_ns
            lo = int(span.start_ns / total * width)
            hi = int(span.end_ns / total * width)
            hi = max(hi, lo + 1)
            for cell in range(lo, min(hi, width)):
                cells[cell] = "█"
        lines.append(
            f"{track:{label_width}}  [{''.join(cells)}] {busy_ns:>12,.0f} ns"
        )
    return "\n".join(lines)
