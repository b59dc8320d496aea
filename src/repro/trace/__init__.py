"""Observability for simulated transfers: structured tracing + metrics.

Every layer of the stack — the point-to-point runtime, the chunked
stage pipeline, collective steps, the memory-system engines and the
calibration cache — can emit structured events into a
:class:`~repro.trace.tracer.Tracer` when one is installed for the
current context:

>>> from repro.trace import tracing
>>> with tracing() as tracer:
...     runtime.transfer(x, y, 65536)           # doctest: +SKIP
>>> tracer.spans()                              # doctest: +SKIP

With no tracer installed (the default) every instrumentation point is
a single ``None`` check, so the hot paths — and their results — are
bit-identical to an uninstrumented build; ``tests/trace`` enforces
both properties.

Timestamps are **simulated nanoseconds** (the model's clock), not wall
time: a trace of a transfer shows where the transfer's nanoseconds
went, which is the paper's Figures 7/8 measured-vs-model question made
inspectable.

Exports: :func:`~repro.trace.export.chrome_trace` renders a
``chrome://tracing`` / Perfetto-loadable JSON,
:func:`~repro.trace.export.render_timeline` a terminal timeline, and
:func:`~repro.trace.export.utilization` per-resource busy fractions.
``python -m repro trace`` wraps all three.
"""

from .metrics import HistogramSummary, MetricsRegistry
from .tracer import (
    CounterSample,
    SpanEvent,
    Tracer,
    current_tracer,
    tracing,
)
from .export import chrome_trace, render_timeline, utilization
from ..contract import validate_chrome_trace

__all__ = [
    "CounterSample",
    "HistogramSummary",
    "MetricsRegistry",
    "SpanEvent",
    "Tracer",
    "chrome_trace",
    "current_tracer",
    "render_timeline",
    "tracing",
    "utilization",
    "validate_chrome_trace",
]
