"""The tracer: span/counter collection scoped by a context variable.

Design constraints, in priority order:

1. **Zero overhead when off.**  Instrumented code does
   ``tracer = current_tracer()`` once per operation (one
   ``ContextVar.get``) and guards every emission with
   ``if tracer is not None``.  No event objects, no string formatting,
   no dictionary churn happen unless a tracer is installed.
2. **No behavioural coupling.**  A tracer observes the simulation's
   clocks; it never feeds anything back, so traced and untraced runs
   produce bit-identical results (``tests/trace/test_parity.py``).
3. **Simulated time.**  Span timestamps are model nanoseconds on the
   emitter's clock.  A layer that composes nested clock domains (the
   runtime lays each pipeline's chunk rows end to end) places them
   itself before emitting.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry

__all__ = [
    "CounterSample",
    "SpanEvent",
    "Tracer",
    "current_tracer",
    "tracing",
]

_ACTIVE: ContextVar[Optional["Tracer"]] = ContextVar(
    "repro_active_tracer", default=None
)


@dataclass(frozen=True)
class SpanEvent:
    """One interval of simulated time on one track.

    Attributes:
        name: What ran ("gather", "network", "phase:pack", ...).
        track: The lane the span occupies — a hardware resource
            ("sender_cpu", "network") or a logical lane ("phase",
            "step").
        start_ns: Simulated start time.
        duration_ns: Simulated duration (>= 0).
        category: Coarse grouping used by exporters and the CLI
            ("phase", "stage", "step", "overhead", ...).
        args: Extra structured payload (chunk index, wait time, ...).
    """

    name: str
    track: str
    start_ns: float
    duration_ns: float
    category: str = "span"
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


@dataclass(frozen=True)
class CounterSample:
    """A named quantity observed at one point (no duration)."""

    name: str
    value: float
    at_ns: float = 0.0


class Tracer:
    """Collects spans and counters for one traced region.

    Not thread-safe by design: a tracer belongs to one context (see
    :func:`tracing`), mirroring how one simulated transfer belongs to
    one call stack.

    Attributes:
        metrics: A :class:`~repro.trace.metrics.MetricsRegistry`
            accumulating counters/histograms alongside the event list.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self._spans: List[SpanEvent] = []
        self._counters: List[CounterSample] = []

    # -- emission -----------------------------------------------------------

    def span(
        self,
        name: str,
        track: str,
        start_ns: float,
        duration_ns: float,
        category: str = "span",
        **args: Any,
    ) -> None:
        """Record one interval of simulated time."""
        self._spans.append(
            SpanEvent(
                name=name,
                track=track,
                start_ns=start_ns,
                duration_ns=duration_ns,
                category=category,
                args=args,
            )
        )

    def count(self, name: str, value: float = 1.0, at_ns: float = 0.0) -> None:
        """Increment counter ``name`` and keep the sample point."""
        self.metrics.inc(name, value)
        self._counters.append(CounterSample(name, value, at_ns))

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (distribution metric)."""
        self.metrics.observe(name, value)

    # -- views --------------------------------------------------------------

    def spans(self, category: Optional[str] = None) -> Tuple[SpanEvent, ...]:
        if category is None:
            return tuple(self._spans)
        return tuple(s for s in self._spans if s.category == category)

    def counters(self) -> Tuple[CounterSample, ...]:
        return tuple(self._counters)

    def tracks(self) -> Tuple[str, ...]:
        """Track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self._spans:
            seen.setdefault(event.track, None)
        return tuple(seen)

    def end_ns(self) -> float:
        """Latest span end time (0.0 when empty)."""
        return max((s.end_ns for s in self._spans), default=0.0)

    def __len__(self) -> int:
        return len(self._spans)


def current_tracer() -> Optional[Tracer]:
    """The tracer installed for this context, or ``None`` (tracing off)."""
    return _ACTIVE.get()


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of the ``with`` block.

    Nested blocks shadow the outer tracer; the outer one resumes
    untouched when the inner block exits.

    >>> with tracing() as t:
    ...     assert current_tracer() is t
    >>> current_tracer() is None
    True
    """
    active = tracer if tracer is not None else Tracer()
    token = _ACTIVE.set(active)
    try:
        yield active
    finally:
        _ACTIVE.reset(token)
