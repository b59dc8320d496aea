"""Workload descriptions for the traffic engine.

A :class:`LoadProfile` says *who* sends *what* at the machine:

* :class:`RequestTemplate` — one request shape (an ``xQy`` transfer of
  a given size and strategy, with a queueing priority);
* :class:`OpenLoopSpec` — an open-loop generator: arrivals follow a
  seeded Poisson process at ``rate_per_s``, optionally in bursts of
  ``burst`` back-to-back requests (a bursty source), regardless of how
  the system keeps up;
* :class:`ClosedLoopSpec` — a closed-loop generator: ``clients``
  simulated clients that each issue one request, wait for it to
  complete, think for ``think_ns``, and reissue.

All randomness (arrival gaps, think times, template picks) is drawn
from keyed streams of :func:`repro.contract.draws` — pure functions of
``(seed, key)``, the draw :meth:`repro.faults.FaultPlan.uniform` makes
too — so a profile replays bit-identically for a given seed no matter
how generators are sharded across workers or interleaved in the event
loop.  A generator binds its streams once per run: the gaps to
``("gap", name)``, the picks to ``("template", name)`` and the think
times to ``("think", name)``.  An open loop binds the run form,
:func:`repro.contract.draw_runs`, and draws its gaps and picks a
block of bursts at a time, bit for bit the per-key draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..contract import draw_runs, draws, uniform
from ..core.errors import ModelError
from .overload import OverloadSpec

__all__ = [
    "RequestTemplate",
    "OpenLoopSpec",
    "ClosedLoopSpec",
    "LoadProfile",
    "PROFILES",
    "profile_by_name",
    "uniform",
]


def exponential(mean: float, draw: float) -> float:
    """The exponential variate with the given mean at uniform ``draw``."""
    # 1 - u is in (0, 1], so the log never sees zero.
    return -mean * math.log(1.0 - draw)


@dataclass(frozen=True)
class RequestTemplate:
    """One request shape a generator can issue.

    Attributes:
        name: Label for reporting and affinity hashing.
        x / y: Source / destination access patterns (``AccessPattern``
            strings, e.g. ``"1"`` or ``"64"``).
        nbytes: Payload size.
        style: Operation style (``"chained"`` / ``"buffer-packing"``).
        priority: Queueing priority — lower runs first under the
            ``priority`` discipline; ties fall back to arrival order.
        deadline_ns: Maximum *queue wait* a request of this shape will
            tolerate at any one station before the engine sheds it
            at pop time (0 = no deadline).  A deadline on any template
            makes the run protected (see
            :meth:`repro.load.engine.LoadEngine.run`).
    """

    name: str
    x: str = "1"
    y: str = "1"
    nbytes: int = 8192
    style: str = "chained"
    priority: int = 0
    deadline_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ModelError(
                f"template {self.name!r}: nbytes must be positive"
            )
        if not 0.0 <= self.deadline_ns < math.inf:
            raise ModelError(
                f"template {self.name!r}: deadline must be finite and >= 0"
            )

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "x": self.x,
            "y": self.y,
            "nbytes": self.nbytes,
            "style": self.style,
            "priority": self.priority,
        }
        # Omitted at the default so PR-8 profile payloads (and their
        # report digests) are byte-identical when no deadline is set.
        if self.deadline_ns > 0.0:
            payload["deadline_ns"] = self.deadline_ns
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RequestTemplate":
        return cls(**payload)


def _chosen(
    templates: Sequence[RequestTemplate], draw: float
) -> RequestTemplate:
    """The template a pick draw selects (uniform over the tuple)."""
    return templates[min(len(templates) - 1, int(draw * len(templates)))]


def _pick_template(
    templates: Sequence[RequestTemplate], pick: Callable[..., float],
    *key: Any,
) -> RequestTemplate:
    """Deterministically pick a template (uniform over the tuple).

    ``pick`` is the generator's ``("template", name)`` stream; a
    single template is returned without a draw.
    """
    if len(templates) == 1:
        return templates[0]
    return _chosen(templates, pick(*key))


#: Burst indices an open loop draws per run of its gap and pick streams.
_BLOCK = 256


@dataclass(frozen=True)
class OpenLoopSpec:
    """An open-loop (arrival-rate driven) request generator.

    Attributes:
        name: Generator label (also the randomness stream key).
        rate_per_s: Mean *burst* arrival rate (Poisson).
        burst: Requests issued back-to-back per arrival; 1 is a plain
            Poisson source, larger values model bursty traffic.
        templates: Request shapes; each request picks one uniformly
            (deterministic in the seed).
    """

    name: str
    rate_per_s: float
    burst: int = 1
    templates: Tuple[RequestTemplate, ...] = field(
        default_factory=lambda: (RequestTemplate("default"),)
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_per_s < math.inf:
            raise ModelError(f"generator {self.name!r}: rate must be finite and > 0")
        if self.burst < 1:
            raise ModelError(f"generator {self.name!r}: burst must be >= 1")
        if not self.templates:
            raise ModelError(f"generator {self.name!r}: needs a template")

    def arrivals(self, seed: int, horizon_ns: float):
        """Yield ``(time_ns, template)`` arrivals up to ``horizon_ns``.

        The gap before burst *i* is a pure function of
        ``(seed, name, i)``, so the stream is identical however many
        workers pre-generate it.  Gaps and picks are drawn a block of
        ``_BLOCK`` bursts at a time with :func:`draw_runs`; each draw
        is the one the per-burst keys name, so only the last block's
        draws past the horizon are extra, and they are discarded.
        """
        mean_gap_ns = 1e9 / self.rate_per_s
        gaps = draw_runs(seed, "gap", self.name)
        picks = draw_runs(seed, "template", self.name)
        templates = self.templates
        time_ns = 0.0
        first = 0
        while True:
            times = []
            for draw in gaps(first, _BLOCK):
                time_ns += exponential(mean_gap_ns, draw)
                if time_ns >= horizon_ns:
                    break
                times.append(time_ns)
            if len(templates) == 1:
                chosen = repeat(templates * self.burst)
            else:
                # One run per flight: burst i's flight f is key (i, f).
                chosen = zip(*[
                    [_chosen(templates, draw)
                     for draw in picks(first, len(times), flight)]
                    for flight in range(self.burst)
                ])
            for at, burst in zip(times, chosen):
                for template in burst:
                    yield at, template
            if len(times) < _BLOCK:
                return
            first += _BLOCK

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "templates": [template.to_dict() for template in self.templates],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OpenLoopSpec":
        data = dict(payload)
        data["templates"] = tuple(
            RequestTemplate.from_dict(template)
            for template in data.get("templates", [])
        )
        return cls(**data)


@dataclass(frozen=True)
class ClosedLoopSpec:
    """A closed-loop (think-time driven) request generator.

    Attributes:
        name: Generator label (also the randomness stream key).
        clients: Number of simulated clients.
        think_ns: Mean think time between a completion and the client's
            next request (exponential; 0 means back-to-back reissue).
        templates: Request shapes, picked per issue like
            :class:`OpenLoopSpec`.
    """

    name: str
    clients: int
    think_ns: float = 0.0
    templates: Tuple[RequestTemplate, ...] = field(
        default_factory=lambda: (RequestTemplate("default"),)
    )

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ModelError(
                f"generator {self.name!r}: needs at least one client"
            )
        if not 0.0 <= self.think_ns < math.inf:
            raise ModelError(
                f"generator {self.name!r}: think time must be finite and >= 0"
            )
        if not self.templates:
            raise ModelError(f"generator {self.name!r}: needs a template")

    def streams(self, seed: int) -> Tuple[
        Callable[[int, int], float], Callable[[int, int], RequestTemplate]
    ]:
        """``(think, pick)`` for one run, bound to ``seed``.

        ``think(client, issue)`` is the gap before ``client``'s
        ``issue``-th request (0 without think time); ``pick(client,
        issue)`` is that request's template.
        """
        templates = self.templates
        pick_draw = draws(seed, "template", self.name)

        def pick(client: int, issue: int) -> RequestTemplate:
            return _pick_template(templates, pick_draw, client, issue)

        if self.think_ns <= 0.0:
            return (lambda client, issue: 0.0), pick
        think_ns = self.think_ns
        think_draw = draws(seed, "think", self.name)

        def think(client: int, issue: int) -> float:
            return exponential(think_ns, think_draw(client, issue))

        return think, pick

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "clients": self.clients,
            "think_ns": self.think_ns,
            "templates": [template.to_dict() for template in self.templates],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClosedLoopSpec":
        data = dict(payload)
        data["templates"] = tuple(
            RequestTemplate.from_dict(template)
            for template in data.get("templates", [])
        )
        return cls(**data)


@dataclass(frozen=True)
class LoadProfile:
    """A complete traffic description for one machine.

    Attributes:
        name: Profile label.
        machine: Machine to drive (``"t3d"`` / ``"paragon"``).
        nodes: Partition size requests are dispatched over.
        open_loops / closed_loops: The generators.
        dispatch: Dispatch policy name (see :mod:`repro.load.dispatch`).
        discipline: Station queue discipline, ``"fifo"`` or
            ``"priority"``.
        congestion: Network congestion the pricing transfers assume.
        overload: Optional overload-protection configuration
            (:class:`~repro.load.overload.OverloadSpec`).  ``None``
            runs under the no-op spec, so it and a spec whose
            :meth:`~OverloadSpec.is_noop` is true give the same report.
    """

    name: str
    machine: str = "t3d"
    nodes: int = 8
    open_loops: Tuple[OpenLoopSpec, ...] = ()
    closed_loops: Tuple[ClosedLoopSpec, ...] = ()
    dispatch: str = "round-robin"
    discipline: str = "fifo"
    congestion: float = 1.0
    overload: Optional[OverloadSpec] = None

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ModelError("a load profile needs at least 2 nodes")
        if not self.open_loops and not self.closed_loops:
            raise ModelError(
                f"profile {self.name!r} has no generators"
            )
        if self.discipline not in ("fifo", "priority"):
            raise ModelError(
                f"unknown queue discipline {self.discipline!r} "
                "(choose fifo or priority)"
            )
        names = [spec.name for spec in self.generators]
        if len(set(names)) != len(names):
            # Streams, home nodes and event identities are all keyed on
            # the generator *name* (so listing order cannot matter); a
            # duplicate name would silently merge two streams.
            raise ModelError(
                f"profile {self.name!r} has duplicate generator names"
            )

    @property
    def generators(self) -> Tuple[Any, ...]:
        """All generators, open loops first — the *generator index*
        order every randomness stream and event tiebreak is keyed on."""
        return (*self.open_loops, *self.closed_loops)

    def scaled(self, multiplier: float) -> "LoadProfile":
        """This profile with offered load scaled by ``multiplier``.

        Open loops scale their arrival rate; closed loops scale their
        client population (rounded up, never below one client).  The
        latency-curve sweep uses this to walk a profile through
        arrival-rate multipliers without hand-editing generators.
        """
        if not 0.0 < multiplier < math.inf:
            raise ModelError(
                f"load multiplier must be positive and finite, got {multiplier}"
            )
        if multiplier == 1.0:
            return self
        return replace(
            self,
            open_loops=tuple(
                replace(spec, rate_per_s=spec.rate_per_s * multiplier)
                for spec in self.open_loops
            ),
            closed_loops=tuple(
                replace(
                    spec,
                    clients=max(1, math.ceil(spec.clients * multiplier)),
                )
                for spec in self.closed_loops
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "machine": self.machine,
            "nodes": self.nodes,
            "open_loops": [spec.to_dict() for spec in self.open_loops],
            "closed_loops": [spec.to_dict() for spec in self.closed_loops],
            "dispatch": self.dispatch,
            "discipline": self.discipline,
            "congestion": self.congestion,
        }
        # Omitted when absent — or a no-op, which the engine treats
        # identically — so unprotected payloads stay byte-identical to
        # the pre-protection format.
        if self.overload is not None and not self.overload.is_noop():
            payload["overload"] = self.overload.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LoadProfile":
        data = dict(payload)
        data["open_loops"] = tuple(
            OpenLoopSpec.from_dict(spec)
            for spec in data.get("open_loops", [])
        )
        data["closed_loops"] = tuple(
            ClosedLoopSpec.from_dict(spec)
            for spec in data.get("closed_loops", [])
        )
        overload = data.get("overload")
        if isinstance(overload, dict):
            data["overload"] = OverloadSpec.from_dict(overload)
        return cls(**data)


def _steady() -> LoadProfile:
    """Plain Poisson open-loop traffic, mixed small/large requests."""
    return LoadProfile(
        name="steady",
        open_loops=(
            OpenLoopSpec(
                name="poisson",
                rate_per_s=4000.0,
                templates=(
                    RequestTemplate("small", nbytes=2048),
                    RequestTemplate("large", y="64", nbytes=65536),
                ),
            ),
        ),
    )


def _bursty() -> LoadProfile:
    """Bursts of 8 requests at a lower arrival rate, priority queues."""
    return LoadProfile(
        name="bursty",
        discipline="priority",
        dispatch="least-loaded",
        open_loops=(
            OpenLoopSpec(
                name="bursts",
                rate_per_s=600.0,
                burst=8,
                templates=(
                    RequestTemplate("urgent", nbytes=1024, priority=0),
                    RequestTemplate("bulk", y="64", nbytes=131072,
                                    priority=1),
                ),
            ),
        ),
    )


def _closed() -> LoadProfile:
    """Closed-loop clients with think time, affinity dispatch."""
    return LoadProfile(
        name="closed",
        dispatch="affinity",
        closed_loops=(
            ClosedLoopSpec(
                name="clients",
                clients=64,
                think_ns=2_000_000.0,
                templates=(
                    RequestTemplate("rpc", nbytes=4096),
                    RequestTemplate("scan", y="64", nbytes=32768),
                ),
            ),
        ),
    )


PROFILES = {
    "steady": _steady,
    "bursty": _bursty,
    "closed": _closed,
}


def profile_by_name(name: str) -> LoadProfile:
    """A built-in profile by name; raises :class:`ModelError` otherwise."""
    try:
        return PROFILES[name]()
    except KeyError:
        raise ModelError(
            f"unknown load profile {name!r}; choose from {sorted(PROFILES)}"
        )
