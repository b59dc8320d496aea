"""The discrete-event traffic engine.

:class:`LoadEngine` drives a :class:`~repro.load.workload.LoadProfile`
— thousands to millions of simulated requests — through an existing
machine model.  Per-request service times are not re-modelled: each
distinct request shape is priced once through
:meth:`repro.runtime.engine.CommRuntime.transfer` and its measured
``resource_busy_ns`` decomposition becomes the station service times:

* sender CPU + DMA busy  -> the source node's ``nic`` station;
* receiver deposit busy  -> the destination's ``deposit`` station;
* receiver CPU + coproc  -> the destination's ``coproc`` station;
* whatever end-to-end time remains -> pure network transit (a delay
  between the sender-side and receiver-side stations, not a queueing
  resource — the wire is pipelined).

Determinism is structural, not incidental:

* all randomness is drawn from keyed streams of
  :func:`repro.contract.draws`, pure functions of ``(seed, stream
  key)`` — no RNG state anywhere;
* every event's key is content-derived —
  ``(time, kind, request identity, leg)`` where identity is the
  ``(generator, sequence)`` pair — so push order (and therefore
  generator interleaving or pre-generation sharding) cannot change
  the service order;
* events come from two sources: the open-loop arrivals, pre-generated
  and sorted by that key once, and a heap of the events the run itself
  creates (completions, transit landings, closed-loop issues,
  retries).  Each step takes the smaller head by the same key; keys
  are unique, so the merged sequence is exactly the order one heap of
  every event would pop;
* ``workers`` only shards open-loop *pre-generation*; the per-
  generator streams are independent of the sharding, and the merged
  arrival list is canonically sorted.

The result: ``run()`` is bit-identical for a given ``(profile, seed,
horizon)`` across worker counts — the property suite holds this as an
invariant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..contract import (
    GENERATOR_KEYS,
    LOAD_OVERLOAD,
    LOAD_REPORT,
    canonical_json,
    digest,
    draws,
    uniform,
)
from ..core.errors import ModelError, TransferAbortedError
from ..core.operations import OperationStyle
from ..core.patterns import AccessPattern
from ..faults.spec import FaultPlan
from ..machines.registry import MACHINE_FACTORIES
from ..runtime.engine import CommRuntime, _emit
from ..trace.tracer import current_tracer
from .breaker import BreakerBoard
from .dispatch import policy_by_name
from .latency import LatencyStore
from .overload import OverloadSpec, admission_by_name
from .queues import Station
from .workload import LoadProfile, RequestTemplate

__all__ = ["LoadEngine", "LoadResult"]

_MACHINES = MACHINE_FACTORIES

#: Event kinds, in same-timestamp processing order: completions free
#: servers before new arrivals claim them; transit landings last.
_DONE, _ARRIVE, _ENQUEUE = 0, 1, 2

#: Station legs a request walks, in order.
_NIC, _DEPOSIT, _COPROC = "nic", "deposit", "coproc"

#: A bound route: ``((station key, service ns), ...)``, transit delay,
#: wire index.
_Route = Tuple[Tuple[Tuple[Tuple[int, str], float], ...], float, int]


class _Request:
    """One in-flight request (identity + route)."""

    __slots__ = (
        "identity", "generator", "client", "issue", "template",
        "arrival_ns", "legs", "transit_ns", "wire_at", "leg", "attempt",
    )

    def __init__(
        self,
        identity: Tuple[Any, ...],
        generator: str,
        client: int,
        issue: int,
        template: RequestTemplate,
        arrival_ns: float,
        attempt: int,
    ) -> None:
        self.identity = identity
        self.generator = generator
        self.client = client
        self.issue = issue
        self.template = template
        self.arrival_ns = arrival_ns
        self.legs: Tuple[Tuple[Tuple[int, str], float], ...] = ()
        self.transit_ns = 0.0
        self.wire_at = 0
        self.leg = 0
        self.attempt = attempt


@dataclass
class LoadResult:
    """Outcome of one traffic run.

    ``to_dict()`` is the canonical (replay-comparable) payload;
    ``stats`` carries nondeterministic run facts — wall seconds,
    events/sec — and is deliberately *excluded* from it, mirroring the
    sweep engine's canonical/stats split.
    """

    profile: LoadProfile
    seed: int
    horizon_ns: float
    end_ns: float
    offered: int
    completed: int
    latency: Dict[str, Any]
    stations: Dict[str, Dict[str, Any]]
    faults: Optional[FaultPlan] = None
    overload: Optional[Dict[str, Any]] = None
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        throughput = (
            self.completed / self.end_ns * 1e9 if self.end_ns > 0.0 else 0.0
        )
        payload = {
            "schema": LOAD_REPORT,
            "machine": self.profile.machine,
            "profile": self.profile.to_dict(),
            "seed": self.seed,
            "duration_ns": self.horizon_ns,
            "end_ns": self.end_ns,
            "offered": self.offered,
            "completed": self.completed,
            "latency_ns": self.latency,
            "throughput": {
                "completed": self.completed,
                "requests_per_s": throughput,
            },
            "stations": self.stations,
            "faults": self.faults.to_dict() if self.faults else None,
        }
        # Only protected runs carry the overload section: an
        # unprotected run admits everything and drops nothing.
        if self.overload is not None:
            payload["overload"] = self.overload
        return payload

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        return digest(self.to_dict())


class LoadEngine:
    """Drive one load profile through the model.

    Args:
        profile: The traffic description.
        seed: Replay seed; every random stream hangs off it.
        faults: Optional fault plan — service times are then priced
            per (src, dst) pair through the degraded runtime, so link
            derates and node slowdowns show up in the tail.
        rates: Pricing source for the runtime (``simulated`` is the
            cheap deterministic default).
    """

    def __init__(
        self,
        profile: LoadProfile,
        seed: int = 7,
        faults: Optional[FaultPlan] = None,
        rates: str = "simulated",
    ) -> None:
        if seed < 0:
            raise ModelError("load seed must be non-negative")
        try:
            machine = _MACHINES[profile.machine]()
        except KeyError:
            raise ModelError(
                f"unknown machine {profile.machine!r}; "
                f"choose from {sorted(_MACHINES)}"
            )
        self.profile = profile
        self.seed = seed
        self.faults = (
            faults if faults is not None and not faults.is_empty() else None
        )
        self.runtime = CommRuntime(machine, rates=rates, faults=self.faults)
        self._patterns: Dict[str, AccessPattern] = {}
        self._prices: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        #: Shape key -> the ``TransferAbortedError`` arguments of its abort.
        self._aborts: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        self._routes: Dict[Tuple[Any, ...], _Route] = {}
        self._homes: Dict[str, int] = {}

    def _home(self, generator: str) -> int:
        """The source node a generator's requests depart from.

        A pure hash of ``(seed, name)`` — like every other stream key —
        so a profile's generator *listing order* cannot change where
        traffic originates (the interleaving-invariance property).
        """
        node = self._homes.get(generator)
        if node is None:
            node = int(
                uniform(self.seed, "home", generator) * self.profile.nodes
            ) % self.profile.nodes
            self._homes[generator] = node
        return node

    # -- pricing -------------------------------------------------------------

    def _pattern(self, text: str) -> AccessPattern:
        pattern = self._patterns.get(text)
        if pattern is None:
            pattern = self._patterns[text] = AccessPattern.parse(text)
        return pattern

    def _price(
        self, template: RequestTemplate, src: int, dst: int
    ) -> Tuple[Tuple[Tuple[str, float], ...], float, int]:
        """``(station legs, transit delay, wire index)`` for one shape.

        Healthy runs price each shape once (every (src, dst) pair sees
        the same machine); under a fault plan the pair matters (link
        derates, per-node slowdowns), so it joins the memo key.  The
        wire index is the leg before which the transit delay is paid —
        the first receiver-side station (or one past the last leg when
        the route is sender-only).

        An abort is as pure a function of the key as a price, so it is
        memoized too: a repeat raises a fresh
        :class:`~repro.core.errors.TransferAbortedError` and, when
        traced, replays the aborted transfer's ledger rows, exactly as
        re-running the transfer would.
        """
        key: Tuple[Any, ...] = (
            template.x, template.y, template.nbytes, template.style,
        )
        if self.faults is not None:
            key = key + (src, dst)
        cached = self._prices.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        aborted = self._aborts.get(key)
        if aborted is not None:
            message, abort_src, abort_dst, ledger = aborted
            tracer = current_tracer()
            if tracer is not None:
                _emit(tracer, ledger)
            raise TransferAbortedError(message, abort_src, abort_dst, ledger)
        try:
            sample = self.runtime.transfer(
                self._pattern(template.x),
                self._pattern(template.y),
                template.nbytes,
                style=OperationStyle(template.style),
                congestion=self.profile.congestion,
                src=src if self.faults is not None else None,
                dst=dst if self.faults is not None else None,
            )
        except TransferAbortedError as exc:
            self._aborts[key] = (str(exc), exc.src, exc.dst, exc.ledger)
            raise
        busy = dict(sample.resource_busy_ns)
        nic_ns = busy.get("sender_cpu", 0.0) + busy.get("sender_dma", 0.0)
        deposit_ns = busy.get("receiver_deposit", 0.0)
        coproc_ns = (
            busy.get("receiver_cpu", 0.0) + busy.get("receiver_coproc", 0.0)
        )
        transit_ns = max(sample.ns - nic_ns - deposit_ns - coproc_ns, 0.0)
        legs = tuple(
            (kind, service_ns)
            for kind, service_ns in (
                (_NIC, nic_ns), (_DEPOSIT, deposit_ns), (_COPROC, coproc_ns),
            )
            if service_ns > 0.0
        )
        wire_at = len(legs)
        for index, (kind, __) in enumerate(legs):
            if kind != _NIC:
                wire_at = index
                break
        priced = (legs, transit_ns, wire_at)
        self._prices[key] = priced
        return priced

    # -- arrival pre-generation ----------------------------------------------

    def _open_arrivals(self, horizon_ns: float, workers: int) -> List[Any]:
        """Every open-loop arrival event, canonically ordered.

        ``workers`` shards the generators; each generator's stream is a
        pure function of ``(seed, name)``, so the shard assignment (and
        thread scheduling, when threaded) cannot change the result.
        """
        specs = list(enumerate(self.profile.open_loops))

        def generate(shard: List[Any]) -> List[Any]:
            events = []
            for __, spec in shard:
                for seq, (time_ns, template) in enumerate(
                    spec.arrivals(self.seed, horizon_ns)
                ):
                    events.append((
                        time_ns, _ARRIVE, (spec.name, seq), 0,
                        (spec.name, -1, seq, template, 0),
                    ))
            return events

        if workers <= 1 or len(specs) <= 1:
            shards = [generate(specs)]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                shards = list(pool.map(
                    generate, [specs[i::workers] for i in range(workers)]
                ))
        events = [event for shard in shards for event in shard]
        # Identities are unique, so a plain tuple sort never compares
        # past the identity to the payload.
        events.sort()
        return events

    # -- the event loop ------------------------------------------------------

    def run(self, horizon_ns: float, workers: int = 1) -> LoadResult:
        """Simulate ``horizon_ns`` of traffic (draining in-flight work).

        New arrivals stop at the horizon; queued and in-service
        requests complete, so the latency distribution is never
        censored by the cut-off.

        Every run goes through one event loop: admission control
        before pricing, stations bounded by the spec's capacity,
        deadline shedding at pop time, and per-link circuit breakers.
        No spec at all behaves as the no-op
        :class:`~repro.load.overload.OverloadSpec` — ``none``
        admission, unbounded stations, no breakers — under which every
        arrival is admitted and nothing is dropped.  The run counts as
        *protected* when the spec is not a no-op or a template sets a
        deadline; only then does the report carry the ``overload``
        section and the station drop tallies, and only then is a
        :class:`~repro.core.errors.TransferAbortedError` counted as a
        ``broken`` request rather than raised.
        """
        if horizon_ns <= 0.0:
            raise ModelError("load duration must be positive")
        profile = self.profile
        policy = policy_by_name(profile.dispatch, profile.nodes, self.seed)
        heappush, heappop = heapq.heappush, heapq.heappop

        ospec = profile.overload or OverloadSpec()
        protected = not ospec.is_noop() or any(
            template.deadline_ns > 0.0
            for spec in profile.generators
            for template in spec.templates
        )
        admission = admission_by_name(ospec, self.seed)
        board: Optional[BreakerBoard] = None
        if ospec.breakers_enabled():
            board = BreakerBoard(
                ospec.breaker_threshold,
                ospec.breaker_cooldown_ns,
                ospec.breaker_probes,
            )
        derate_trip = ospec.breaker_derate_trip
        retry_mode = ospec.reject_retry == "backoff" and ospec.max_retries > 0
        retry_budget = ospec.retry_budget
        if self.faults is not None:
            # The stricter of the load spec's and the fault plan's
            # budgets wins: neither layer can retry-storm the other.
            retry_budget = min(retry_budget, self.faults.retry.retry_budget)
        capacity = ospec.station_capacity or None

        stations: Dict[Tuple[int, str], Station] = {}
        for node in range(profile.nodes):
            for kind in (_NIC, _DEPOSIT, _COPROC):
                stations[(node, kind)] = Station(
                    f"node{node}/{kind}", profile.discipline, capacity
                )
        node_backlog = [0] * profile.nodes
        nics = [stations[(node, _NIC)] for node in range(profile.nodes)]
        admit, observe = admission.admit, admission.observe

        # Arrivals are consumed from the end of the reversed sorted
        # list; the heap holds only the events the run creates.
        arrivals: List[Any] = self._open_arrivals(horizon_ns, workers)
        arrivals.reverse()
        heap: List[Any] = []

        closed_streams = {
            spec.name: spec.streams(self.seed)
            for spec in profile.closed_loops
        }
        for spec in profile.closed_loops:
            __, pick = closed_streams[spec.name]
            for client in range(spec.clients):
                heappush(heap, (
                    0.0, _ARRIVE, (spec.name, client, 0), 0,
                    (spec.name, client, 0, pick(client, 0), 0),
                ))
        jitter = draws(self.seed, "reject-backoff")

        tracer = current_tracer()
        latencies = LatencyStore()
        events = 0
        end_ns = 0.0
        gen_counts: Dict[str, Dict[str, int]] = {
            spec.name: dict.fromkeys(GENERATOR_KEYS, 0)
            for spec in profile.generators
        }
        inflight = 0
        retries_pending = 0

        def enter_leg(now_ns: float, request: _Request) -> None:
            """Request reaches leg ``request.leg`` (transit already paid)."""
            if request.leg >= len(request.legs):
                complete(now_ns, request)
                return
            (node, kind), service_ns = request.legs[request.leg]
            station = stations[(node, kind)]
            if station.idle:
                node_backlog[node] += 1
                done_ns = station.start(now_ns, service_ns)
                heappush(heap, (
                    done_ns, _DONE, request.identity, request.leg, request,
                ))
                return
            accepted, evicted = station.offer(
                now_ns, request.template.priority, request.identity,
                request, request.template.deadline_ns,
            )
            if evicted is not None:
                node_backlog[node] -= 1
                drop_midroute(now_ns, evicted)
            if accepted:
                node_backlog[node] += 1
                if tracer is not None:
                    tracer.observe(
                        f"load.depth/{station.name}", float(station.depth())
                    )
            else:
                drop_midroute(now_ns, request)

        def advance(now_ns: float, request: _Request) -> None:
            """Move to leg ``request.leg``, paying transit at the wire."""
            if request.leg == request.wire_at and request.transit_ns > 0.0:
                heappush(heap, (
                    now_ns + request.transit_ns, _ENQUEUE,
                    request.identity, request.leg, request,
                ))
            else:
                enter_leg(now_ns, request)

        def reissue(
            now_ns: float, generator: str, client: int, issue: int
        ) -> None:
            """A closed-loop client thinks, then issues its next request.

            Called when a request leaves the system for good — completed
            or terminally dropped — so a rejected or shed request cannot
            silently kill its client and starve the loop.
            """
            streams = closed_streams.get(generator)
            if streams is None:
                return
            think, pick = streams
            nxt = issue + 1
            next_ns = now_ns + think(client, nxt)
            if next_ns < horizon_ns:
                heappush(heap, (
                    next_ns, _ARRIVE, (generator, client, nxt), 0,
                    (generator, client, nxt, pick(client, nxt), 0),
                ))

        def complete(now_ns: float, request: _Request) -> None:
            nonlocal inflight
            inflight -= 1
            gen_counts[request.generator]["completed"] += 1
            latency_ns = now_ns - request.arrival_ns
            latencies.record(latency_ns)
            observe(now_ns, latency_ns)
            reissue(now_ns, request.generator, request.client, request.issue)

        def retry_or_drop(
            now_ns: float,
            base_identity: Tuple[Any, ...],
            generator: str,
            client: int,
            issue: int,
            template: RequestTemplate,
            attempt: int,
        ) -> None:
            """Schedule a seeded backoff re-arrival, or drop terminally.

            A retry re-enters as a fresh arrival (identity extended
            with the attempt number, so event keys stay unique) after an
            exponential backoff with pure-hash jitter.  The retry
            budget bounds retries as a fraction of in-flight work —
            with the fault plan's budget composed in above — so a storm
            of rejections cannot amplify the overload it reacts to.
            """
            nonlocal retries_pending
            if (
                retry_mode
                and attempt < ospec.max_retries
                and (
                    retry_budget >= 1.0
                    or retries_pending + 1
                    <= retry_budget * (inflight + retries_pending + 1)
                )
            ):
                gen_counts[generator]["retried"] += 1
                retries_pending += 1
                delay_ns = (
                    ospec.retry_backoff_ns
                    * (2.0 ** attempt)
                    * (0.5 + jitter(*base_identity, attempt))
                )
                heappush(heap, (
                    now_ns + delay_ns, _ARRIVE,
                    base_identity + (attempt + 1,), 0,
                    (generator, client, issue, template, attempt + 1),
                ))
            else:
                reissue(now_ns, generator, client, issue)

        def drop_midroute(now_ns: float, request: _Request) -> None:
            """A queued request lost its slot (bounded-station reject).

            Counted as ``evicted`` — distinct from arrival-level
            ``rejected`` — so the conservation laws stay exact:
            offered + retried == accepted + rejected + broken, and
            accepted == completed + shed + evicted after the drain.
            """
            nonlocal inflight
            inflight -= 1
            gen_counts[request.generator]["evicted"] += 1
            retry_or_drop(
                now_ns, request.identity, request.generator,
                request.client, request.issue, request.template,
                request.attempt,
            )

        def shed_request(now_ns: float, request: _Request) -> None:
            """A queued request outwaited its deadline: terminal drop."""
            nonlocal inflight
            inflight -= 1
            gen_counts[request.generator]["shed"] += 1
            reissue(now_ns, request.generator, request.client, request.issue)

        try:
            while heap or arrivals:
                if arrivals and (not heap or arrivals[-1] < heap[0]):
                    time_ns, kind, identity, leg, payload = arrivals.pop()
                else:
                    time_ns, kind, identity, leg, payload = heappop(heap)
                events += 1
                end_ns = time_ns

                if kind == _ARRIVE:
                    generator, client, issue, template, attempt = payload
                    counts = gen_counts[generator]
                    if attempt:
                        retries_pending -= 1
                        identity = identity[:-1]
                    else:
                        counts["offered"] += 1
                    src = self._home(generator)
                    verdict = None
                    if not admit(time_ns, nics[src].backlog(), identity):
                        verdict = "rejected"
                    else:
                        dst = policy.pick(
                            src, generator, client, template.name, node_backlog,
                        )
                        breaker = (
                            board.get(src, dst) if board is not None else None
                        )
                        if breaker is not None and not breaker.allow(time_ns):
                            verdict = "rejected"
                        elif (
                            breaker is not None
                            and derate_trip > 0.0
                            and self.faults is not None
                            and self.faults.link_derate(src, dst) <= derate_trip
                        ):
                            breaker.record_failure(time_ns)
                            verdict = "broken"
                        else:
                            try:
                                route = self._fill_route(template, src, dst)
                            except TransferAbortedError:
                                if not protected:
                                    raise
                                verdict = "broken"
                                if breaker is not None:
                                    breaker.record_failure(time_ns)
                            else:
                                if breaker is not None:
                                    breaker.record_success(time_ns)
                    if verdict is None:
                        counts["accepted"] += 1
                        inflight += 1
                        request = _Request(
                            identity, generator, client, issue, template,
                            time_ns, attempt,
                        )
                        request.legs, request.transit_ns, request.wire_at = (
                            route
                        )
                        advance(time_ns, request)
                    else:
                        counts[verdict] += 1
                        retry_or_drop(
                            time_ns, identity, generator, client, issue,
                            template, attempt,
                        )
                    continue

                if kind == _ENQUEUE:
                    enter_leg(time_ns, payload)
                    continue

                # _DONE: free the station; if anyone waits, shed the
                # expired waiters and serve the next live one; advance.
                request = payload
                (node, station_kind), __ = request.legs[request.leg]
                station = stations[(node, station_kind)]
                station.release()
                node_backlog[node] -= 1
                if station.depth():
                    expired, waiter = station.pop_live(time_ns)
                    for dead in expired:
                        node_backlog[node] -= 1
                        shed_request(time_ns, dead)
                    if waiter is not None:
                        enqueued_ns, next_request = waiter
                        wait_service = next_request.legs[next_request.leg][1]
                        done_ns = station.start(time_ns, wait_service)
                        heappush(heap, (
                            done_ns, _DONE, next_request.identity,
                            next_request.leg, next_request,
                        ))
                        if tracer is not None:
                            tracer.observe(
                                "load.queue_wait_ns", time_ns - enqueued_ns
                            )
                request.leg += 1
                advance(time_ns, request)

        finally:
            # The tallies the report keeps, handed over once per run.
            if tracer is not None:
                for key in GENERATOR_KEYS:
                    total = sum(counts[key] for counts in gen_counts.values())
                    if total and key not in ("offered", "accepted"):
                        tracer.count(f"load.{key}", total)
                for latency_ns in latencies.samples():
                    tracer.observe("load.latency_ns", latency_ns)
        totals = {
            key: sum(counts[key] for counts in gen_counts.values())
            for key in GENERATOR_KEYS
        }
        overload_summary: Optional[Dict[str, Any]] = None
        if protected:
            overload_summary = {
                "schema": LOAD_OVERLOAD,
                "spec": ospec.to_dict(),
                "admission": admission.describe(),
                "generators": gen_counts,
                "totals": {
                    key: totals[key] for key in GENERATOR_KEYS
                    if key not in ("offered", "completed")
                },
                "goodput": {
                    "offered": totals["offered"],
                    "accepted": totals["accepted"],
                    "completed": totals["completed"],
                    "goodput_per_s": (
                        totals["completed"] / end_ns * 1e9
                        if end_ns > 0.0 else 0.0
                    ),
                },
                "breakers": board.summary() if board is not None else {},
            }

        return LoadResult(
            profile=profile,
            seed=self.seed,
            horizon_ns=horizon_ns,
            end_ns=end_ns,
            offered=totals["offered"],
            completed=totals["completed"],
            latency=latencies.summary(),
            stations={
                station.name: station.summary(end_ns, overload=protected)
                for station in stations.values()
            },
            faults=self.faults,
            overload=overload_summary,
            stats={"events": events},
        )

    def _fill_route(
        self, template: RequestTemplate, src: int, dst: int
    ) -> _Route:
        """The priced route with station keys bound to (src, dst).

        Bound once per (shape, src, dst) and kept for the engine's
        life: the key is :meth:`_price`'s shape key plus the pair.
        """
        key = (
            template.x, template.y, template.nbytes, template.style, src, dst,
        )
        route = self._routes.get(key)
        if route is None:
            station_legs, transit_ns, wire_at = self._price(template, src, dst)
            legs = tuple(
                ((src if kind == _NIC else dst, kind), service_ns)
                for kind, service_ns in station_legs
            )
            route = self._routes[key] = (legs, transit_ns, wire_at)
        return route
