"""Single-server queueing stations at each node's message hardware.

Each simulated node exposes three stations matching the runtime's
resource decomposition (:attr:`MeasuredTransfer.resource_busy_ns`):

* ``nic`` — the sender-side processor + DMA engines;
* ``deposit`` — the receiver's deposit engine;
* ``coproc`` — the receiver's processor / communication co-processor.

A :class:`Station` serves one request at a time.  Waiting requests
queue under a discipline — ``fifo`` (arrival order) or ``priority``
(lower :attr:`RequestTemplate.priority` first, arrival order within a
priority) — with fully deterministic ordering: ties break on the
request's content-derived identity, never on insertion order.

The waiting line is one FIFO lane per rank — the priority under
``priority``, a single rank 0 under ``fifo`` — each kept sorted by
``(enqueue time, identity)``.  Service order is ``(rank, enqueue time,
identity)``: the head of the lowest non-empty lane.  Enqueue times
never decrease in an event-ordered run, so an offer appends; only a
same-time newcomer with a smaller identity is insorted.  Every offer,
pop and eviction is therefore O(1) in the depth of the line.

The engine moves a station's server through two transitions:

* :meth:`arrive` starts a request at once on an idle server and
  offers it to the line (:meth:`offer`) on a busy one;
* :meth:`finish` frees the server, sheds the expired waiters — queue
  wait beyond the entry's deadline; entries without one never expire —
  and starts the next live waiter, whose service time travels in its
  lane entry, or leaves the server idle when none is left.

:meth:`offer` is the line's one enqueue.  ``capacity`` bounds the
*waiting line*, not the server (``None``, the default, accepts every
offer); a full line rejects the newcomer or, on a ``priority`` station
the newcomer outranks, evicts the worst waiter — the tail of the
highest non-empty lane.

Accounting is exact, not sampled: busy time integrates utilization and
the queue-depth integral yields the time-averaged depth; reject and
shed counts are exact tallies of every bounded-path decision.
``wait_ns`` totals the queue wait of every waiter that left the line —
served, shed or evicted — so on a run that starts and ends empty it
equals the depth integral (Little's law).
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["Station"]

#: Lane entry: (enqueue_ns, request identity, payload, deadline_ns,
#: service_ns); a deadline of 0.0 means none.  Its lane's key is its rank.
_Entry = Tuple[Any, ...]

#: :meth:`Station.finish` on an empty line: nothing shed, nothing next.
_IDLE: Tuple[Any, ...] = ((), None, 0.0, 0.0)


class Station:
    """One single-server queueing station.

    Args:
        name: Reporting label, e.g. ``"node3/nic"``.
        discipline: ``"fifo"`` or ``"priority"``.
        capacity: Waiting-line bound consulted by :meth:`offer`
            (``None`` = unbounded).
    """

    def __init__(
        self,
        name: str,
        discipline: str = "fifo",
        capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.discipline = discipline
        self.capacity = capacity
        #: rank -> its waiters in ``(enqueue time, identity)`` order.
        self._lanes: Dict[int, Deque[_Entry]] = {}
        #: Every rank with a lane, ascending.
        self._ranks: List[int] = []
        self._depth = 0
        self._idle = True
        # Exact accounting.
        self.busy_ns = 0.0
        self.served = 0
        self.max_depth = 0
        self.rejected = 0
        self.shed = 0
        self.shed_wait_ns = 0.0
        self.wait_ns = 0.0
        self._depth_integral = 0.0
        self._depth_clock = 0.0

    # -- server transitions --------------------------------------------------

    def arrive(
        self,
        now_ns: float,
        service_ns: float,
        priority: int,
        identity: Tuple[Any, ...],
        payload: Any,
        deadline_ns: float = 0.0,
    ) -> Tuple[Optional[float], Optional[Any]]:
        """A request reaches the station: ``(completion time, dropped)``.

        An idle server starts it: ``(now + service, None)``.  A busy one
        offers it to the line: ``(None, dropped)``, ``dropped`` being
        the evicted waiter, the newcomer if rejected, else ``None``.
        """
        if self._idle:
            self._idle = False
            self.busy_ns += service_ns
            self.served += 1
            return now_ns + service_ns, None
        accepted, evicted = self.offer(
            now_ns, priority, identity, payload, deadline_ns, service_ns
        )
        return None, evicted if accepted else payload

    def finish(self, now_ns: float) -> Tuple[Any, ...]:
        """Free the server, shed expired waiters, start the next live one.

        Returns ``(shed payloads, next payload, its completion time,
        its queue wait)``.  Waiters that outwaited their deadline are
        shed in service order, each bumping ``shed`` and adding its
        wait to ``shed_wait_ns``; with no live waiter left, ``next``
        is ``None`` and the server idle.
        """
        if not self._depth:
            self._idle = True
            return _IDLE
        self._depth_integral += self._depth * (now_ns - self._depth_clock)
        self._depth_clock = now_ns
        shed: List[Any] = []
        for rank in self._ranks:
            lane = self._lanes[rank]
            while lane:
                enqueue_ns, __, payload, deadline_ns, service_ns = lane.popleft()
                self._depth -= 1
                wait_ns = now_ns - enqueue_ns
                self.wait_ns += wait_ns
                if deadline_ns > 0.0 and wait_ns > deadline_ns:
                    self.shed += 1
                    self.shed_wait_ns += wait_ns
                    shed.append(payload)
                    continue
                self._idle = False
                self.busy_ns += service_ns
                self.served += 1
                return shed, payload, now_ns + service_ns, wait_ns
        self._idle = True
        return shed, None, 0.0, 0.0

    # -- queue ---------------------------------------------------------------

    def offer(
        self,
        now_ns: float,
        priority: int,
        identity: Tuple[Any, ...],
        payload: Any,
        deadline_ns: float = 0.0,
        service_ns: float = 0.0,
    ) -> Tuple[bool, Optional[Any]]:
        """Add a waiter: ``(accepted, evicted payload)``.

        ``identity`` is the request's content-derived key, so two
        stations fed the same requests in different orders still serve
        them identically.  At capacity, a ``fifo`` station rejects the
        newcomer outright.  A ``priority`` station compares the
        newcomer against the worst waiter — highest ``(rank, enqueue
        time, identity)``, the exact inverse of service order, i.e. the
        tail of the highest non-empty lane — and evicts that waiter
        when the newcomer strictly outranks it (sheds lowest-priority
        first), rejecting the newcomer otherwise.  Both outcomes bump
        ``rejected``; the decision depends only on queue content, so
        replays are bit-identical.  ``service_ns`` is what
        :meth:`finish` charges when it starts this waiter.
        """
        self._depth_integral += self._depth * (now_ns - self._depth_clock)
        self._depth_clock = now_ns
        rank = priority if self.discipline == "priority" else 0
        entry = (now_ns, identity, payload, deadline_ns, service_ns)
        evicted = None
        if self.capacity is not None and self._depth >= self.capacity:
            if self.discipline != "priority" or not self._depth:
                # Nobody to evict (``fifo``, or a zero-capacity line).
                self.rejected += 1
                return False, None
            for worst_rank in reversed(self._ranks):
                worst_lane = self._lanes[worst_rank]
                if worst_lane:
                    break
            worst = worst_lane[-1]
            self.rejected += 1
            if (rank, now_ns, identity) >= (worst_rank, worst[0], worst[1]):
                return False, None
            worst_lane.pop()
            self.wait_ns += now_ns - worst[0]
            self._depth -= 1
            evicted = worst[2]
        lane = self._lanes.get(rank)
        if lane is None:
            lane = self._lanes[rank] = deque()
            bisect.insort(self._ranks, rank)
        if lane and entry < lane[-1]:
            # A same-time newcomer with a smaller identity (or an
            # out-of-order offer): keep the lane sorted.
            bisect.insort(lane, entry)
        else:
            lane.append(entry)
        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        return True, evicted

    def depth(self) -> int:
        return self._depth

    def backlog(self) -> int:
        """Requests at the station: queued plus any one in service."""
        return self._depth + (0 if self._idle else 1)

    # -- reporting -----------------------------------------------------------

    def summary(
        self, duration_ns: float, overload: bool = False
    ) -> Dict[str, Any]:
        """Exact utilization / depth statistics over ``duration_ns``.

        ``overload=True`` (a protected run) adds the drop tallies —
        ``rejected`` / ``shed`` / ``shed_wait_ns``; an unprotected run
        cannot drop anything, so its report leaves them out.
        """
        self._depth_integral += self._depth * (duration_ns - self._depth_clock)
        self._depth_clock = duration_ns
        span = duration_ns if duration_ns > 0.0 else 1.0
        payload: Dict[str, Any] = {
            "served": self.served,
            "busy_ns": self.busy_ns,
            "utilization": self.busy_ns / span,
            "mean_depth": self._depth_integral / span,
            "max_depth": self.max_depth,
        }
        if overload:
            payload["rejected"] = self.rejected
            payload["shed"] = self.shed
            payload["shed_wait_ns"] = self.shed_wait_ns
        return payload
