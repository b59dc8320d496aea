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

A station has one enqueue and one pop, used by every load run:

* :meth:`offer` adds a waiter.  ``capacity`` bounds the *waiting line*
  (the request in service does not count); on an unbounded station
  (``capacity=None``, the default) every offer is accepted, otherwise
  :meth:`offer` makes the deterministic reject-vs-accept decision,
  evicting the worst waiter — the tail of the highest non-empty lane —
  on a full ``priority`` station when the newcomer outranks it;
* :meth:`pop_live` sheds expired waiters — queue wait beyond the
  entry's deadline — then pops the next live one, with exact
  accounting (``shed``, ``shed_wait_ns``).  Entries without a deadline
  never expire, so with no deadlines it is a plain pop.

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

#: Lane entry: (enqueue_ns, request identity, payload, deadline_ns); a
#: deadline of 0.0 means none.  The lane's rank is its key.
_Entry = Tuple[Any, ...]


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
        self._busy_until: float = 0.0
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

    # -- queue ---------------------------------------------------------------

    def _account_depth(self, now_ns: float) -> None:
        self._depth_integral += self._depth * (now_ns - self._depth_clock)
        self._depth_clock = now_ns

    def offer(
        self,
        now_ns: float,
        priority: int,
        identity: Tuple[Any, ...],
        payload: Any,
        deadline_ns: float = 0.0,
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
        replays are bit-identical.
        """
        self._account_depth(now_ns)
        rank = priority if self.discipline == "priority" else 0
        entry = (now_ns, identity, payload, deadline_ns)
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

    def pop_live(
        self, now_ns: float
    ) -> Tuple[List[Any], Optional[Tuple[float, Any]]]:
        """Shed expired waiters, then pop: ``(shed payloads, next)``.

        Entries whose queue wait exceeds their deadline are shed in
        service order until a live entry (or an empty queue) is found;
        each shed bumps ``shed`` and adds its wait to ``shed_wait_ns``.
        ``next`` is the ``(enqueue time, request)`` pair of the first
        live waiter, ``None`` when every waiter expired.
        """
        shed: List[Any] = []
        if not self._depth:
            return shed, None
        self._account_depth(now_ns)
        for rank in self._ranks:
            lane = self._lanes[rank]
            while lane:
                enqueue_ns, __, payload, deadline_ns = lane.popleft()
                self._depth -= 1
                wait_ns = now_ns - enqueue_ns
                self.wait_ns += wait_ns
                if deadline_ns > 0.0 and wait_ns > deadline_ns:
                    self.shed += 1
                    self.shed_wait_ns += wait_ns
                    shed.append(payload)
                    continue
                return shed, (enqueue_ns, payload)
        return shed, None

    def depth(self) -> int:
        return self._depth

    # -- server --------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return self._idle

    def start(self, now_ns: float, service_ns: float) -> float:
        """Occupy the server; returns the completion time."""
        self._idle = False
        self._busy_until = now_ns + service_ns
        self.busy_ns += service_ns
        self.served += 1
        return self._busy_until

    def release(self) -> None:
        self._idle = True

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
        self._account_depth(duration_ns)
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
