"""Per-rank FIFO lanes are an exact twin of a single heap.

:class:`~repro.load.Station` keeps its waiting line as one FIFO lane per
rank, appending on offer and evicting a lane's tail.  The oracle below
is the algorithm the lanes replaced: one heap of ``(rank, enqueue time,
identity, payload, deadline)``, a linear ``max`` to find the worst
waiter, ``remove`` + ``heapify`` to evict it.  The properties drive both
with the same random calls — nondecreasing times with ties whose
identities arrive out of order, both disciplines, capacities ``None``,
1, 2 and 5, some waiters with deadlines — and demand every return value
and every tally agree exactly, floats included.

CI gates on this module: the job fails if these tests are skipped.
"""

import heapq

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.load import Station


class HeapStation:
    """The heap-backed station: the service-order oracle."""

    def __init__(self, discipline, capacity):
        self.discipline, self.capacity = discipline, capacity
        self.queue = []
        self.idle = True
        self.busy_ns = self.shed_wait_ns = self.wait_ns = 0.0
        self.served = self.max_depth = self.rejected = self.shed = 0
        self.integral = self.clock = 0.0

    def account(self, now):
        self.integral += len(self.queue) * (now - self.clock)
        self.clock = now

    def offer(self, now, priority, identity, payload, deadline_ns):
        self.account(now)
        rank = priority if self.discipline == "priority" else 0
        entry = (rank, now, identity, payload, deadline_ns)
        if self.capacity is not None and len(self.queue) >= self.capacity:
            self.rejected += 1
            if self.discipline != "priority":
                return False, None
            worst = max(self.queue, key=lambda e: e[:3])
            if entry[:3] >= worst[:3]:
                return False, None
            self.queue.remove(worst)
            heapq.heapify(self.queue)
            self.wait_ns += now - worst[1]
            heapq.heappush(self.queue, entry)
            return True, worst[3]
        heapq.heappush(self.queue, entry)
        self.max_depth = max(self.max_depth, len(self.queue))
        return True, None

    def pop_live(self, now):
        shed = []
        if not self.queue:
            return shed, None
        self.account(now)
        while self.queue:
            __, enqueued, __, payload, deadline_ns = heapq.heappop(self.queue)
            wait = now - enqueued
            self.wait_ns += wait
            if deadline_ns > 0.0 and wait > deadline_ns:
                self.shed += 1
                self.shed_wait_ns += wait
                shed.append(payload)
                continue
            return shed, (enqueued, payload)
        return shed, None

    def start(self, now, service_ns):
        self.idle = False
        self.busy_ns += service_ns
        self.served += 1
        return now + service_ns

    def release(self):
        self.idle = True

    def backlog(self):
        return len(self.queue) + (0 if self.idle else 1)

    def summary(self, duration_ns, overload):
        self.account(duration_ns)
        span = duration_ns if duration_ns > 0.0 else 1.0
        payload = {
            "served": self.served,
            "busy_ns": self.busy_ns,
            "utilization": self.busy_ns / span,
            "mean_depth": self.integral / span,
            "max_depth": self.max_depth,
        }
        if overload:
            payload.update(
                rejected=self.rejected,
                shed=self.shed,
                shed_wait_ns=self.shed_wait_ns,
            )
        return payload


#: Time gaps: zeros make ties, the rest spread waits across deadlines.
_GAPS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.5, 7.0])

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            _GAPS,
            st.integers(min_value=0, max_value=3),          # priority
            st.sampled_from([0.0, 0.0, 2.0, 6.0]),          # deadline_ns
            st.integers(min_value=0, max_value=3),          # identity head
        ),
        st.tuples(st.just("pop"), _GAPS),
        st.tuples(st.just("start"), _GAPS, st.sampled_from([0.5, 3.0])),
        st.tuples(st.just("release"), _GAPS),
    ),
    min_size=1,
    max_size=60,
)


def _drive(ops, discipline, capacity):
    """Run ``ops`` on both stations, comparing after every call."""
    station = Station("s", discipline, capacity)
    oracle = HeapStation(discipline, capacity)
    now = 0.0
    for index, (kind, gap, *args) in enumerate(ops):
        now += gap
        if kind == "offer":
            priority, deadline_ns, head = args
            # The identity head is drawn, the tail keeps it unique: a
            # same-time offer may carry a smaller identity than the
            # one before it.
            call = (now, priority, (head, index), index, deadline_ns)
            assert station.offer(*call) == oracle.offer(*call)
        elif kind == "pop":
            assert station.pop_live(now) == oracle.pop_live(now)
        elif kind == "start":
            assert station.start(now, args[0]) == oracle.start(now, args[0])
        else:
            station.release()
            oracle.release()
        assert station.depth() == len(oracle.queue)
        assert station.backlog() == oracle.backlog()
        assert station.idle == oracle.idle
        assert station.max_depth == oracle.max_depth
        assert station.rejected == oracle.rejected
        assert station.shed == oracle.shed
        assert station.shed_wait_ns == oracle.shed_wait_ns
        assert station.wait_ns == oracle.wait_ns
        assert station._depth_integral == oracle.integral
    end = now + 3.0
    for overload in (False, True):
        assert station.summary(end, overload) == oracle.summary(end, overload)
    assert station._depth_integral == oracle.integral


@given(
    ops=_OPS,
    discipline=st.sampled_from(["fifo", "priority"]),
    capacity=st.sampled_from([None, 1, 2, 5]),
)
@settings(max_examples=400, deadline=None)
def test_lanes_match_the_heap(ops, discipline, capacity):
    _drive(ops, discipline, capacity)


@pytest.mark.parametrize("discipline", ["fifo", "priority"])
def test_same_time_smaller_identity_is_served_first(discipline):
    """Three waiters at one instant, the middle one's identity smallest:
    appending in arrival order would serve them out of key order."""
    ops = [
        ("offer", 0.0, 1, 0.0, 3),
        ("offer", 0.0, 1, 0.0, 0),
        ("offer", 0.0, 1, 0.0, 2),
        ("pop", 1.0),
        ("pop", 0.0),
        ("pop", 0.0),
    ]
    _drive(ops, discipline, None)


def test_full_station_evicts_the_worst_of_tied_waiters():
    """The worst waiter of the highest rank is the one with the largest
    identity among same-time waiters, whatever their arrival order."""
    ops = [
        ("offer", 0.0, 2, 0.0, 3),
        ("offer", 0.0, 2, 0.0, 1),
        ("offer", 0.0, 0, 0.0, 0),
        ("offer", 1.0, 0, 0.0, 0),
        ("pop", 1.0),
        ("pop", 0.0),
    ]
    _drive(ops, "priority", 2)
