"""Per-rank FIFO lanes and the server transitions are an exact twin of
a single heap driven step by step.

:class:`~repro.load.Station` keeps its waiting line as one FIFO lane per
rank, appending on offer and evicting a lane's tail, and moves its
server through two transitions: ``arrive`` (start at once when idle,
otherwise offer) and ``finish`` (free the server, shed expired waiters,
start the next live one).  The oracle below is the algorithm the lanes
replaced — one heap of ``(rank, enqueue time, identity, payload,
deadline, service)``, a linear ``max`` to find the worst waiter,
``remove`` + ``heapify`` to evict it — with the transitions composed
from separate ``start``, ``release`` and ``pop_live`` steps.  The
properties drive both with the same random calls — nondecreasing times
with ties whose identities arrive out of order, both disciplines,
capacities ``None``, 1, 2 and 5, some waiters with deadlines, finishes
whose every waiter has expired — and demand every return value and
every tally agree exactly, floats included.

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

    def offer(self, now, priority, identity, payload, deadline_ns,
              service_ns=0.0):
        self.account(now)
        rank = priority if self.discipline == "priority" else 0
        entry = (rank, now, identity, payload, deadline_ns, service_ns)
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
            entry = heapq.heappop(self.queue)
            __, enqueued, __, payload, deadline_ns, service_ns = entry
            wait = now - enqueued
            self.wait_ns += wait
            if deadline_ns > 0.0 and wait > deadline_ns:
                self.shed += 1
                self.shed_wait_ns += wait
                shed.append(payload)
                continue
            return shed, (enqueued, payload, service_ns)
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

    # The two transitions, composed from the steps above.

    def arrive(self, now, service_ns, priority, identity, payload,
               deadline_ns):
        if self.idle:
            return self.start(now, service_ns), None
        accepted, evicted = self.offer(
            now, priority, identity, payload, deadline_ns, service_ns
        )
        return None, evicted if accepted else payload

    def finish(self, now):
        self.release()
        shed, waiter = self.pop_live(now)
        if waiter is None:
            return shed, None, 0.0, 0.0
        enqueued, payload, service_ns = waiter
        return shed, payload, self.start(now, service_ns), now - enqueued

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

#: A waiter's arguments: priority, deadline_ns, identity head, service.
_WAITER = (
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.0, 0.0, 2.0, 6.0]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.5, 3.0]),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), _GAPS, *_WAITER),
        st.tuples(st.just("arrive"), _GAPS, *_WAITER),
        st.tuples(st.just("finish"), _GAPS),
        st.tuples(st.just("offer"), _GAPS, *_WAITER),
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
        if kind == "finish":
            shed, *rest = station.finish(now)
            assert [list(shed), *rest] == list(oracle.finish(now))
        else:
            priority, deadline_ns, head, service_ns = args
            # The identity head is drawn, the tail keeps it unique: a
            # same-time waiter may carry a smaller identity than the
            # one before it.
            call = (priority, (head, index), index, deadline_ns)
            if kind == "arrive":
                assert station.arrive(now, service_ns, *call) == (
                    oracle.arrive(now, service_ns, *call)
                )
            else:
                assert station.offer(now, *call, service_ns) == (
                    oracle.offer(now, *call, service_ns)
                )
        assert station.depth() == len(oracle.queue)
        assert station.backlog() == oracle.backlog()
        assert station.busy_ns == oracle.busy_ns
        assert station.served == oracle.served
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
        ("offer", 0.0, 1, 0.0, 3, 0.5),
        ("offer", 0.0, 1, 0.0, 0, 0.5),
        ("offer", 0.0, 1, 0.0, 2, 0.5),
        ("finish", 1.0),
        ("finish", 0.0),
        ("finish", 0.0),
    ]
    _drive(ops, discipline, None)


def test_full_station_evicts_the_worst_of_tied_waiters():
    """The worst waiter of the highest rank is the one with the largest
    identity among same-time waiters, whatever their arrival order."""
    ops = [
        ("offer", 0.0, 2, 0.0, 3, 0.5),
        ("offer", 0.0, 2, 0.0, 1, 0.5),
        ("offer", 0.0, 0, 0.0, 0, 0.5),
        ("offer", 1.0, 0, 0.0, 0, 0.5),
        ("finish", 1.0),
        ("finish", 0.0),
    ]
    _drive(ops, "priority", 2)


@pytest.mark.parametrize("discipline", ["fifo", "priority"])
@pytest.mark.parametrize("capacity", [None, 1, 2, 5])
def test_finish_with_every_waiter_expired_idles_the_server(
    discipline, capacity
):
    """A busy server whose whole line outwaited its deadlines sheds them
    all and goes idle, so the next arrival starts at once."""
    ops = [
        ("arrive", 0.0, 0, 0.0, 0, 3.0),
        ("arrive", 0.0, 1, 2.0, 1, 0.5),
        ("arrive", 0.5, 0, 2.0, 2, 0.5),
        ("finish", 7.0),
        ("arrive", 0.0, 0, 0.0, 3, 3.0),
        ("finish", 3.0),
    ]
    _drive(ops, discipline, capacity)


@pytest.mark.parametrize("discipline", ["fifo", "priority"])
def test_finish_starts_the_waiter_with_its_own_service_time(discipline):
    """The next waiter's service time travels in its lane entry."""
    ops = [
        ("arrive", 0.0, 0, 0.0, 0, 0.5),
        ("arrive", 0.0, 0, 6.0, 1, 3.0),
        ("arrive", 0.0, 0, 0.0, 2, 0.5),
        ("finish", 0.5),
        ("finish", 3.0),
        ("finish", 0.5),
    ]
    _drive(ops, discipline, None)
