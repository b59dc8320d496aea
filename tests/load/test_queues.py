"""Station semantics: disciplines, accounting, exact integrals."""

from repro.load import Station


def _pop(station, now_ns):
    """``pop_live`` on a line without deadlines: nothing is ever shed."""
    shed, waiter = station.pop_live(now_ns)
    assert shed == []
    return waiter


class TestDisciplines:
    def test_fifo_serves_in_arrival_order(self):
        station = Station("s", "fifo")
        station.offer(0.0, priority=5, identity=(0, 0), payload="first")
        station.offer(1.0, priority=0, identity=(0, 1), payload="second")
        assert _pop(station, 2.0)[1] == "first"
        assert _pop(station, 2.0)[1] == "second"

    def test_priority_orders_by_priority_then_arrival(self):
        station = Station("s", "priority")
        station.offer(0.0, priority=1, identity=(0, 0), payload="bulk")
        station.offer(1.0, priority=0, identity=(0, 1), payload="urgent")
        station.offer(2.0, priority=0, identity=(0, 2), payload="urgent2")
        assert _pop(station, 3.0)[1] == "urgent"
        assert _pop(station, 3.0)[1] == "urgent2"
        assert _pop(station, 3.0)[1] == "bulk"

    def test_equal_keys_break_on_identity(self):
        station = Station("s", "priority")
        station.offer(0.0, priority=0, identity=(1, 9), payload="b")
        station.offer(0.0, priority=0, identity=(0, 3), payload="a")
        assert _pop(station, 1.0)[1] == "a"

    def test_pop_empty_returns_none(self):
        assert _pop(Station("s"), 0.0) is None


class TestAccounting:
    def test_busy_and_served(self):
        station = Station("s")
        assert station.idle
        done = station.start(10.0, 5.0)
        assert done == 15.0
        assert not station.idle
        station.release()
        station.start(20.0, 5.0)
        station.release()
        summary = station.summary(100.0)
        assert summary["served"] == 2
        assert summary["busy_ns"] == 10.0
        assert summary["utilization"] == 0.1

    def test_depth_integral_is_exact(self):
        station = Station("s")
        # One waiter for [0, 10), two for [10, 20), none after.
        station.offer(0.0, 0, (0, 0), "a")
        station.offer(10.0, 0, (0, 1), "b")
        _pop(station, 20.0)
        _pop(station, 20.0)
        summary = station.summary(40.0)
        # Integral: 1*10 + 2*10 = 30 over 40 ns.
        assert summary["mean_depth"] == 30.0 / 40.0
        assert summary["max_depth"] == 2

    def test_backlog_counts_queue_plus_server(self):
        station = Station("s")
        assert station.backlog() == 0
        station.start(0.0, 1.0)
        station.offer(0.0, 0, (0, 0), "a")
        assert station.backlog() == 2


class TestBoundedOffer:
    def test_unbounded_offer_always_accepts(self):
        station = Station("s")
        for index in range(100):
            accepted, evicted = station.offer(0.0, 0, (0, index), index)
            assert accepted and evicted is None
        assert station.rejected == 0

    def test_fifo_rejects_newcomer_at_capacity(self):
        station = Station("s", "fifo", capacity=2)
        assert station.offer(0.0, 0, (0, 0), "a")[0]
        assert station.offer(1.0, 0, (0, 1), "b")[0]
        accepted, evicted = station.offer(2.0, 0, (0, 2), "c")
        assert not accepted and evicted is None
        assert station.rejected == 1
        # The line is untouched: still a then b.
        assert _pop(station, 3.0)[1] == "a"
        assert _pop(station, 3.0)[1] == "b"

    def test_priority_evicts_the_worst_waiter(self):
        station = Station("s", "priority", capacity=2)
        station.offer(0.0, 5, (0, 0), "bulk")
        station.offer(1.0, 0, (0, 1), "urgent")
        accepted, evicted = station.offer(2.0, 0, (0, 2), "urgent2")
        assert accepted
        assert evicted == "bulk"             # lowest priority shed first
        assert station.rejected == 1
        assert _pop(station, 3.0)[1] == "urgent"
        assert _pop(station, 3.0)[1] == "urgent2"

    def test_priority_rejects_newcomer_no_better_than_worst(self):
        station = Station("s", "priority", capacity=1)
        station.offer(0.0, 1, (0, 0), "earlier")
        accepted, evicted = station.offer(1.0, 1, (0, 1), "later")
        assert not accepted and evicted is None
        assert _pop(station, 2.0)[1] == "earlier"

    def test_zero_capacity_rejects_every_waiter(self):
        for discipline in ("fifo", "priority"):
            station = Station("s", discipline, capacity=0)
            assert station.offer(0.0, 0, (0, 0), "a") == (False, None)
            assert station.rejected == 1 and station.depth() == 0

    def test_capacity_bounds_the_waiting_line_not_the_server(self):
        station = Station("s", "fifo", capacity=1)
        station.start(0.0, 10.0)             # server busy
        assert station.offer(0.0, 0, (0, 0), "a")[0]
        assert not station.offer(1.0, 0, (0, 1), "b")[0]


class TestDeadlineShedding:
    def test_pop_live_sheds_expired_then_serves(self):
        station = Station("s")
        station.offer(0.0, 0, (0, 0), "stale", deadline_ns=5.0)
        station.offer(0.0, 0, (0, 1), "fresh", deadline_ns=100.0)
        shed, waiter = station.pop_live(10.0)
        assert shed == ["stale"]
        assert waiter[1] == "fresh"
        assert station.shed == 1
        assert station.shed_wait_ns == 10.0

    def test_pop_live_without_deadline_never_sheds(self):
        station = Station("s")
        station.offer(0.0, 0, (0, 0), "a")   # deadline 0.0 = none
        shed, waiter = station.pop_live(1e12)
        assert shed == [] and waiter[1] == "a"

    def test_pop_live_all_expired_returns_none(self):
        station = Station("s")
        station.offer(0.0, 0, (0, 0), "a", deadline_ns=1.0)
        station.offer(0.0, 0, (0, 1), "b", deadline_ns=2.0)
        shed, waiter = station.pop_live(10.0)
        assert shed == ["a", "b"] and waiter is None
        assert station.shed == 2
        assert station.shed_wait_ns == 20.0

    def test_pop_live_empty_queue(self):
        assert Station("s").pop_live(5.0) == ([], None)

    def test_exact_deadline_is_still_live(self):
        station = Station("s")
        station.offer(0.0, 0, (0, 0), "a", deadline_ns=10.0)
        shed, waiter = station.pop_live(10.0)   # wait == deadline: live
        assert shed == [] and waiter[1] == "a"


class TestBoundedAccounting:
    def test_depth_integral_spans_offer_evict_and_shed(self):
        station = Station("s", "priority", capacity=2)
        # Two waiters for [0, 10): depth integral 2*10.
        station.offer(0.0, 5, (0, 0), "bulk", deadline_ns=12.0)
        station.offer(0.0, 3, (0, 1), "mid", deadline_ns=100.0)
        # Eviction at t=10 replaces bulk; depth stays 2 for [10, 20).
        accepted, evicted = station.offer(10.0, 0, (0, 2), "hot")
        assert accepted and evicted == "bulk"
        # At t=20 nothing expires; pop hot, then mid.
        shed, waiter = station.pop_live(20.0)
        assert shed == [] and waiter[1] == "hot"
        shed, waiter = station.pop_live(20.0)
        assert shed == [] and waiter[1] == "mid"
        summary = station.summary(40.0, overload=True)
        # Integral: 2*10 + 2*10 + 1*0 = 40 over 40 ns.
        assert summary["mean_depth"] == 40.0 / 40.0
        assert summary["rejected"] == 1
        assert summary["shed"] == 0

    def test_summary_hides_bounded_tallies_unless_overload(self):
        station = Station("s", "fifo", capacity=1)
        station.offer(0.0, 0, (0, 0), "a")
        station.offer(1.0, 0, (0, 1), "b")
        plain = station.summary(10.0)
        assert "rejected" not in plain and "shed" not in plain
        full = Station("s", "fifo", capacity=1)
        full.offer(0.0, 0, (0, 0), "a")
        full.offer(1.0, 0, (0, 1), "b")
        assert full.summary(10.0, overload=True)["rejected"] == 1
