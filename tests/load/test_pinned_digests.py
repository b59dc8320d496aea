"""Pinned library-level load runs: the event order, byte for byte.

``test_pinned_reports.py`` pins CLI stdout; these pins drive
:class:`~repro.load.LoadEngine` directly on two profiles the CLI does
not reach:

* the speed benchmark's protection-off run (``LOAD_PROTECTION_OFF_DIGEST``
  in ``scripts/bench_speed.py``) — 25 006 open-loop arrivals piling up
  behind one NIC, so every waiting line and the event queue run deep;
* a mixed run — one open loop beside one closed loop on ``priority``
  stations with a small capacity, a template deadline and backoff
  retries — where presorted arrivals interleave with the events the
  run creates, and full stations evict, shed and re-admit.

A change to the event order or to a station's service order moves a
digest.
"""

import pytest

from repro.load import (
    ClosedLoopSpec,
    LoadEngine,
    LoadProfile,
    OpenLoopSpec,
    OverloadSpec,
    RequestTemplate,
)

#: The open-loop profile of the speed benchmark (``bench_speed.py``).
BENCH = LoadProfile(
    name="bench",
    nodes=16,
    open_loops=(
        OpenLoopSpec(
            name="bench",
            rate_per_s=50_000.0,
            templates=(
                RequestTemplate("small", nbytes=4096),
                RequestTemplate("large", y="64", nbytes=65536),
            ),
        ),
    ),
)

#: Its seed-7 digest over :data:`BENCH_HORIZON_NS`, protection off —
#: ``LOAD_PROTECTION_OFF_DIGEST`` in ``scripts/bench_speed.py``.
BENCH_DIGEST = (
    "2c3d33266f3778e6643a8f849dfb36f4a3afca45d1274b67512cc0ccc75fa3d0"
)
BENCH_HORIZON_NS = 5e8

#: Open and closed traffic on bounded priority stations: evictions,
#: deadline sheds and backoff retries all happen within 4 ms.
MIXED = LoadProfile(
    name="mixed",
    nodes=4,
    discipline="priority",
    open_loops=(
        OpenLoopSpec(
            name="open",
            rate_per_s=30_000.0,
            burst=2,
            templates=(
                RequestTemplate(
                    "hot", nbytes=4096, priority=0, deadline_ns=80_000.0
                ),
                RequestTemplate("bulk", y="64", nbytes=16384, priority=2),
            ),
        ),
    ),
    closed_loops=(
        ClosedLoopSpec(
            name="closed",
            clients=6,
            think_ns=5_000.0,
            templates=(RequestTemplate("mid", nbytes=8192, priority=1),),
        ),
    ),
    overload=OverloadSpec(
        station_capacity=3,
        reject_retry="backoff",
        retry_backoff_ns=20_000.0,
    ),
)

#: Its seed-7 digest over :data:`MIXED_HORIZON_NS`.
MIXED_DIGEST = (
    "eb27e92539ec6033797fb6e9dfd0768a3191fe793e191dc026a1740b07e09535"
)
MIXED_HORIZON_NS = 4e6


class TestBenchRun:
    def test_digest_is_pinned_across_replays_and_workers(self):
        first = LoadEngine(BENCH, seed=7).run(BENCH_HORIZON_NS)
        assert first.stats["events"] == 74_715
        assert first.digest() == BENCH_DIGEST
        replay = LoadEngine(BENCH, seed=7).run(BENCH_HORIZON_NS, workers=1)
        assert replay.digest() == BENCH_DIGEST
        sharded = LoadEngine(BENCH, seed=7).run(BENCH_HORIZON_NS, workers=2)
        assert sharded.digest() == BENCH_DIGEST


class TestMixedRun:
    def test_digest_is_pinned(self):
        assert LoadEngine(MIXED, seed=7).run(MIXED_HORIZON_NS).digest() == (
            MIXED_DIGEST
        )

    @pytest.mark.parametrize("key", ["evicted", "shed", "retried"])
    def test_pin_reaches_every_bounded_path(self, key):
        result = LoadEngine(MIXED, seed=7).run(MIXED_HORIZON_NS)
        generators = result.overload["generators"]
        assert generators["closed"]["accepted"] > 0
        assert result.overload["totals"][key] > 0
