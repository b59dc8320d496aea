"""Operational laws hold on every drained load run.

A load report is the bookkeeping of one event sequence, so the
operational laws of queueing must hold on it exactly, whatever the
traffic.  Hypothesis draws small profiles — open loops, Poisson and
bursty, offered below and above a NIC's capacity; one closed loop; fifo
and priority stations; bounded-queue admission with backoff retries,
bounded stations and deadlines — and on each drained run asserts:

* flow balance at admission, per generator:
  offered + retried == accepted + rejected + broken;
* flow balance after admission, per generator:
  accepted == completed + shed + evicted;
* the stations' own tallies agree: their sheds are the generators'
  sheds, their rejections (newcomers turned away or waiters evicted)
  the generators' evictions;
* Little's law at every station: the depth-time integral equals the
  summed queue waits of everyone who left the line, to 1e-9;
* every station ends empty;
* a second run replays the report bit for bit.

CI gates on this module: the job fails if these tests are skipped.
"""

import dataclasses
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.load import (
    ClosedLoopSpec,
    LoadEngine,
    LoadProfile,
    OpenLoopSpec,
    OverloadSpec,
    RequestTemplate,
    Station,
)
from repro.load import engine as engine_module

#: NIC service about 30 us: one NIC serves about 33 000 of these a second.
_SMALL = RequestTemplate("small", nbytes=2048)
#: NIC about 0.36 ms, deposit about 0.59 ms.
_LARGE = RequestTemplate("large", y="64", nbytes=32768, priority=1)

_HORIZON_NS = 1_000_000.0


@st.composite
def _profiles(draw):
    deadline_ns = draw(st.sampled_from([0.0, 0.0, 40_000.0, 150_000.0]))
    templates = tuple(
        dataclasses.replace(template, deadline_ns=deadline_ns)
        for template in draw(st.sampled_from([(_SMALL,), (_SMALL, _LARGE)]))
    )
    # 5 000 to 80 000 bursts a second: utilization from about 0.15 to
    # well past 1 on a NIC, before bursts of 3 triple it.
    open_loops = tuple(
        OpenLoopSpec(
            name=f"open{index}",
            rate_per_s=draw(st.sampled_from([5_000.0, 20_000.0, 80_000.0])),
            burst=draw(st.sampled_from([1, 1, 3])),
            templates=templates,
        )
        for index in range(draw(st.integers(min_value=0, max_value=2)))
    )
    closed_loops = ()
    if not open_loops or draw(st.booleans()):
        closed_loops = (ClosedLoopSpec(
            name="closed",
            clients=draw(st.integers(min_value=1, max_value=6)),
            think_ns=draw(st.sampled_from([0.0, 20_000.0])),
            templates=templates,
        ),)
    overload = None
    if draw(st.booleans()):
        overload = OverloadSpec(
            admission="bounded-queue",
            queue_limit=draw(st.integers(min_value=1, max_value=4)),
            station_capacity=draw(st.integers(min_value=0, max_value=3)),
            reject_retry="backoff",
            retry_backoff_ns=20_000.0,
            max_retries=2,
        )
    return LoadProfile(
        name="drawn",
        nodes=draw(st.integers(min_value=2, max_value=4)),
        open_loops=open_loops,
        closed_loops=closed_loops,
        dispatch=draw(
            st.sampled_from(["round-robin", "least-loaded", "affinity"])
        ),
        discipline=draw(st.sampled_from(["fifo", "priority"])),
        overload=overload,
    )


def _run(profile, seed):
    """The run's report and every station it built."""
    made = []

    class Recorded(Station):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(engine_module, "Station", Recorded):
        result = LoadEngine(profile, seed=seed).run(_HORIZON_NS)
    return result, made


def _check_laws(profile, seed):
    """Assert every law on one drained run; return the generator tallies."""
    result, stations = _run(profile, seed)
    assert len(stations) == 3 * profile.nodes
    for station in stations:
        assert station.depth() == 0 and station.backlog() == 0
        gap = abs(station._depth_integral - station.wait_ns)
        assert gap <= 1e-9 * max(1.0, station.wait_ns), station.name
    if result.overload is None:
        # Unprotected: everything offered is admitted and completes.
        assert result.completed == result.offered
        tallies = {}
    else:
        tallies = result.overload["generators"]
        for name, counts in tallies.items():
            assert (
                counts["offered"] + counts["retried"]
                == counts["accepted"] + counts["rejected"] + counts["broken"]
            ), name
            assert counts["accepted"] == (
                counts["completed"] + counts["shed"] + counts["evicted"]
            ), name
        assert sum(station.shed for station in stations) == sum(
            counts["shed"] for counts in tallies.values()
        )
        assert sum(station.rejected for station in stations) == sum(
            counts["evicted"] for counts in tallies.values()
        )
    assert result.latency["count"] == result.completed
    again, __ = _run(profile, seed)
    assert again.canonical_json() == result.canonical_json()
    return tallies


@given(profile=_profiles(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=150, deadline=None)
def test_operational_laws_hold_on_drained_runs(profile, seed):
    _check_laws(profile, seed)


def test_laws_hold_with_every_kind_of_drop():
    """One overloaded, protected run that rejects, retries, evicts and
    sheds, so no law above holds only because its terms are zero."""
    templates = tuple(
        dataclasses.replace(template, deadline_ns=40_000.0)
        for template in (_SMALL, _LARGE)
    )
    profile = LoadProfile(
        name="every-drop",
        nodes=2,
        open_loops=(OpenLoopSpec(
            name="open", rate_per_s=80_000.0, burst=3, templates=templates,
        ),),
        closed_loops=(ClosedLoopSpec(
            name="closed", clients=4, templates=templates,
        ),),
        discipline="priority",
        overload=OverloadSpec(
            admission="bounded-queue",
            queue_limit=2,
            station_capacity=2,
            reject_retry="backoff",
            retry_backoff_ns=20_000.0,
            max_retries=2,
        ),
    )
    tallies = _check_laws(profile, 7)
    for key in ("rejected", "retried", "shed", "evicted", "completed"):
        assert sum(counts[key] for counts in tallies.values()) > 0, key
