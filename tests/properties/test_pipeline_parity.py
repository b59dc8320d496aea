"""The regime scan is an exact twin of the chunk loop.

:class:`~repro.runtime.stages.StagePipeline` prices a long untraced
pipeline whose resources do not interleave by scanning each block of
same-resource stages one regime run at a time (self-bound runs are one
running sum over the row-major durations, upstream-bound runs one
running sum per row).  The oracle is ``_reference_run`` in
``tests/runtime/test_stages.py``, the chunk loop as first written.
These properties demand that ``ns``, every ``stage_busy_ns`` and the
``record=True`` chunk rows equal it bit for bit on pipelines of 1–6
stages with consecutive and interleaved resources, rates that are
``math.nextafter`` neighbours (so the two sides of a block's start tie
or nearly tie), per-chunk overheads, startups and tail chunks, and 1 to
3 000 chunks, so that both sides of ``_SCAN_CHUNKS`` run.  Some draws
shrink ``_SCAN_RUNS`` so that blocks hand the pipeline back to the
chunk loop.

The largest number of regime runs one block took is printed when the
module finishes (visible under ``pytest -s``).

CI gates on this module: the job fails if these tests are skipped.
"""

import math
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime import stages
from repro.runtime.stages import Stage, StagePipeline
from tests.runtime.test_stages import _reference_run

_RESOURCES = ("cpu", "net", "dma", "deposit")
_LARGEST_RUNS = [0]


@pytest.fixture(scope="module", autouse=True)
def _report_runs():
    yield
    print(f"\nlargest regime runs per block: {_LARGEST_RUNS[0]}")


def _neighbour(rate, steps):
    """``rate`` moved ``steps`` doubles up (or down when negative)."""
    toward = math.inf if steps > 0 else 0.0
    for __ in range(abs(steps)):
        rate = math.nextafter(rate, toward)
    return rate


@st.composite
def pipelines(draw):
    """1–6 stages whose rates sit within 50 ulps of a shared base, or
    anywhere, on consecutive or interleaved resources."""
    n_stages = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # Consecutive: a nondecreasing resource index per stage.
        cuts = sorted(draw(st.lists(
            st.integers(1, n_stages), max_size=len(_RESOURCES) - 1
        )))
        resources = [
            _RESOURCES[sum(cut <= position for cut in cuts)]
            for position in range(n_stages)
        ]
    else:
        resources = draw(st.lists(
            st.sampled_from(_RESOURCES), min_size=n_stages, max_size=n_stages
        ))
    base = draw(st.floats(5.0, 500.0))
    overhead = draw(st.sampled_from([0.0, 1500.0]))
    result = []
    for position, resource in enumerate(resources):
        if draw(st.booleans()):
            rate = _neighbour(base, draw(st.integers(-50, 50)))
        else:
            rate = draw(st.floats(5.0, 500.0))
        result.append(Stage(
            draw(st.sampled_from(["copy", "send", "wire", "recv"])),
            rate,
            resource,
            chunk_overhead_ns=draw(st.sampled_from(
                [0.0, overhead, draw(st.floats(0.0, 5000.0))]
            )),
            startup_ns=draw(st.sampled_from(
                [0.0, 0.0, draw(st.floats(0.0, 1e6))]
            )),
        ))
    return result


@st.composite
def sizes(draw):
    """``(nbytes, chunk_bytes)`` of 1 to 3 000 chunks, often at the
    scan threshold, with or without a tail chunk."""
    chunk = draw(st.sampled_from([1, 7, 512, 4096, 8192]))
    threshold = stages._SCAN_CHUNKS
    n_chunks = draw(st.one_of(
        st.integers(1, 3000),
        st.sampled_from([1, 2, threshold - 1, threshold, threshold + 1]),
    ))
    tail = draw(st.sampled_from([0, 1, chunk - 1])) if chunk > 1 else 0
    if tail:
        return (n_chunks - 1) * chunk + tail, chunk
    return n_chunks * chunk, chunk


def _counted_block(seen):
    real = stages._block

    def block(durations, upstream):
        result = real(durations, upstream)
        seen.append(None if result is None else result[1])
        return result

    return block


@settings(max_examples=150, deadline=None)
@given(
    pipeline_stages=pipelines(),
    size=sizes(),
    cap=st.sampled_from([1, 2, stages._SCAN_RUNS]),
)
def test_scan_matches_reference_loop(pipeline_stages, size, cap):
    nbytes, chunk = size
    ns, busy, chunks = _reference_run(pipeline_stages, nbytes, chunk)
    pipeline = StagePipeline(pipeline_stages)
    seen = []
    with mock.patch.object(stages, "_block", _counted_block(seen)), \
            mock.patch.object(stages, "_SCAN_RUNS", cap):
        fast = pipeline.run(nbytes, chunk_bytes=chunk)
        recorded = pipeline.run(nbytes, chunk_bytes=chunk, record=True)
    for result in (fast, recorded):
        assert result.ns == ns
        assert type(result.ns) is float
        assert result.stage_busy_ns == busy
        assert all(type(value) is float for value in busy.values())
    assert recorded.chunks == chunks
    assert fast.chunks == ()

    resources = [stage.resource for stage in pipeline_stages]
    consecutive = all(
        resource not in resources[:position]
        or resources[position - 1] == resource
        for position, resource in enumerate(resources)
    )
    n_chunks = -(-nbytes // chunk)
    # Only the untraced call of a long pipeline on consecutive
    # resources scans; a block past the cap ends the scan there.
    assert bool(seen) == (consecutive and n_chunks >= stages._SCAN_CHUNKS)
    runs = [count for count in seen if count is not None]
    assert all(count <= cap for count in runs)
    if cap == stages._SCAN_RUNS and runs:
        _LARGEST_RUNS[0] = max(_LARGEST_RUNS[0], *runs)


@settings(max_examples=40, deadline=None)
@given(
    base=st.floats(5.0, 500.0),
    steps=st.lists(st.integers(-3, 3), min_size=2, max_size=6),
    n_chunks=st.integers(stages._SCAN_CHUNKS, 3000),
    overhead=st.sampled_from([0.0, 1500.0]),
)
def test_near_tied_blocks_match_reference_loop(base, steps, n_chunks,
                                               overhead):
    """Every stage on its own resource, rates a few ulps apart: each
    block's two sides stay within rounding of each other."""
    pipeline_stages = [
        Stage(f"s{position}", _neighbour(base, step), f"r{position}",
              chunk_overhead_ns=overhead)
        for position, step in enumerate(steps)
    ]
    ns, busy, __ = _reference_run(pipeline_stages, n_chunks * 4096, 4096)
    seen = []
    with mock.patch.object(stages, "_block", _counted_block(seen)):
        result = StagePipeline(pipeline_stages).run(n_chunks * 4096, 4096)
    assert result.ns == ns
    assert result.stage_busy_ns == busy
    assert seen
    runs = [count for count in seen if count is not None]
    if runs:
        _LARGEST_RUNS[0] = max(_LARGEST_RUNS[0], *runs)


def test_block_past_the_run_cap_hands_back_to_the_loop():
    """Two blocks whose per-chunk totals tie in the reals (1.3 + 0.3 +
    1.3 against 2.74 + 0.16) swap sides as the clocks cross binades:
    the last block takes 9 runs over 30 000 chunks, one more than the
    cap, so the chunk loop prices the pipeline."""
    pipeline_stages = [
        Stage("s", 1e300, resource, chunk_overhead_ns=overhead)
        for overhead, resource in [
            (0.3, "r0"), (1.3, "r1"), (0.3, "r1"), (1.3, "r1"),
            (2.74, "r2"), (0.16, "r2"),
        ]
    ]
    ns, busy, __ = _reference_run(pipeline_stages, 30_000, 1)
    seen = []
    with mock.patch.object(stages, "_block", _counted_block(seen)):
        result = StagePipeline(pipeline_stages).run(30_000, 1)
    assert seen == [1, 2, None]
    assert result.ns == ns
    assert result.stage_busy_ns == busy
