"""The write buffer's merge walk equals the per-line-run loop it replaced.

``_WriteBuffer._merged`` builds a block's buffer entries with array code
and walks only the runs that fill the buffer.  ``_reference_merged``
below is the loop it replaced, one iteration per line run; the property
holds the two equal on every output and on the entries carried to the
next block.

CI gates on this module with the fastpath parity suites: it fails if
these tests are skipped.
"""

from typing import List

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.memsim.fastpath import _WriteBuffer

LINE_BYTES = 128  # 16 words: room for the longest drawn run
WORD_BYTES = 8


def _reference_merged(buffer, keys, addresses, starts, continues):
    """The per-line-run merge loop, kept as the walk's oracle."""
    addr_list = addresses.tolist()
    bounds = starts.tolist()
    bounds.append(addresses.shape[0])
    e_addr: List[int] = buffer.addr.tolist()
    e_words: List[int] = buffer.words.tolist()
    in_batch = len(e_addr)
    drain_at: List[int] = []
    drain_ecount: List[int] = []
    first = 0
    if continues:
        # The block opens inside the newest pending entry's line.
        e_words[-1] += bounds[1] - bounds[0]
        first = 1
    for k in range(first, len(bounds) - 1):
        start, end = bounds[k], bounds[k + 1]
        e_addr.append(addr_list[start])
        e_words.append(1)
        in_batch += 1
        pos = start + 1
        if in_batch == buffer.depth:
            drain_at.append(start)
            drain_ecount.append(len(e_addr))
            in_batch = 0
            if pos < end:
                e_addr.append(addr_list[pos])
                e_words.append(1)
                in_batch = 1
                pos += 1
        if in_batch and pos < end:
            e_words[-1] += end - pos
    n_entries = len(e_addr)
    entry_drain = np.searchsorted(
        np.asarray(drain_ecount, dtype=np.int64),
        np.arange(n_entries, dtype=np.int64),
        side="right",
    )
    kept = drain_ecount[-1] if drain_ecount else 0
    buffer.addr = np.asarray(e_addr[kept:], dtype=np.int64)
    buffer.words = np.asarray(e_words[kept:], dtype=np.int64)
    return (
        np.asarray(e_addr, dtype=np.int64),
        np.asarray(e_words, dtype=np.int64),
        entry_drain,
        keys[np.asarray(drain_at, dtype=np.int64)],
    )


run_lengths = st.one_of(
    st.lists(st.just(1), min_size=1, max_size=60),
    st.lists(st.integers(2, 9), min_size=1, max_size=60),
    st.lists(st.integers(1, 9), min_size=1, max_size=60),
)


@st.composite
def merge_cases(draw):
    depth = draw(st.integers(2, 16))
    pending = draw(st.integers(0, depth - 1))
    continues = pending > 0 and draw(st.booleans())
    runs = draw(run_lengths)
    # Pending entries sit on lines 0 .. pending-1; the block's runs walk
    # lines upward from the newest pending line when it continues it.
    line = pending - 1 if continues else pending
    addresses: List[int] = []
    for length in runs:
        offset = draw(st.integers(0, LINE_BYTES // WORD_BYTES - length))
        base = line * LINE_BYTES + offset * WORD_BYTES
        addresses.extend(base + WORD_BYTES * w for w in range(length))
        line += draw(st.integers(1, 3))
    pending_words = draw(
        st.lists(st.integers(1, 9), min_size=pending, max_size=pending)
    )
    return depth, pending_words, continues, runs, addresses


def _buffer(depth, pending_words):
    buffer = _WriteBuffer(depth, True, LINE_BYTES)
    buffer.addr = np.arange(len(pending_words), dtype=np.int64) * LINE_BYTES
    buffer.words = np.asarray(pending_words, dtype=np.int64)
    return buffer


@settings(max_examples=400, deadline=None)
@given(case=merge_cases())
def test_merge_walk_equals_the_per_run_loop(case):
    depth, pending_words, continues, runs, addresses = case
    addresses = np.asarray(addresses, dtype=np.int64)
    keys = np.arange(addresses.shape[0], dtype=np.int64) * 64 + 32
    starts = np.cumsum([0] + runs[:-1]).astype(np.int64)
    walk, loop = _buffer(depth, pending_words), _buffer(depth, pending_words)
    got = walk._merged(keys, addresses, starts, continues)
    expected = _reference_merged(loop, keys, addresses, starts, continues)
    names = ("entry_addr", "entry_words", "entry_drain", "drain_keys")
    for name, g, e in zip(names, got, expected):
        assert np.array_equal(g, e), f"{name}: {g.tolist()} != {e.tolist()}"
    assert np.array_equal(walk.addr, loop.addr)
    assert np.array_equal(walk.words, loop.words)
