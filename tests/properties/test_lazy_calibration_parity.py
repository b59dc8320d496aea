"""A table that measures on read answers as one measured up front.

``measure_table`` returns a table that measures each entry the first
time a read needs it.  These properties draw random sequences of reads
(exact lookups, one- and two-sided stride interpolation, ``get``,
``has``, ``len``, ``to_dict``, iteration, merges and ``set``) on every
registered machine and hold every value and raised error equal to what
a table holding the whole grid from the start gives.  Each sequence
runs on a table with the cache off, on the in-memory cache's table
after an earlier table read part of the grid, and on a table read back
from the partial disk file such an earlier table wrote.

CI gates on this module: the job fails if these tests are skipped.
"""

import os
import tempfile
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.caching import CACHE_DIR_ENV, CACHE_ENV, default_cache
from repro.core.calibration import ThroughputTable
from repro.core.patterns import CONTIGUOUS, FIXED, INDEXED, strided
from repro.core.transfers import TransferKind
from repro.machines.measure import (
    _KIND_BY_LETTER,
    _table_key,
    calibration_entries,
    measure_entries,
    measure_table,
)
from repro.machines.registry import MACHINE_FACTORIES

#: Short streams: the properties compare tables, not rates.
NWORDS = 512

CACHE_MODES = ("off", "memory", "disk")

_EAGER = {}


def _grid(machine):
    return [
        (_KIND_BY_LETTER[letter], _table_key(read), _table_key(write))
        for letter, read, write in calibration_entries(machine)
    ]


def _eager(machine_key):
    """A table holding every grid entry, measured in grid order."""
    if machine_key not in _EAGER:
        machine = MACHINE_FACTORIES[machine_key]()
        entries = calibration_entries(machine)
        rates = measure_entries(
            machine, machine.node_memory(nwords=NWORDS), entries
        )
        table = ThroughputTable(
            f"{machine.name} (simulated, congestion "
            f"{machine.network.default_congestion})"
        )
        for key, rate in zip(_grid(machine), rates):
            table.set(*key, rate)
        _EAGER[machine_key] = (machine, table)
    machine, table = _EAGER[machine_key]
    copy = ThroughputTable(table.name)
    copy.merge(table)
    return machine, copy


@contextmanager
def _isolated_cache():
    """The default cache, on and emptied, over a fresh directory."""
    saved = {name: os.environ.get(name) for name in (CACHE_DIR_ENV, CACHE_ENV)}
    with tempfile.TemporaryDirectory() as directory:
        os.environ[CACHE_DIR_ENV] = directory
        os.environ.pop(CACHE_ENV, None)
        default_cache().clear()
        try:
            yield
        finally:
            default_cache().clear()
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


_PATTERNS = {"0": FIXED, "1": CONTIGUOUS, "w": INDEXED}

_strides = st.sampled_from([2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 100, 128])
_sides = st.one_of(st.sampled_from(sorted(_PATTERNS)), _strides)
_kinds = st.sampled_from(list(TransferKind))


def _pattern(key):
    return _PATTERNS[key] if isinstance(key, str) else strided(key)


def _restrided(key, stride):
    """A grid key with its strided side (if any) moved to ``stride``,
    so the read interpolates along that key's series."""
    kind, read, write = key
    if isinstance(read, int):
        return kind, stride, write
    if isinstance(write, int):
        return kind, read, stride
    return key


def _keys(grid):
    """Keys to read: grid entries, their series at other strides,
    two-sided strided copies, and anything at all (mostly misses)."""
    return st.one_of(
        st.sampled_from(grid),
        st.builds(_restrided, st.sampled_from(grid), _strides),
        st.tuples(st.just(TransferKind.COPY), _strides, _strides),
        st.tuples(_kinds, _sides, _sides),
    )


def _reads(grid):
    keys = _keys(grid)
    return st.one_of(
        st.tuples(st.just("lookup"), keys),
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("has"), keys),
        st.tuples(st.just("len")),
        st.tuples(st.just("to_dict")),
        st.tuples(st.just("iter")),
        st.tuples(st.just("merge_into"), st.booleans()),
        st.tuples(st.just("merge_from"), st.booleans(), keys),
        st.tuples(st.just("set"), keys),
    )


def _apply(table, op):
    """Run one read; return its value or the error it raised."""
    name = op[0]
    try:
        if name == "lookup":
            kind, read, write = op[1]
            return table.lookup_kind(kind, _pattern(read), _pattern(write))
        if name == "get":
            return table.get(*op[1])
        if name == "has":
            return table.has(*op[1])
        if name == "len":
            return (len(table), repr(table))
        if name == "to_dict":
            return list(table.to_dict().items())
        if name == "iter":
            return list(table)
        if name == "merge_into":
            target = ThroughputTable("target")
            target.set(TransferKind.COPY, "1", "1", 1.5)
            target.set(TransferKind.COPY, "w", 3, 2.5)
            target.merge(table, overwrite=op[1])
            return list(target.to_dict().items())
        if name == "merge_from":
            __, overwrite, key = op
            source = ThroughputTable("source")
            source.set(*key, 7.25)
            source.set(TransferKind.COPY, "1", "1", 8.5)
            table.merge(source, overwrite=overwrite)
            return None
        if name == "set":
            table.set(*op[1], 3.75)
            return None
    except Exception as error:  # noqa: BLE001 - the error is the value
        return (type(error).__name__, str(error))
    raise AssertionError(f"unknown op {name!r}")


def _prepared(machine, mode, warm):
    """The table a sequence runs on, after an earlier table read ``warm``."""
    if mode == "off":
        return measure_table(machine, nwords=NWORDS, use_cache=False)
    writer = measure_table(machine, nwords=NWORDS)
    for key in warm:
        writer.get(*key)
    cache = default_cache()
    if mode == "disk":
        cache.clear()
        disk_hits = cache.disk_hits
        reader = measure_table(machine, nwords=NWORDS)
        assert cache.disk_hits == disk_hits + 1
        assert reader is not writer
        return reader
    memory_hits = cache.memory_hits
    reader = measure_table(machine, nwords=NWORDS)
    assert cache.memory_hits == memory_hits + 1
    assert reader is writer
    return reader


@pytest.mark.parametrize("mode", CACHE_MODES)
@pytest.mark.parametrize("machine_key", sorted(MACHINE_FACTORIES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_reads_match_a_table_measured_up_front(machine_key, mode, data):
    machine, eager = _eager(machine_key)
    grid = _grid(machine)
    warm = data.draw(
        st.lists(st.sampled_from(grid), max_size=len(grid) // 2)
    )
    ops = data.draw(st.lists(_reads(grid), min_size=1, max_size=12))
    with _isolated_cache():
        table = _prepared(machine, mode, warm)
        for op in ops:
            assert _apply(table, op) == _apply(eager, op), op
        assert list(table.to_dict().items()) == list(eager.to_dict().items())


@pytest.mark.parametrize("machine_key", sorted(MACHINE_FACTORIES))
def test_every_grid_entry_on_disk_after_a_full_read(machine_key):
    """A full read republishes the whole grid, and a later process
    reading the file measures nothing."""
    machine, eager = _eager(machine_key)
    with _isolated_cache():
        measure_table(machine, nwords=NWORDS).to_dict()
        default_cache().clear()
        reader = measure_table(machine, nwords=NWORDS)
        assert reader.to_dict(measure=False) == eager.to_dict()
