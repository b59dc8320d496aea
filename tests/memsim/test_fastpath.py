"""Unit tests for the vectorized fast path (repro.memsim.fastpath).

Broad randomized parity with the scalar oracle lives in
``tests/properties/test_fastpath_parity.py``; these tests pin the
envelope boundaries, edge cases and engine-selection plumbing that a
random sweep might visit only occasionally.
"""

import numpy as np
import pytest

from repro.core.patterns import CONTIGUOUS, INDEXED, AccessPattern, strided
from repro.machines import paragon, t3d, xe
from repro.machines.registry import MACHINE_FACTORIES
from repro.memsim.config import (
    CacheConfig,
    DRAMConfig,
    NodeConfig,
    ProcessorConfig,
    ReadAheadConfig,
    WriteBufferConfig,
)
from repro.memsim.engine import MemoryEngine
from repro.memsim.fastpath import FastEngine, FastpathUnsupported, _stable_order
from repro.memsim.streams import AccessStream, make_stream

GAP = (1 << 24) + 256

MACHINES = list(MACHINE_FACTORIES)


def _pair(pattern, nwords, index_run=2):
    read = make_stream(pattern, nwords, base=0, seed=7, index_run=index_run)
    write = make_stream(
        pattern, nwords, base=GAP, seed=8, index_run=index_run
    )
    return read, write


def _assert_match(ref, fast):
    assert fast.nwords == ref.nwords
    assert fast.ns == pytest.approx(ref.ns, rel=1e-9)
    assert fast.cache_hit_rate == pytest.approx(
        ref.cache_hit_rate, rel=1e-12, abs=1e-15
    )
    assert fast.dram_page_hit_rate == pytest.approx(
        ref.dram_page_hit_rate, rel=1e-12, abs=1e-15
    )


class TestEnvelope:
    def test_write_back_beyond_two_ways_stays_on_the_oracle(self):
        node = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        with pytest.raises(FastpathUnsupported):
            FastEngine(node)

    def test_two_way_write_back_runs_fast(self):
        node = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=2)
        )
        ref = MemoryEngine(node)
        fast = FastEngine(node)
        read, write = _pair(strided(8), 512)
        _assert_match(ref.run_copy(read, write), fast.run_copy(read, write))

    def test_extreme_write_buffer_depth_rejected(self):
        node = NodeConfig(write_buffer=WriteBufferConfig(depth=256))
        with pytest.raises(FastpathUnsupported):
            FastEngine(node)

    def test_extreme_readahead_depth_rejected(self):
        node = NodeConfig(
            read_ahead=ReadAheadConfig(enabled=True, depth=17)
        )
        with pytest.raises(FastpathUnsupported):
            FastEngine(node)

    def test_disabled_readahead_depth_is_irrelevant(self):
        node = NodeConfig(
            read_ahead=ReadAheadConfig(enabled=False, depth=1000)
        )
        FastEngine(node)  # must not raise

    def test_shipped_machines_qualify(self):
        for factory in MACHINE_FACTORIES.values():
            FastEngine(factory().node)  # must not raise


class TestEdgeCases:
    @pytest.mark.parametrize("machine_key", MACHINES)
    @pytest.mark.parametrize("nwords", [1, 2, 5])
    def test_tiny_streams_match_oracle(self, machine_key, nwords):
        machine = MACHINE_FACTORIES[machine_key]()
        ref = MemoryEngine(machine.node)
        fast = FastEngine(machine.node)
        read, write = _pair(CONTIGUOUS, nwords, machine.index_run)
        _assert_match(ref.run_copy(read, write), fast.run_copy(read, write))
        _assert_match(
            ref.run_store_stream(write), fast.run_store_stream(write)
        )

    def test_mismatched_copy_lengths_rejected(self):
        fast = FastEngine(t3d().node)
        read, _ = _pair(CONTIGUOUS, 8)
        _, write = _pair(CONTIGUOUS, 16)
        with pytest.raises(ValueError):
            fast.run_copy(read, write)

    def test_empty_stream_is_free(self):
        fast = FastEngine(t3d().node)
        empty = AccessStream(
            pattern=AccessPattern.contiguous(),
            addresses=np.empty(0, dtype=np.int64),
        )
        result = fast.run_load_stream(empty)
        assert result.ns == 0.0
        assert result.nwords == 0

    def test_occupancy_scale_matches_oracle(self):
        node = paragon().node
        ref = MemoryEngine(node, occupancy_scale=1.7)
        fast = FastEngine(node, occupancy_scale=1.7)
        read, write = _pair(strided(8), 512)
        _assert_match(ref.run_copy(read, write), fast.run_copy(read, write))


class TestKernelSweep:
    """One deterministic mid-size case per kernel per machine."""

    @pytest.mark.parametrize("machine_key", MACHINES)
    @pytest.mark.parametrize(
        "pattern", [CONTIGUOUS, strided(4), strided(64), INDEXED]
    )
    def test_all_kernels(self, machine_key, pattern):
        machine = MACHINE_FACTORIES[machine_key]()
        ref = MemoryEngine(machine.node)
        fast = FastEngine(machine.node)
        read, write = _pair(pattern, 1024, machine.index_run)
        _assert_match(
            ref.run_load_stream(read), fast.run_load_stream(read)
        )
        _assert_match(
            ref.run_store_stream(write), fast.run_store_stream(write)
        )
        _assert_match(ref.run_copy(read, write), fast.run_copy(read, write))
        _assert_match(
            ref.run_load_send(read), fast.run_load_send(read)
        )
        _assert_match(
            ref.run_receive_store(write), fast.run_receive_store(write)
        )
        if machine.node.deposit.supports(pattern.is_contiguous):
            _assert_match(
                ref.run_deposit(write), fast.run_deposit(write)
            )


def _stream(addresses):
    return AccessStream(
        pattern=AccessPattern.indexed(),
        addresses=np.asarray(addresses, dtype=np.int64),
    )


def _oracle_and_fast(node, run):
    """``(result, dirty evictions)`` from the scalar oracle, then the
    fast path."""
    outcomes = []
    for engine in (MemoryEngine(node), FastEngine(node)):
        result = run(engine)
        outcomes.append((result, dict(result.counts)["memsim.dirty_evictions"]))
    return outcomes


class TestWriteBack:
    """Hand-built write-back streams with hand-checked timelines."""

    @staticmethod
    def _ordering_node():
        # 1 ns cycles, two 32-byte sets, one open page, and a write
        # buffer that drains on every write-back.
        return NodeConfig(
            processor=ProcessorConfig(
                clock_mhz=1000.0,
                loop_overhead_cycles=0.0,
                index_extra_cycles=0.0,
            ),
            cache=CacheConfig(
                size_bytes=64, line_bytes=32, hit_ns=1.0, write_policy="back"
            ),
            dram=DRAMConfig(
                page_bytes=4096,
                read_hit_ns=25.0,
                read_miss_ns=30.0,
                read_occupancy_hit_ns=5.0,
                read_occupancy_miss_ns=8.0,
                write_hit_ns=30.0,
                write_miss_ns=40.0,
                burst_word_ns=0.0,
            ),
            write_buffer=WriteBufferConfig(depth=1),
        )

    def test_store_eviction_drains_after_its_fill(self):
        # Word 1's store misses, fills (DRAM busy to 37, CPU to 57) and
        # only then drains the dirty line 0: DRAM busy to 67.  Draining
        # first would have ended the run at 64.
        write = _stream([0, 64])
        (ref, ref_dirty), (got, got_dirty) = _oracle_and_fast(
            self._ordering_node(), lambda e: e.run_store_stream(write)
        )
        assert ref.ns == got.ns == 67.0
        assert ref_dirty == got_dirty == 1

    def test_load_eviction_drains_before_its_fill(self):
        # Word 1's load of line 3 evicts dirty line 1: the drain holds
        # DRAM until 67, so the fill starts there and the copy ends at
        # 120.  Filling first would have ended it at 119.
        read = _stream([0, 96, 128])
        write = _stream([32, 104, 136])
        (ref, ref_dirty), (got, got_dirty) = _oracle_and_fast(
            self._ordering_node(), lambda e: e.run_copy(read, write)
        )
        assert ref.ns == got.ns == 120.0
        assert ref_dirty == got_dirty == 1

    def test_two_way_line_rehits_after_one_intervening_line(self):
        node = NodeConfig(
            cache=CacheConfig(
                size_bytes=128, line_bytes=32, associativity=2,
                write_policy="back",
            )
        )
        # Lines 0, 2, 0 share set 0, so line 0 hits again after one
        # intervening line; line 4 then evicts line 2, not line 0.
        read = _stream([0, 64, 8, 128, 16])
        ref = MemoryEngine(node).run_load_stream(read)
        got = FastEngine(node).run_load_stream(read)
        _assert_match(ref, got)
        assert got.cache_hit_rate == pytest.approx(2 / 5)

    def test_dirty_line_retouched_by_a_clean_load_is_written_back(self):
        node = NodeConfig(
            cache=CacheConfig(
                size_bytes=128, line_bytes=32, associativity=2,
                write_policy="back",
            )
        )
        # Set 0 sees: store A, load B, load A (hit), load C (evicts
        # clean B), load D (evicts A, still dirty).  Set 1 holds only
        # lines 1 and 3 and never evicts.
        read = _stream([32, 64, 8, 128, 192])
        write = _stream([0, 96, 104, 112, 120])
        (ref, ref_dirty), (got, got_dirty) = _oracle_and_fast(
            node, lambda e: e.run_copy(read, write)
        )
        _assert_match(ref, got)
        assert ref_dirty == got_dirty == 1


class TestPipelinedLoads:
    """Streams of 1, 2, ``depth`` and ``depth + 1`` words: the queue's
    empty slots never delay the processor, the first full wrap does, and
    the finish waits for every load still in flight."""

    @pytest.mark.parametrize(
        "depth, nwords",
        [(3, 1), (3, 2), (3, 3), (3, 4), (8, 1), (8, 2), (8, 8), (8, 9)],
    )
    @pytest.mark.parametrize("bypass", [True, False])
    def test_short_streams_match_the_oracle(self, depth, nwords, bypass):
        # Latency far above occupancy: a full queue, not the DRAM, holds
        # up the next load.
        node = NodeConfig(
            processor=ProcessorConfig(
                pipelined_load_depth=depth,
                pipelined_loads_bypass_cache=bypass,
            ),
            dram=DRAMConfig(
                read_hit_ns=200.0,
                read_miss_ns=240.0,
                read_occupancy_hit_ns=10.0,
                read_occupancy_miss_ns=12.0,
            ),
        )
        read = make_stream(strided(8), nwords, base=0)
        for run in (
            lambda e: e.run_load_stream(read),
            lambda e: e.run_load_send(read),
        ):
            ref = run(MemoryEngine(node))
            got = run(FastEngine(node))
            _assert_match(ref, got)
            assert got.counts == ref.counts


class TestBlocks:
    @pytest.mark.parametrize("machine_key", ["t3d", "paragon", "xe", "cluster"])
    @pytest.mark.parametrize("block_words", [1, 5, 64])
    def test_block_size_never_changes_a_bit(
        self, monkeypatch, machine_key, block_words
    ):
        from repro.memsim import fastpath

        machine = MACHINE_FACTORIES[machine_key]()
        read, write = _pair(INDEXED, 700, machine.index_run)
        contiguous, __ = _pair(CONTIGUOUS, 700)
        __, strided_write = _pair(strided(8), 700)

        def run_all():
            engine = FastEngine(machine.node)
            return [
                engine.run_copy(read, write),
                engine.run_copy(contiguous, strided_write),
                engine.run_load_send(contiguous),
                engine.run_receive_store(write),
            ]

        expected = run_all()
        monkeypatch.setattr(fastpath, "_BLOCK_WORDS", block_words)
        assert run_all() == expected

    def test_indexed_copy_footprint_is_bounded_by_the_block(self):
        """A 32 Ki-word indexed copy keeps its temporaries per block; one
        block spanning the whole stream peaks above 20 MB here."""
        import tracemalloc

        machine = xe()
        read, write = _pair(INDEXED, 32768, machine.index_run)
        engine = FastEngine(machine.node)
        tracemalloc.start()
        try:
            engine.run_copy(read, write)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024


class TestWideGroups:
    """Group ids past 16 bits take the int64 sort; the parity suite
    draws at most 512 sets and 4 banks, so it never reaches it."""

    @pytest.mark.parametrize(
        "n_groups", [1, 4, 1 << 8, (1 << 8) + 1, 1 << 16, (1 << 16) + 1]
    )
    def test_stable_order_equals_the_int64_stable_sort(self, n_groups):
        rng = np.random.default_rng(n_groups)
        # Half the ids from the top of the range (255 and 65 535 are the
        # largest uint8 and uint16, 256 and 65 536 the first that need
        # the next width), with ties.
        group = np.concatenate((
            rng.integers(max(n_groups - 3, 0), n_groups, size=3072),
            rng.integers(0, n_groups, size=3072),
        ))
        rng.shuffle(group)
        expected = np.argsort(group.astype(np.int64), kind="stable")
        assert np.array_equal(_stable_order(group, n_groups), expected)

    @pytest.mark.parametrize("policy", ["around", "through", "back"])
    def test_a_cache_of_more_than_65536_sets_matches_the_oracle(self, policy):
        node = NodeConfig(
            cache=CacheConfig(
                size_bytes=4 << 20, line_bytes=32, write_policy=policy
            ),
            dram=DRAMConfig(n_banks=8),
        )
        assert node.cache.n_sets > 1 << 16
        rng = np.random.default_rng(11)
        # 3 000 words (past one block seam) drawn from 1 500 words
        # spread over 8 MiB: every set id range, and repeats that hit.
        pool = rng.integers(0, 1 << 20, size=1500) * 8
        read = _stream(rng.choice(pool, size=3000))
        write = _stream(rng.choice(pool, size=3000) + (8 << 20))
        for run in (
            lambda e: e.run_load_stream(read),
            lambda e: e.run_store_stream(write),
            lambda e: e.run_copy(read, write),
        ):
            ref = run(MemoryEngine(node))
            got = run(FastEngine(node))
            _assert_match(ref, got)
            assert got.counts == ref.counts
        # The loads both hit and miss, so the set grouping is exercised.
        loads = FastEngine(node).run_load_stream(read)
        assert 0.0 < loads.cache_hit_rate < 1.0


@pytest.mark.parametrize("machine_key", MACHINES)
def test_every_machine_calibrates_on_the_fast_path(machine_key):
    from repro.machines.measure import measure_table
    from repro.trace import tracing

    table = measure_table(MACHINE_FACTORIES[machine_key](), use_cache=False)
    # A table measures an entry when it is read: read every one under
    # the tracer, which counts the kernels that left the fast path.
    with tracing() as tracer:
        entries = table.to_dict()
    counters = tracer.metrics.counters()
    assert len(entries) == len(table) > 0
    assert counters.get("memsim.engine.fast", 0) > 0
    assert "memsim.fastpath_unsupported" not in counters
    assert "memsim.engine.scalar" not in counters
