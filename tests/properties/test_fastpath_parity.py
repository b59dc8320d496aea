"""The fast path is an exact twin of the scalar timeline oracle.

:class:`~repro.memsim.fastpath.FastEngine` exists purely for speed:
for every configuration it accepts, it must reproduce the scalar
:class:`~repro.memsim.engine.MemoryEngine` result field for field.
These properties drive both engines over random node configurations,
access patterns and stream lengths and demand agreement — times to a
relative 1e-9 (vectorized reductions reassociate float sums), hit
rates to 1e-12 (they are ratios of integers in both engines), and the
event tallies each kernel records in ``KernelResult.counts`` exactly.

CI gates on this module: the job fails if these tests are skipped,
so the parity guarantee cannot silently rot.
"""

from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core.patterns import AccessPattern
from repro.machines.registry import MACHINE_FACTORIES
from repro.memsim import fastpath
from repro.memsim.config import (
    CacheConfig,
    DepositConfig,
    DRAMConfig,
    NodeConfig,
    ProcessorConfig,
    ReadAheadConfig,
    WriteBufferConfig,
)
from repro.memsim.engine import MemoryEngine
from repro.memsim.fastpath import FastEngine, FastpathUnsupported
from repro.memsim.streams import make_stream

REL_NS = 1e-9
REL_RATE = 1e-12

#: Write stream base far above any read stream footprint.
WRITE_BASE = (1 << 24) + 256


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def assert_results_match(ref, fast, tag: str) -> None:
    assert ref.nwords == fast.nwords, tag
    assert _close(ref.ns, fast.ns, REL_NS), (
        f"{tag}: ns {ref.ns!r} != {fast.ns!r}"
    )
    assert _close(ref.cache_hit_rate, fast.cache_hit_rate, REL_RATE), (
        f"{tag}: cache hit rate {ref.cache_hit_rate!r} != "
        f"{fast.cache_hit_rate!r}"
    )
    assert _close(
        ref.dram_page_hit_rate, fast.dram_page_hit_rate, REL_RATE
    ), (
        f"{tag}: page hit rate {ref.dram_page_hit_rate!r} != "
        f"{fast.dram_page_hit_rate!r}"
    )
    # Event tallies agree name by name; a name one engine does not
    # record (the fast deposit kernel never touches the cache) is zero.
    ref_counts, fast_counts = dict(ref.counts), dict(fast.counts)
    for name in ref_counts.keys() | fast_counts.keys():
        assert ref_counts.get(name, 0) == fast_counts.get(name, 0), (
            f"{tag}: {name} {ref_counts.get(name, 0)} != "
            f"{fast_counts.get(name, 0)}"
        )


# -- strategies ---------------------------------------------------------------

patterns = st.one_of(
    st.just(AccessPattern.contiguous()),
    st.just(AccessPattern.indexed()),
    st.sampled_from([2, 4, 8, 16, 64]).map(AccessPattern.strided),
    st.just(AccessPattern.strided(16, block=4)),
)

#: Geometries off the powers of two (96- and 192-set caches, 48-byte
#: lines, 1 536-byte pages, 3 banks) take ``//`` and ``%`` where the
#: others take shifts and masks.
caches = st.builds(
    CacheConfig,
    size_bytes=st.sampled_from([1024, 3072, 4096, 6144, 8192]),
    line_bytes=st.sampled_from([16, 32, 48, 64]),
    associativity=st.sampled_from([1, 2, 4]),
    hit_ns=st.sampled_from([5.0, 7.0]),
    write_policy=st.sampled_from(["around", "through", "back"]),
).filter(lambda cache: cache.size_bytes % cache.line_bytes == 0)

drams = st.builds(
    DRAMConfig,
    page_bytes=st.sampled_from([512, 1536, 2048, 4096]),
    n_banks=st.sampled_from([1, 2, 3, 4]),
    read_miss_ns=st.sampled_from([155.0, 240.0]),
    burst_word_ns=st.sampled_from([15.0, 25.0]),
)

write_buffers = st.builds(
    WriteBufferConfig,
    depth=st.sampled_from([0, 1, 2, 6, 12]),
    merge=st.booleans(),
)

read_aheads = st.builds(
    ReadAheadConfig,
    enabled=st.booleans(),
    depth=st.sampled_from([0, 1, 2, 4]),
    survives_writes=st.booleans(),
)

processors = st.builds(
    ProcessorConfig,
    clock_mhz=st.sampled_from([50.0, 150.0]),
    pipelined_load_depth=st.sampled_from([0, 1, 3]),
    pipelined_loads_bypass_cache=st.booleans(),
)

nodes = st.builds(
    NodeConfig,
    cache=caches,
    dram=drams,
    write_buffer=write_buffers,
    read_ahead=read_aheads,
    processor=processors,
)

lengths = st.sampled_from([1, 2, 3, 17, 256, 1023])

#: Lengths that cross many block seams at the block sizes below.
seam_lengths = st.sampled_from([17, 300, 3000])

kernels = st.sampled_from(
    ["load", "store", "copy", "load_send", "receive_store", "deposit"]
)


def _engines(node: NodeConfig):
    """Both engines, rejecting configs outside the fastpath envelope.

    ``assume`` (not ``skip``): a skip inside a hypothesis body skips
    the whole test, and CI gates on these tests not skipping.
    """
    ref = MemoryEngine(node)
    try:
        fast = FastEngine(node)
    except FastpathUnsupported:
        assume(False)
    return ref, fast


class TestFastpathParity:
    @settings(max_examples=150, deadline=None)
    @given(
        node=nodes,
        pattern=patterns,
        nwords=lengths,
        kernel=kernels,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        index_run=st.sampled_from([1, 2, 4]),
    )
    def test_kernels_match_scalar_oracle(
        self, node, pattern, nwords, kernel, seed, index_run
    ):
        if kernel == "deposit":
            node = replace(
                node, deposit=DepositConfig(patterns="any")
            )
        ref, fast = _engines(node)
        read = make_stream(
            pattern, nwords, base=0, seed=seed, index_run=index_run
        )
        write = make_stream(
            pattern, nwords, base=WRITE_BASE, seed=seed + 1,
            index_run=index_run,
        )
        runs = {
            "load": lambda eng: eng.run_load_stream(read),
            "store": lambda eng: eng.run_store_stream(write),
            "copy": lambda eng: eng.run_copy(read, write),
            "load_send": lambda eng: eng.run_load_send(read),
            "receive_store": lambda eng: eng.run_receive_store(write),
            "deposit": lambda eng: eng.run_deposit(write),
        }
        run = runs[kernel]
        expected = run(ref)
        try:
            got = run(fast)
        except FastpathUnsupported:
            assume(False)
        assert_results_match(expected, got, f"{kernel}/{pattern!r}")

    @settings(max_examples=40, deadline=None)
    @given(
        node=nodes,
        read_pattern=patterns,
        write_pattern=patterns,
        nwords=lengths,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_mixed_pattern_copies_match(
        self, node, read_pattern, write_pattern, nwords, seed
    ):
        ref, fast = _engines(node)
        read = make_stream(read_pattern, nwords, base=0, seed=seed)
        write = make_stream(
            write_pattern, nwords, base=WRITE_BASE, seed=seed + 1
        )
        expected = ref.run_copy(read, write)
        try:
            got = fast.run_copy(read, write)
        except FastpathUnsupported:
            assume(False)
        assert_results_match(
            expected, got, f"copy {read_pattern!r}->{write_pattern!r}"
        )

    @pytest.mark.parametrize("policy", ["around", "through", "back"])
    @settings(max_examples=25, deadline=None)
    @given(
        node=nodes,
        read_pattern=patterns,
        write_pattern=patterns,
        nwords=seam_lengths,
        block_words=st.sampled_from([1, 2, 5, 7, 64]),
        kernel=st.sampled_from(["load", "store", "copy"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_block_seams_match_scalar_oracle(
        self, policy, node, read_pattern, write_pattern, nwords,
        block_words, kernel, seed,
    ):
        """State carried across block seams is the engine's state: tiny
        blocks over long streams still match the oracle."""
        node = replace(node, cache=replace(node.cache, write_policy=policy))
        ref, fast = _engines(node)
        read = make_stream(read_pattern, nwords, base=0, seed=seed)
        write = make_stream(
            write_pattern, nwords, base=WRITE_BASE, seed=seed + 1
        )
        runs = {
            "load": lambda eng: eng.run_load_stream(read),
            "store": lambda eng: eng.run_store_stream(write),
            "copy": lambda eng: eng.run_copy(read, write),
        }
        expected = runs[kernel](ref)
        saved = fastpath._BLOCK_WORDS
        fastpath._BLOCK_WORDS = block_words
        try:
            got = runs[kernel](fast)
        except FastpathUnsupported:
            assume(False)
        finally:
            fastpath._BLOCK_WORDS = saved
        assert_results_match(
            expected, got, f"{kernel} {policy} blocks of {block_words}"
        )

    def test_machine_configs_are_inside_the_envelope(self):
        """The shipped machines must never fall back to the oracle."""
        for factory in MACHINE_FACTORIES.values():
            FastEngine(factory().node)  # must not raise
