"""Property-based tests for the simulators and compiler substrates."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.compiler.classify import classify_offsets
from repro.compiler.distributions import Block, BlockCyclic, Cyclic
from repro.core.patterns import AccessPattern
from repro.memsim.streams import (
    _indexed_word_offsets,
    _indexed_word_offsets_reference,
    make_stream,
)
from repro.netsim.topology import Mesh, Torus
from repro.runtime.stages import Stage, StagePipeline


class TestClassifierRecovery:
    """classify_offsets inverts the offset generators."""

    @given(
        st.integers(min_value=2, max_value=512),
        st.integers(min_value=2, max_value=64),
    )
    def test_recovers_plain_strides(self, stride, count):
        offsets = np.arange(count) * stride
        assert classify_offsets(offsets) == AccessPattern.strided(stride)

    @given(
        st.integers(min_value=2, max_value=256),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=2, max_value=16),
    )
    def test_recovers_blocked_strides(self, stride, block, repeats):
        assume(block < stride)
        starts = np.arange(repeats) * stride
        offsets = (starts[:, None] + np.arange(block)).ravel()
        expected = (
            AccessPattern.contiguous()
            if block == 1 and stride == 1
            else AccessPattern.strided(stride, block=block)
            if block > 1
            else AccessPattern.strided(stride)
        )
        assert classify_offsets(offsets) == expected

    @given(st.integers(min_value=1, max_value=512))
    def test_recovers_contiguous(self, count):
        assert classify_offsets(np.arange(count)).is_contiguous

    @given(st.permutations(list(range(12))))
    def test_permutations_never_misclassified_as_strided(self, perm):
        offsets = np.asarray(perm)
        pattern = classify_offsets(offsets)
        if pattern.is_contiguous:
            assert list(perm) == sorted(perm)
        # Strided classifications must be genuine.
        if pattern.is_strided:
            diffs = np.diff(offsets)
            assert len(np.unique(diffs)) <= 2


class TestDistributionProperties:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60)
    def test_partition_of_unity(self, extent, n_nodes, block):
        for dist in (
            Block(extent, n_nodes),
            Cyclic(extent, n_nodes),
            BlockCyclic(extent, n_nodes, block),
        ):
            owned = np.concatenate(
                [dist.local_indices(p) for p in range(n_nodes)]
            )
            assert sorted(owned.tolist()) == list(range(extent))

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60)
    def test_offsets_are_bijections(self, extent, n_nodes):
        for dist in (Block(extent, n_nodes), Cyclic(extent, n_nodes)):
            for p in range(n_nodes):
                owned = dist.local_indices(p)
                offsets = dist.local_offset(owned)
                assert sorted(offsets.tolist()) == list(range(len(owned)))


class TestTopologyProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=60)
    def test_routes_connect(self, dims, data):
        torus = Torus(*dims)
        src = data.draw(st.integers(0, torus.n_nodes - 1))
        dst = data.draw(st.integers(0, torus.n_nodes - 1))
        links = torus.route(src, dst)
        if src == dst:
            assert links == []
        else:
            assert links[0].src == src
            assert links[-1].dst == dst
            for a, b in zip(links, links[1:]):
                assert a.dst == b.src

    @given(
        st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=60)
    def test_torus_routes_take_the_short_way(self, dims, data):
        torus = Torus(*dims)
        src = data.draw(st.integers(0, torus.n_nodes - 1))
        dst = data.draw(st.integers(0, torus.n_nodes - 1))
        bound = sum(d // 2 for d in dims)
        assert len(torus.route(src, dst)) <= bound

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=5),
        st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 24)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=60)
    def test_link_loads_conserve_hops(self, rows, cols, raw_flows):
        mesh = Mesh(rows, cols)
        flows = [
            (s % mesh.n_nodes, d % mesh.n_nodes) for s, d in raw_flows
        ]
        loads = mesh.link_loads(flows)
        total_hops = sum(
            len(mesh.route(s, d)) for s, d in flows if s != d
        )
        assert sum(loads.values()) == total_hops


class TestStreamProperties:
    @given(
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_indexed_streams_word_aligned_and_sized(self, nwords, run):
        stream = make_stream(AccessPattern.indexed(), nwords, index_run=run)
        assert stream.nwords == nwords
        assert np.all(stream.addresses % 8 == 0)
        assert len(stream.index_addresses) == nwords

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_indexed_replay_matches_reference(self, nwords, run, seed):
        replayed = _indexed_word_offsets(nwords, run, seed)
        expected = _indexed_word_offsets_reference(
            nwords, run, np.random.default_rng(seed)
        )
        assert replayed.tobytes() == expected.tobytes()


class TestPipelineProperties:
    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=500.0),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=1024, max_value=1 << 20),
    )
    @settings(max_examples=60)
    def test_pipeline_never_beats_slowest_stage(self, stage_rates, nbytes):
        stages = [
            Stage(f"s{i}", rate, f"resource{i}")
            for i, rate in enumerate(stage_rates)
        ]
        result = StagePipeline(stages).run(nbytes, chunk_bytes=4096)
        assert result.mbps <= min(stage_rates) * (1 + 1e-9)

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=500.0),
        st.integers(min_value=8192, max_value=1 << 20),
    )
    @settings(max_examples=60)
    def test_adding_a_stage_never_helps(self, rate_a, rate_b, nbytes):
        one = StagePipeline([Stage("a", rate_a, "ra")]).run(nbytes)
        two = StagePipeline(
            [Stage("a", rate_a, "ra"), Stage("b", rate_b, "rb")]
        ).run(nbytes)
        assert two.ns >= one.ns - 1e-9
