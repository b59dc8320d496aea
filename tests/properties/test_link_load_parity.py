"""Interval-count congestion is an exact twin of the per-hop route loop.

:meth:`Topology.max_link_congestion` counts dimension-order arcs per
ring without routing a flow; :meth:`Topology.link_loads` still routes
every flow hop by hop and stays the oracle.  These properties demand
the two agree in value *and* type — int ``0`` for a pattern that never
leaves its nodes, otherwise the same float ``load / link_weight`` —
on random grids (sizes 1 and 2 included, any mix of wrap flags, any
per-dimension capacities), on every registered machine's partitions,
and on random flow sets with self-flows and duplicates.

:meth:`Topology.max_link_congestions` counts many patterns in one
NumPy pass; pattern by pattern it must equal the oracle too, over
lists that mix empty, stationary-only, duplicate-flow and
different-length patterns and span several passes (the pass bound is
shrunk so that small draws cross it).  The schedule's batch must equal
its one-pattern form, and :func:`partition_into_phases` must equal the
greedy loop it skips for partial permutations.

:class:`~repro.faults.network.FaultyTopology` keeps its own per-hop
loop because failed links reroute; it must still match that loop.

CI gates on this module: the job fails if these tests are skipped.
"""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core.errors import FaultError
from repro.faults import FaultPlan, FaultyTopology, LinkFault
from repro.machines.registry import MACHINE_FACTORIES
from repro.netsim import schedule, topology as topology_module
from repro.netsim.schedule import (
    aapc_phases_shift,
    partition_into_phases,
    scheduled_congestion,
    scheduled_congestions,
)
from repro.netsim.topology import GeminiTorus, Mesh, Topology, Torus


def _scalar_congestion(topology, flows):
    """The oracle: worst ``load / link_weight`` over the routed loads."""
    loads = topology.link_loads(flows)
    if not loads:
        return 0
    return max(load / topology.link_weight(link) for link, load in loads.items())


def _assert_twin(topology, flows):
    counted = topology.max_link_congestion(flows)
    routed = _scalar_congestion(topology, flows)
    assert counted == routed
    assert type(counted) is type(routed)


@st.composite
def topologies(draw, max_rank=4, max_size=6):
    """A grid of rank 1-4, sizes 1-6, of any of the four kinds."""
    dims = draw(st.lists(
        st.integers(1, max_size), min_size=1, max_size=max_rank
    ))
    wrap = tuple(draw(st.lists(
        st.booleans(), min_size=len(dims), max_size=len(dims)
    )))
    kind = draw(st.sampled_from(["grid", "mesh", "torus", "gemini"]))
    if kind == "grid":
        return Topology(dims, wrap)
    if kind == "mesh":
        return Mesh(*dims)
    if kind == "torus":
        return Torus(*dims)
    capacity = draw(st.lists(
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
        min_size=len(dims), max_size=len(dims),
    ))
    return GeminiTorus(*dims, dim_capacity=capacity, wrap=wrap)


@st.composite
def flow_sets(draw, n_nodes, max_size=40):
    """Random flows over ``n_nodes``; self-flows and repeats included."""
    node = st.integers(0, n_nodes - 1)
    flows = draw(st.lists(st.tuples(node, node), max_size=max_size))
    if flows and draw(st.booleans()):
        repeats = draw(st.lists(st.sampled_from(flows), max_size=10))
        flows = flows + repeats
    if draw(st.booleans()):
        flows = flows + [(src, src) for src, __ in flows[:3]]
    return flows


class TestRandomGrids:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_route_loop(self, data):
        topology = data.draw(topologies())
        _assert_twin(topology, data.draw(flow_sets(topology.n_nodes)))

    @settings(max_examples=50, deadline=None)
    @given(topologies())
    def test_no_moving_flow_is_int_zero(self, topology):
        flows = [(node, node) for node in range(topology.n_nodes)]
        assert topology.max_link_congestion([]) == 0
        assert type(topology.max_link_congestion(flows)) is int
        _assert_twin(topology, flows)

    @settings(max_examples=30, deadline=None)
    @given(topologies(max_rank=3, max_size=4))
    def test_complete_exchange(self, topology):
        nodes = range(topology.n_nodes)
        _assert_twin(topology, [(src, dst) for src in nodes for dst in nodes])

    def test_out_of_range_node_is_rejected_like_a_route(self):
        mesh = Mesh(2, 2)
        for flows in ([(0, 4)], [(-1, 2)], [(1, 2), (7, 0)]):
            with pytest.raises(ValueError, match="out of range"):
                mesh.max_link_congestion(flows)
        # A self-flow is never routed, so it is never checked.
        assert mesh.max_link_congestion([(9, 9)]) == 0

    @pytest.mark.parametrize("stationary", [(9, 9), (-1, -1)])
    def test_unchecked_self_flow_beside_a_moving_one(self, stationary):
        mesh = Mesh(2, 2)
        flows = [(0, 1), stationary]
        assert mesh.max_link_congestion(flows) == 1.0
        assert _scalar_congestion(mesh, flows) == 1.0


class TestMachinePartitions:
    @pytest.mark.parametrize("key", sorted(MACHINE_FACTORIES))
    @pytest.mark.parametrize("n_nodes", [1, 2, 8, 12, 16, 27, 64])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_the_route_loop(self, key, n_nodes, data):
        topology = MACHINE_FACTORIES[key]().topology(n_nodes)
        flows = data.draw(flow_sets(topology.n_nodes, max_size=80))
        _assert_twin(topology, flows)


@st.composite
def faulty_topologies(draw):
    """A torus or Gemini torus with failed and derated links."""
    base = draw(st.sampled_from([
        Torus(4, 4), Mesh(3, 4), GeminiTorus(2, 3, 4),
        GeminiTorus(4, 4, 2, wrap=(True, False, True)),
    ]))
    links = base.all_links()
    picked = draw(st.lists(
        st.sampled_from(links), min_size=1, max_size=4, unique=True
    ))
    faults = []
    for link in picked:
        if draw(st.booleans()):
            faults.append(LinkFault(src=link.src, dst=link.dst, failed=True))
        else:
            derate = draw(st.sampled_from([0.25, 0.5, 0.75]))
            faults.append(LinkFault(src=link.src, dst=link.dst, derate=derate))
    return FaultyTopology(base, FaultPlan(seed=1, links=tuple(faults)))


class TestFaultyTopology:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_its_own_route_loop(self, data):
        faulty = data.draw(faulty_topologies())
        flows = data.draw(flow_sets(faulty.n_nodes))
        try:
            loads = faulty.link_loads(flows)
        except FaultError:
            with pytest.raises(FaultError):
                faulty.max_link_congestion(flows)
            return
        expected = 0
        if loads:
            expected = max(
                load / faulty.link_weight(link)
                / faulty.plan.link_derate(link.src, link.dst)
                for link, load in loads.items()
            )
        counted = faulty.max_link_congestion(flows)
        assert counted == expected
        assert type(counted) is type(expected)


@st.composite
def pattern_lists(draw, n_nodes, max_patterns=12):
    """Pattern lists that mix empty, stationary-only, duplicate-flow
    and different-length patterns, with repeats of earlier patterns."""
    node = st.integers(0, n_nodes - 1)
    stationary = st.lists(node, max_size=4).map(
        lambda nodes: [(each, each) for each in nodes]
    )
    kinds = st.one_of(
        st.just([]),
        stationary,
        flow_sets(n_nodes, max_size=12),
        st.lists(st.tuples(node, node), min_size=1, max_size=3).map(
            lambda flows: flows * 3
        ),
    )
    patterns = draw(st.lists(kinds, max_size=max_patterns))
    if patterns and draw(st.booleans()):
        patterns += draw(st.lists(st.sampled_from(patterns), max_size=3))
    return patterns


def _assert_batch_twin(topology, patterns, oracle):
    counted = topology.max_link_congestions(patterns)
    expected = [oracle(topology, flows) for flows in patterns]
    assert counted == expected
    assert [type(each) for each in counted] == [type(each) for each in expected]


class TestBatch:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_route_loop_pattern_by_pattern(self, data):
        topology = data.draw(topologies())
        patterns = data.draw(pattern_lists(topology.n_nodes))
        pass_flows = data.draw(st.integers(1, 16))
        with mock.patch.object(topology_module, "_PASS_FLOWS", pass_flows):
            _assert_batch_twin(topology, patterns, _scalar_congestion)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_full_size_passes(self, data):
        """64-flow patterns on a 64-node torus close a pass every 16
        patterns, and a complete exchange is a pass of its own."""
        torus = Torus(4, 4, 4)
        nodes = range(torus.n_nodes)
        shifts = [
            [(src, (src + shift) % 64) for src in nodes]
            for shift in data.draw(st.lists(st.integers(0, 63), max_size=40))
        ]
        exchange = [(src, dst) for src in nodes for dst in nodes]
        at = data.draw(st.integers(0, len(shifts)))
        patterns = shifts[:at] + [exchange] + shifts[at:]
        _assert_batch_twin(torus, patterns, _scalar_congestion)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_faulty_topology_matches_its_route_loop(self, data):
        faulty = data.draw(faulty_topologies())
        patterns = data.draw(pattern_lists(faulty.n_nodes, max_patterns=6))
        try:
            expected = [_faulty_congestion(faulty, flows) for flows in patterns]
        except FaultError:
            with pytest.raises(FaultError):
                faulty.max_link_congestions(patterns)
            return
        counted = faulty.max_link_congestions(patterns)
        assert counted == expected
        assert [type(each) for each in counted] == [
            type(each) for each in expected
        ]
        assert counted == [
            faulty.max_link_congestion(flows) for flows in patterns
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scheduled_batch_matches_one_pattern_at_a_time(self, data):
        topology = data.draw(topologies(max_rank=3, max_size=4))
        patterns = data.draw(pattern_lists(topology.n_nodes))
        pass_flows = data.draw(st.integers(1, 16))
        with mock.patch.object(topology_module, "_PASS_FLOWS", pass_flows):
            with mock.patch.dict(schedule._SCHEDULED_CACHE, clear=True):
                batch = scheduled_congestions(topology, patterns)
            with mock.patch.dict(schedule._SCHEDULED_CACHE, clear=True):
                single = [
                    scheduled_congestion(topology, flows) for flows in patterns
                ]
        # Patterns with the same flow set share a cache entry, scored
        # from the first of them.
        scored = {}
        for flows in patterns:
            key = tuple(sorted(set(flows)))
            if key not in scored:
                phases = _partition_oracle(flows)
                scores = [_scalar_congestion(topology, each) for each in phases]
                scored[key] = max(scores) if scores else 0
        expected = [scored[tuple(sorted(set(flows)))] for flows in patterns]
        assert batch == single == expected
        assert [type(each) for each in batch] == [type(each) for each in expected]


def _faulty_congestion(faulty, flows):
    """The degraded oracle: worst derated ``load / link_weight``."""
    loads = faulty.link_loads(flows)
    if not loads:
        return 0
    return max(
        load / faulty.link_weight(link)
        / faulty.plan.link_derate(link.src, link.dst)
        for link, load in loads.items()
    )


def _partition_oracle(flows):
    """Phase partition before the one-phase rule: the complete-exchange
    check, then the greedy loop over every non-stationary flow."""
    nodes = {node for flow in flows for node in flow}
    n = len(nodes)
    if (
        flows
        and nodes == set(range(n))
        and len(flows) == n * (n - 1)
        and len(set(flows)) == len(flows)
    ):
        return aapc_phases_shift(n)
    phases, sources, destinations = [], [], []
    for src, dst in flows:
        if src == dst:
            continue
        for index, phase in enumerate(phases):
            if src not in sources[index] and dst not in destinations[index]:
                phase.append((src, dst))
                sources[index].add(src)
                destinations[index].add(dst)
                break
        else:
            phases.append([(src, dst)])
            sources.append({src})
            destinations.append({dst})
    return phases


@st.composite
def partial_permutations(draw, max_nodes=12):
    """Distinct sources onto distinct destinations, self-flows kept."""
    n = draw(st.integers(1, max_nodes))
    sources = draw(st.permutations(range(n)))
    destinations = draw(st.permutations(range(n)))
    size = draw(st.integers(0, n))
    return list(zip(sources[:size], destinations[:size]))


class TestPartition:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        partial_permutations(),
        st.integers(1, 8).flatmap(lambda n: flow_sets(n, max_size=24)),
        st.integers(1, 5).map(
            lambda n: [(s, d) for s in range(n) for d in range(n) if s != d]
        ),
    ))
    def test_matches_the_greedy_loop(self, flows):
        assert partition_into_phases(flows) == _partition_oracle(flows)

    @settings(max_examples=100, deadline=None)
    @given(partial_permutations())
    def test_partial_permutation_is_one_phase(self, flows):
        # The complete-exchange check comes first, and it also takes
        # n (n - 1) flows over nodes 0..n-1 that include self-flows.
        assume(not schedule._is_complete_exchange(flows))
        moving = [(src, dst) for src, dst in flows if src != dst]
        assert partition_into_phases(flows) == ([moving] if moving else [])
