"""Interval-count congestion is an exact twin of the per-hop route loop.

:meth:`Topology.max_link_congestion` counts dimension-order arcs per
ring without routing a flow; :meth:`Topology.link_loads` still routes
every flow hop by hop and stays the oracle.  These properties demand
the two agree in value *and* type — int ``0`` for a pattern that never
leaves its nodes, otherwise the same float ``load / link_weight`` —
on random grids (sizes 1 and 2 included, any mix of wrap flags, any
per-dimension capacities), on every registered machine's partitions,
and on random flow sets with self-flows and duplicates.

:class:`~repro.faults.network.FaultyTopology` keeps its own per-hop
loop because failed links reroute; it must still match that loop.

CI gates on this module: the job fails if these tests are skipped.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.errors import FaultError
from repro.faults import FaultPlan, FaultyTopology, LinkFault
from repro.machines.registry import MACHINE_FACTORIES
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
