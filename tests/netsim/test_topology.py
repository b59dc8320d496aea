"""Tests for topologies and routing (repro.netsim.topology)."""

import itertools

import pytest

from repro.machines import MACHINE_FACTORIES
from repro.netsim.topology import GeminiTorus, Link, Mesh, Topology, Torus


class TestCoordinates:
    def test_roundtrip_mesh(self):
        mesh = Mesh(4, 8)
        for node in range(mesh.n_nodes):
            assert mesh.node_id(mesh.coordinates(node)) == node

    def test_roundtrip_torus(self):
        torus = Torus(4, 4, 4)
        for node in range(torus.n_nodes):
            assert torus.node_id(torus.coordinates(node)) == node

    def test_n_nodes(self):
        assert Mesh(4, 8).n_nodes == 32
        assert Torus(2, 8, 8).n_nodes == 128

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            Mesh(2, 2).coordinates(4)

    def test_bad_coordinate_rejected(self):
        with pytest.raises(ValueError):
            Mesh(2, 2).node_id((2, 0))
        with pytest.raises(ValueError):
            Mesh(2, 2).node_id((0,))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            Mesh()
        with pytest.raises(ValueError):
            Torus(0, 4)


class TestRouting:
    def test_self_route_is_empty(self):
        assert Mesh(4, 4).route(5, 5) == []

    def test_route_connects_endpoints(self):
        mesh = Mesh(4, 4)
        for src in range(16):
            for dst in range(16):
                links = mesh.route(src, dst)
                if src == dst:
                    continue
                assert links[0].src == src
                assert links[-1].dst == dst
                for a, b in zip(links, links[1:]):
                    assert a.dst == b.src

    def test_mesh_route_length_is_manhattan(self):
        mesh = Mesh(4, 4)
        links = mesh.route(mesh.node_id((0, 0)), mesh.node_id((3, 2)))
        assert len(links) == 5

    def test_dimension_order(self):
        mesh = Mesh(4, 4)
        links = mesh.route(mesh.node_id((0, 0)), mesh.node_id((2, 2)))
        dims = [link.dim for link in links]
        assert dims == sorted(dims)

    def test_torus_takes_short_way_around(self):
        torus = Torus(8)
        links = torus.route(0, 7)
        assert len(links) == 1  # wraps around, not 7 hops

    def test_torus_route_length_never_exceeds_half(self):
        torus = Torus(8, 8)
        for src in (0, 27, 63):
            for dst in range(torus.n_nodes):
                assert len(torus.route(src, dst)) <= 8

    def test_mesh_has_no_wraparound(self):
        mesh = Mesh(8)
        assert len(mesh.route(0, 7)) == 7


class TestLinkLoads:
    def test_disjoint_flows_no_contention(self):
        mesh = Mesh(1, 8)
        flows = [(0, 1), (2, 3), (4, 5)]
        assert mesh.max_link_congestion(flows) == 1

    def test_overlapping_flows_accumulate(self):
        mesh = Mesh(1, 8)
        flows = [(0, 7), (1, 7), (2, 7)]
        # The last link into node 7 carries all three flows.
        assert mesh.max_link_congestion(flows) == 3

    def test_cyclic_shift_on_torus_is_congestion_one(self):
        torus = Torus(4, 4)
        flows = [(i, (i + 1) % 16) for i in range(16)]
        assert torus.max_link_congestion(flows) == 1

    def test_empty_flows(self):
        assert Mesh(2, 2).max_link_congestion([]) == 0

    def test_self_flows_ignored(self):
        assert Mesh(2, 2).max_link_congestion([(0, 0), (1, 1)]) == 0

    def test_all_links_bidirectional_mesh(self):
        mesh = Mesh(2, 2)
        links = mesh.all_links()
        # 2x2 mesh: 4 undirected edges -> 8 directed links.
        assert len(links) == 8


def _all_links_reference(topology):
    """The node-by-node link walk ``all_links`` used to spell out itself."""
    links = []
    for node in range(topology.n_nodes):
        coord = topology.coordinates(node)
        for dim, size in enumerate(topology.dims):
            wrap = topology.wrap[dim]
            for positive in (True, False):
                step = 1 if positive else -1
                neighbour = coord[dim] + step
                if wrap:
                    neighbour %= size
                elif not 0 <= neighbour < size:
                    continue
                if size == 1 or (wrap and size == 2 and not positive):
                    continue
                to_coord = coord[:dim] + (neighbour,) + coord[dim + 1:]
                links.append(
                    Link(node, topology.node_id(to_coord), dim, positive)
                )
    return links


class TestAllLinks:
    """``all_links`` lists the same links, in the same order, as the walk
    it replaced: every node's ``neighbour_links`` in node order."""

    @pytest.mark.parametrize("key", sorted(MACHINE_FACTORIES))
    @pytest.mark.parametrize("n_nodes", [1, 2, 8, 12, 16, 64])
    def test_machine_topologies(self, key, n_nodes):
        topology = MACHINE_FACTORIES[key]().topology(n_nodes)
        assert topology.all_links() == _all_links_reference(topology)

    @pytest.mark.parametrize("dims", [(1, 3), (2, 3), (4, 2, 1), (3, 2, 5)])
    def test_mixed_wrap_flags(self, dims):
        for wrap in itertools.product((False, True), repeat=len(dims)):
            for topology in (Topology(dims, wrap), GeminiTorus(
                *dims, dim_capacity=(1.0,) * len(dims), wrap=wrap
            )):
                assert topology.all_links() == _all_links_reference(topology)
