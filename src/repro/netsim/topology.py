"""Interconnect topologies: k-ary meshes and tori.

Both of the paper's machines use "a simple mesh topology with fast
links" (Section 4.3): the T3D a 3-D torus, the Paragon a 2-D mesh
(whose unfortunate aspect ratios, e.g. 112x16, can cause congestion).
Dimension-order routing is used throughout, as on the real machines.

Wraparound is a *per-dimension* property: a classic torus wraps every
dimension, a mesh none, and modern machines mix — a Cray XE/Gemini
partition is typically a torus in X and Z but may be left open in Y,
and its Y links carry half the bandwidth of X/Z ones
(:class:`GeminiTorus`).  :meth:`Topology.dim_weight` exposes the
relative capacity of each dimension's links so congestion accounting
can weight loads; the base grid keeps every link at weight one.

A *flow* is a (source, destination) node pair; :meth:`Topology.link_loads`
routes a set of flows and counts how many cross each directed link,
from which the paper's *congestion* figure — how much more data the
worst link carries than it can support at peak speed — follows.
:meth:`Topology.max_link_congestion` computes that figure without
routing: a dimension-order route crosses one contiguous arc of each
dimension ring it moves along, so the worst link is the most-covered
position of a per-ring interval count.  :meth:`Topology.max_link_congestions`
is the batch form and the one implementation: a collective signs all
its round patterns at once, and one NumPy pass (one ``bincount`` per
dimension, with a pattern axis in front of the ring rows) counts up to
``_PASS_FLOWS`` flows, because a pass costs mostly a fixed number of
NumPy calls whatever it counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.errors import FaultError

__all__ = ["Link", "Topology", "Mesh", "Torus", "GeminiTorus"]

Coordinate = Tuple[int, ...]
Flow = Tuple[int, int]

#: Wraparound spec: one bool for every dimension, or a single bool
#: applied to all of them.
WrapSpec = Union[bool, Sequence[bool]]

#: Flows one NumPy pass of :meth:`Topology.max_link_congestions`
#: counts.  A pass costs mostly a fixed number of NumPy calls, so it
#: covers many patterns; the bound keeps its arrays small.
_PASS_FLOWS = 1024


@dataclass(frozen=True)
class Link:
    """A directed physical link between neighbouring nodes.

    ``dim`` is the dimension the link runs along; ``positive`` its
    direction; ``src``/``dst`` the node ids it connects.
    """

    src: int
    dst: int
    dim: int
    positive: bool


class Topology:
    """Base class: an n-dimensional grid with dimension-order routing."""

    def __init__(self, dims: Sequence[int], wraparound: WrapSpec) -> None:
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid dimensions {dims!r}")
        self.dims = tuple(dims)
        if isinstance(wraparound, bool):
            self.wrap: Tuple[bool, ...] = (wraparound,) * len(self.dims)
        else:
            wrap = tuple(bool(w) for w in wraparound)
            if len(wrap) != len(self.dims):
                raise ValueError(
                    f"wraparound {wraparound!r} has wrong rank for "
                    f"dims {self.dims}"
                )
            self.wrap = wrap

    @property
    def wraparound(self) -> bool:
        """True when every dimension wraps (the classic torus case).

        Kept for callers that only distinguish mesh from torus; code
        that routes must consult the per-dimension :attr:`wrap` tuple.
        """
        return all(self.wrap)

    @property
    def n_nodes(self) -> int:
        product = 1
        for d in self.dims:
            product *= d
        return product

    # -- node naming -------------------------------------------------------

    def coordinates(self, node: int) -> Coordinate:
        """Node id -> grid coordinate (row-major, last dim fastest)."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range 0..{self.n_nodes - 1}")
        coordinate: List[int] = []
        remainder = node
        for size in reversed(self.dims):
            coordinate.append(remainder % size)
            remainder //= size
        return tuple(reversed(coordinate))

    def node_id(self, coordinate: Coordinate) -> int:
        if len(coordinate) != len(self.dims):
            raise ValueError(
                f"coordinate {coordinate!r} has wrong rank for dims {self.dims}"
            )
        node = 0
        for position, size in zip(coordinate, self.dims):
            if not 0 <= position < size:
                raise ValueError(f"coordinate {coordinate!r} out of bounds")
            node = node * size + position
        return node

    # -- routing ------------------------------------------------------------

    def _steps(
        self, start: int, goal: int, size: int, wrap: bool
    ) -> Iterable[Tuple[int, int, bool]]:
        """Single-dimension hops from start to goal: (from, to, positive)."""
        if start == goal:
            return
        if wrap:
            forward = (goal - start) % size
            backward = (start - goal) % size
            positive = forward <= backward
        else:
            positive = goal > start
        position = start
        while position != goal:
            nxt = (position + (1 if positive else -1)) % size
            yield position, nxt, positive
            position = nxt

    def route(
        self,
        src: int,
        dst: int,
        avoid: Optional[FrozenSet[Tuple[int, int]]] = None,
    ) -> List[Link]:
        """Dimension-order route as a list of directed links.

        Args:
            avoid: Directed ``(src, dst)`` node pairs whose links must
                not be used (failed hardware).  When the dimension-order
                route would cross one, the route falls back to the
                shortest detour around the failed links; an unreachable
                destination raises :class:`~repro.core.errors.FaultError`.
        """
        src_coord = list(self.coordinates(src))
        dst_coord = self.coordinates(dst)
        links: List[Link] = []
        for dim in range(len(self.dims)):
            for here, there, positive in self._steps(
                src_coord[dim], dst_coord[dim], self.dims[dim], self.wrap[dim]
            ):
                from_coord = tuple(src_coord[:dim] + [here] + src_coord[dim + 1 :])
                to_coord = tuple(src_coord[:dim] + [there] + src_coord[dim + 1 :])
                links.append(
                    Link(self.node_id(from_coord), self.node_id(to_coord), dim, positive)
                )
            src_coord[dim] = dst_coord[dim]
        if avoid and any((link.src, link.dst) in avoid for link in links):
            return self._route_avoiding(src, dst, avoid)
        return links

    def neighbour_links(self, node: int) -> List[Link]:
        """The directed links leaving ``node``, in deterministic order."""
        coord = self.coordinates(node)
        links: List[Link] = []
        for dim, size in enumerate(self.dims):
            if size == 1:
                continue
            wrap = self.wrap[dim]
            for positive in (True, False):
                step = 1 if positive else -1
                neighbour = coord[dim] + step
                if wrap:
                    neighbour %= size
                elif not 0 <= neighbour < size:
                    continue
                if wrap and size == 2 and not positive:
                    # Both directions reach the same neighbour.
                    continue
                to_coord = coord[:dim] + (neighbour,) + coord[dim + 1 :]
                links.append(Link(node, self.node_id(to_coord), dim, positive))
        return links

    def _route_avoiding(
        self, src: int, dst: int, avoid: FrozenSet[Tuple[int, int]]
    ) -> List[Link]:
        """Shortest route around failed links (deterministic BFS)."""
        parents: Dict[int, Link] = {}
        frontier = deque([src])
        seen = {src}
        while frontier:
            here = frontier.popleft()
            if here == dst:
                break
            for link in self.neighbour_links(here):
                if (link.src, link.dst) in avoid or link.dst in seen:
                    continue
                seen.add(link.dst)
                parents[link.dst] = link
                frontier.append(link.dst)
        if dst not in seen:
            raise FaultError(
                f"no route from node {src} to node {dst}: failed links "
                f"disconnect the destination"
            )
        path: List[Link] = []
        node = dst
        while node != src:
            link = parents[node]
            path.append(link)
            node = link.src
        path.reverse()
        return path

    def dim_weight(self, dim: int) -> float:
        """Relative capacity of every link along ``dim`` (1.0 = full speed).

        Anisotropic interconnects override this; congestion accounting
        divides a link's flow count by its weight, so a half-capacity
        link carrying ``L`` flows congests like a full link carrying
        ``2 L``.
        """
        return 1.0

    def link_weight(self, link: Link) -> float:
        """Relative capacity of one link: its dimension's weight."""
        return self.dim_weight(link.dim)

    def routing_key(self) -> Tuple:
        """Hashable token identifying this topology's routing behaviour.

        Fault-degraded and anisotropic topologies override this so
        congestion caches keyed on ``(dims, wrap)`` never mix results
        from topologies that route or weight links differently.
        """
        return ()

    def link_loads(self, flows: Iterable[Flow]) -> Dict[Link, int]:
        """How many flows traverse each directed link."""
        loads: Dict[Link, int] = {}
        for src, dst in flows:
            if src == dst:
                continue
            for link in self.route(src, dst):
                loads[link] = loads.get(link, 0) + 1
        return loads

    def max_link_congestion(self, flows: Iterable[Flow]) -> float:
        """The worst weighted link load (the paper's congestion figure).

        Equal, in value and type, to the worst ``load / link_weight``
        over :meth:`link_loads`; the batch of one pattern in
        :meth:`max_link_congestions`.
        """
        return self.max_link_congestions((flows,))[0]

    def max_link_congestions(
        self, patterns: Iterable[Iterable[Flow]]
    ) -> List[float]:
        """:meth:`max_link_congestion` of each flow pattern, in order.

        Counted without routing a flow.  Along dimension ``k`` a
        dimension-order route moves on the ring whose other coordinates
        are the destination's below ``k`` and the source's above it,
        covering one arc in the direction :meth:`_steps` picks.  A link
        is named by the ring position it leaves, so each (pattern, ring,
        direction) row counts arcs with an integer difference array:
        ``+1`` where the arc starts, ``-1`` where it ends, and a ``+1``
        at position 0 for an arc that wraps past the end of the ring.
        A flow that stays on its node is dropped before counting (it is
        never routed, so its nodes are never checked), and a pattern
        with no other flow scores int ``0``.

        The cost of a NumPy pass is mostly a fixed cost per call, so
        one pass counts many patterns: it closes once it holds
        :data:`_PASS_FLOWS` flows, or ``_PASS_FLOWS // n_nodes``
        patterns, which keeps its per-ring counters as small.
        """
        congestions: List[float] = []
        nodes: List[int] = []
        lengths: List[int] = []
        most = max(1, _PASS_FLOWS // self.n_nodes)
        for flows in patterns:
            before = len(nodes)
            nodes.extend(chain.from_iterable(flows))
            if (len(nodes) - before) % 2:
                raise ValueError("a flow is a (source, destination) pair")
            lengths.append((len(nodes) - before) // 2)
            if len(nodes) >= 2 * _PASS_FLOWS or len(lengths) == most:
                congestions += self._count_pass(nodes, lengths)
                nodes, lengths = [], []
        if lengths:
            congestions += self._count_pass(nodes, lengths)
        return congestions

    def _count_pass(
        self, nodes: List[int], lengths: List[int]
    ) -> List[float]:
        """One interval-count pass over the patterns ``lengths`` splits
        the flattened ``(src, dst)`` ids of ``nodes`` into."""
        pairs = np.array(nodes, dtype=np.int64).reshape(-1, 2)
        patterns = len(lengths)
        pattern = np.repeat(np.arange(patterns), lengths)
        moving = pairs[:, 0] != pairs[:, 1]
        pairs, pattern = pairs[moving], pattern[moving]
        if not len(pattern):
            return [0] * patterns
        src, dst = pairs[:, 0], pairs[:, 1]
        n_nodes = self.n_nodes
        outside = (src < 0) | (src >= n_nodes) | (dst < 0) | (dst >= n_nodes)
        if outside.any():
            first = pairs[np.flatnonzero(outside)[0]]
            node = first[0] if not 0 <= first[0] < n_nodes else first[1]
            raise ValueError(f"node {node} out of range 0..{n_nodes - 1}")
        worst = np.zeros(patterns)
        stride = n_nodes
        for dim, size in enumerate(self.dims):
            stride //= size
            if size == 1:
                continue
            start = src // stride % size
            goal = dst // stride % size
            ring = dst // (stride * size) * stride + src % stride
            if self.wrap[dim]:
                positive = (goal - start) % size <= (start - goal) % size
            else:
                positive = goal > start
            # The arc's first and one-past-last link, by leaving position;
            # a flow that stays put on this ring gets an empty arc.
            low = np.where(positive, start, goal + 1)
            high = np.where(positive, goal, start + 1)
            # One row per (pattern, ring, direction), the positive first.
            width = size + 1
            rings = n_nodes // size
            row = (2 * (pattern * rings + ring) + ~positive) * width
            cells = patterns * 2 * rings * width
            marks = np.bincount(
                np.concatenate((row + low, row[low > high])), minlength=cells
            ) - np.bincount(row + high, minlength=cells)
            load = (
                marks.reshape(patterns, -1, width)[:, :, :size]
                .cumsum(axis=2)
                .max(axis=(1, 2))
            )
            np.maximum(worst, load / self.dim_weight(dim), out=worst)
        counted = np.bincount(pattern, minlength=patterns).tolist()
        return [
            load if flows else 0
            for load, flows in zip(worst.tolist(), counted)
        ]

    def all_links(self) -> List[Link]:
        """Every directed link, node by node in :meth:`neighbour_links` order."""
        return [
            link
            for node in range(self.n_nodes)
            for link in self.neighbour_links(node)
        ]


class Mesh(Topology):
    """An n-dimensional mesh without wraparound (Intel Paragon: 2-D)."""

    def __init__(self, *dims: int) -> None:
        super().__init__(dims, wraparound=False)

    def __repr__(self) -> str:
        return f"Mesh{self.dims}"


class Torus(Topology):
    """An n-dimensional torus (Cray T3D: 3-D)."""

    def __init__(self, *dims: int) -> None:
        super().__init__(dims, wraparound=True)

    def __repr__(self) -> str:
        return f"Torus{self.dims}"


class GeminiTorus(Topology):
    """A Cray XE/Gemini-class 3-D torus with anisotropic links.

    Gemini routers gang two link channels in the X and Z dimensions but
    only one in Y, so a Y link sustains roughly half the bandwidth of
    an X or Z link; dense patterns congest on the Y dimension first.
    ``dim_capacity`` carries those relative capacities and
    :meth:`dim_weight` feeds them into the (weighted) congestion
    accounting.  Wraparound is per dimension: full partitions close the
    torus everywhere, but small or oddly-cabled ones may leave a
    dimension open (``wrap=(True, False, True)``).
    """

    #: Gemini's relative per-dimension link capacities (X, Y, Z).
    DEFAULT_CAPACITY: Tuple[float, ...] = (1.0, 0.5, 1.0)

    def __init__(
        self,
        *dims: int,
        dim_capacity: Optional[Sequence[float]] = None,
        wrap: WrapSpec = True,
    ) -> None:
        super().__init__(dims, wraparound=wrap)
        if dim_capacity is None:
            dim_capacity = self.DEFAULT_CAPACITY[: len(self.dims)]
        capacity = tuple(float(c) for c in dim_capacity)
        if len(capacity) != len(self.dims):
            raise ValueError(
                f"dim_capacity {dim_capacity!r} has wrong rank for "
                f"dims {self.dims}"
            )
        if any(c <= 0.0 for c in capacity):
            raise ValueError(f"dim_capacity must be positive, got {capacity}")
        self.dim_capacity = capacity

    def dim_weight(self, dim: int) -> float:
        return self.dim_capacity[dim]

    def routing_key(self) -> Tuple:
        return ("gemini", self.dim_capacity, self.wrap)

    def __repr__(self) -> str:
        return f"GeminiTorus{self.dims}"
