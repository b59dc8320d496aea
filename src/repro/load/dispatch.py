"""Dispatch policies: which destination node serves a request.

A policy sees the request's identity and the current per-node backlog
and picks the destination node.  The source node is fixed per
generator (a pure hash of the generator's *name*), so a policy routes
work, not senders.  Every policy is deterministic:

* ``round-robin`` — cycle destinations in dispatch order (the event
  loop's order, which is itself canonical), skipping the source;
* ``least-loaded`` — the node with the smallest total station backlog,
  lowest node id on ties, skipping the source;
* ``affinity`` — a pure hash of ``(generator, client/template)`` so a
  client's requests always land on the same node (cache-warm
  dispatch), independent of everything else in flight.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..contract import draws
from ..core.errors import ModelError

__all__ = ["DispatchPolicy", "policy_by_name", "POLICIES"]


class DispatchPolicy:
    """Base: pick a destination node for a request.

    Args:
        nodes: Partition size; destinations are ``0..nodes-1``.
        seed: Profile seed (affinity hashing).
    """

    name = "base"

    def __init__(self, nodes: int, seed: int) -> None:
        self.nodes = nodes
        self.seed = seed

    def pick(
        self,
        src: int,
        generator: str,
        client: int,
        template: str,
        backlog: Sequence[int],
    ) -> int:
        raise NotImplementedError

    def _skip_src(self, node: int, src: int) -> int:
        """Bump ``node`` off ``src`` (a node does not message itself)."""
        if node != src:
            return node
        return (node + 1) % self.nodes


class RoundRobin(DispatchPolicy):
    """Cycle through destinations in dispatch order."""

    name = "round-robin"

    def __init__(self, nodes: int, seed: int) -> None:
        super().__init__(nodes, seed)
        self._next = 0

    def pick(self, src, generator, client, template, backlog) -> int:
        node = self._next % self.nodes
        self._next += 1
        return self._skip_src(node, src)


class LeastLoaded(DispatchPolicy):
    """The destination with the smallest station backlog right now."""

    name = "least-loaded"

    def pick(self, src, generator, client, template, backlog) -> int:
        best = None
        best_load = None
        for node, load in enumerate(backlog):
            if node == src:
                continue
            if best_load is None or load < best_load:
                best, best_load = node, load
        assert best is not None  # nodes >= 2, so one candidate exists
        return best


class Affinity(DispatchPolicy):
    """Sticky per-client destination via a pure hash."""

    name = "affinity"

    def __init__(self, nodes: int, seed: int) -> None:
        super().__init__(nodes, seed)
        self._draw = draws(seed, "affinity")

    def pick(self, src, generator, client, template, backlog) -> int:
        draw = self._draw(generator, client, template)
        return self._skip_src(int(draw * self.nodes) % self.nodes, src)


POLICIES: Dict[str, Callable[[int, int], DispatchPolicy]] = {
    "round-robin": RoundRobin,
    "least-loaded": LeastLoaded,
    "affinity": Affinity,
}


def policy_by_name(name: str, nodes: int, seed: int) -> DispatchPolicy:
    """Instantiate a dispatch policy; :class:`ModelError` if unknown."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ModelError(
            f"unknown dispatch policy {name!r}; "
            f"choose from {sorted(POLICIES)}"
        )
    return factory(nodes, seed)
