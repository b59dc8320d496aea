"""Fault-degraded topology: reroute around failures, derated congestion.

:class:`FaultyTopology` is a view of a healthy topology under a fault
plan.  Routing avoids failed links (shortest deterministic detour, via
``Topology.route(..., avoid=...)``), so :meth:`Topology.link_loads`
and :func:`repro.netsim.loadreport.link_load_report` automatically
recompute where the redirected traffic lands.  Congestion accounting
additionally weights derated links: a link at 50% capacity carrying
``L`` flows congests like a healthy link carrying ``2 L``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from ..netsim.topology import Link, Topology

if TYPE_CHECKING:
    from .spec import FaultPlan

__all__ = ["FaultyTopology", "degraded_congestion", "reroute_report"]

Flow = Tuple[int, int]


class FaultyTopology(Topology):
    """A topology as a fault plan sees it.

    Args:
        base: The healthy topology.
        plan: The fault plan supplying failed links and derates.
    """

    def __init__(self, base: Topology, plan: "FaultPlan") -> None:
        super().__init__(base.dims, base.wrap)
        self.base = base
        self.plan = plan
        self._avoid = plan.failed_links()

    def route(self, src: int, dst: int, avoid=None) -> List[Link]:
        merged = self._avoid if avoid is None else self._avoid | set(avoid)
        return super().route(src, dst, avoid=merged)

    def dim_weight(self, dim: int) -> float:
        # Anisotropic bases (GeminiTorus) keep their capacities under faults.
        return self.base.dim_weight(dim)

    def effective_load(self, link: Link, load: float) -> float:
        """Flow count scaled by the link's remaining healthy capacity."""
        derate = self.plan.link_derate(link.src, link.dst)
        weighted = load / self.link_weight(link)
        return weighted / derate if derate < 1.0 else weighted

    def max_link_congestion(self, flows: Iterable[Flow]) -> float:
        """Worst derate-weighted link load (the degraded congestion).

        Routed hop by hop: a detour around a failed link is not one arc
        per dimension ring, so the healthy grid's interval count does
        not apply.
        """
        loads = self.link_loads(flows)
        if not loads:
            return 0
        return max(
            self.effective_load(link, load) for link, load in loads.items()
        )

    def routing_key(self) -> Tuple:
        derates = tuple(
            sorted(
                (fault.src, fault.dst, fault.derate)
                for fault in self.plan.links
                if not fault.failed and fault.derate < 1.0
            )
        )
        return (
            "faulty",
            self.base.routing_key(),
            tuple(sorted(self._avoid)),
            derates,
        )

    def __repr__(self) -> str:
        return (
            f"FaultyTopology({self.base!r}, failed={len(self._avoid)}, "
            f"seed={self.plan.seed})"
        )


def degraded_congestion(
    topology: Topology,
    plan: Optional["FaultPlan"],
    flows: Iterable[Flow],
) -> float:
    """Worst-link congestion of ``flows`` under ``plan`` (``None`` = healthy)."""
    view = plan.wrap_topology(topology) if plan is not None else topology
    return float(view.max_link_congestion(flows))


def reroute_report(
    topology: Topology, plan: "FaultPlan", flows: Iterable[Flow]
) -> Dict[str, float]:
    """How much extra distance the detours cost a traffic pattern."""
    flows = list(flows)
    healthy_hops = sum(
        len(topology.route(src, dst)) for src, dst in flows if src != dst
    )
    faulty = plan.wrap_topology(topology)
    degraded_hops = sum(
        len(faulty.route(src, dst)) for src, dst in flows if src != dst
    )
    return {
        "healthy_hops": float(healthy_hops),
        "degraded_hops": float(degraded_hops),
        "detour_hops": float(degraded_hops - healthy_hops),
    }
