"""Fault specifications and the seeded, deterministic fault plan.

A :class:`FaultPlan` is the single source of truth for everything that
can go wrong during a simulated communication operation:

* **link faults** — a physical link runs derated (a flaky cable at
  half speed) or is failed outright, in which case routing detours
  around it (:meth:`~repro.netsim.topology.Topology.route` with
  ``avoid``);
* **node faults** — a slow node: every memory-touching stage on that
  node runs slower by the given factor;
* **deposit faults** — the receiver's deposit engine is unavailable
  (busy, absent, fenced off); chained transfers degrade to
  buffer-packing rather than fail;
* **fragment faults** — fragments are lost or corrupted on the wire
  with the given probabilities, and the
  :class:`~repro.faults.policy.RetryPolicy` charges the recovery.

Determinism is the design center: every random decision (was fragment
7's third attempt lost?) is a pure hash of ``(seed, decision key)``,
never a stateful RNG, so the same plan replayed against any engine —
scalar oracle, vectorized fast path, traced or untraced — makes the
same decisions in the same order regardless of how callers interleave
queries.

A plan can be installed for a region of code with :func:`injecting`
(mirroring :func:`repro.trace.tracer.tracing`) or passed explicitly to
:class:`~repro.runtime.engine.CommRuntime`.  When no plan is
installed, instrumented code pays one ``ContextVar`` read — the same
zero-overhead-when-off contract the tracer keeps.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..contract import uniform
from ..core.errors import FaultError
from .policy import RetryPolicy

__all__ = [
    "LinkFault",
    "NodeFault",
    "DepositFault",
    "FragmentFault",
    "FaultPlan",
    "current_fault_plan",
    "injecting",
]


@dataclass(frozen=True)
class LinkFault:
    """One physical link misbehaving.

    Attributes:
        src / dst: Directed endpoints of the link; both ``None`` makes
            the fault global (every network stage sees the derate).
        derate: Remaining capacity fraction in ``(0, 1]``.
        failed: The link is down; routing must detour around it
            (requires concrete endpoints).
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    derate: float = 1.0
    failed: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.derate <= 1.0:
            raise FaultError(
                f"link derate must be in (0, 1], got {self.derate}"
            )
        if (self.src is None) != (self.dst is None):
            raise FaultError("a link fault needs both endpoints or neither")
        if self.failed and self.src is None:
            raise FaultError("a failed link needs concrete endpoints")


@dataclass(frozen=True)
class NodeFault:
    """One node running slow (thermal throttle, noisy neighbour)."""

    node: int
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise FaultError(
                f"node slowdown must be >= 1, got {self.slowdown}"
            )


@dataclass(frozen=True)
class DepositFault:
    """The deposit engine is unavailable on ``node`` (``None`` = all)."""

    node: Optional[int] = None


@dataclass(frozen=True)
class FragmentFault:
    """Fragments lost or corrupted on the wire.

    Attributes:
        loss: Probability a transmitted fragment vanishes (the sender
            discovers this only after the retry timeout).
        corrupt: Probability a fragment arrives damaged (detected on
            receipt; retransmitted without waiting for a timeout).
    """

    loss: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name, p in (("loss", self.loss), ("corrupt", self.corrupt)):
            if not 0.0 <= p < 1.0:
                raise FaultError(
                    f"fragment {name} probability must be in [0, 1), got {p}"
                )


def _combined(probabilities: Sequence[float]) -> float:
    """Probability that at least one independent event fires."""
    survive = 1.0
    for p in probabilities:
        survive *= 1.0 - p
    return 1.0 - survive


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible description of injected faults.

    Attributes:
        seed: Seeds every probabilistic decision; two plans with equal
            specs and seeds replay identically anywhere.
        links / nodes / deposits / fragments: The fault specs.
        retry: Recovery policy charged for fragment loss/corruption.
    """

    seed: int = 0
    links: Tuple[LinkFault, ...] = ()
    nodes: Tuple[NodeFault, ...] = ()
    deposits: Tuple[DepositFault, ...] = ()
    fragments: Tuple[FragmentFault, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        # Emptiness is queried on every runtime transfer (the faults-off
        # fast exit), so it is computed once here instead of re-walking
        # four tuples per call.
        object.__setattr__(
            self,
            "_empty",
            not (self.links or self.nodes or self.deposits or self.fragments),
        )

    # -- queries ------------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the plan injects nothing (behaviour must be nominal)."""
        return self._empty  # type: ignore[attr-defined, no-any-return]

    def deposit_available(self, node: Optional[int]) -> bool:
        """Whether ``node``'s deposit engine is usable under this plan.

        With ``node=None`` (an anonymous point-to-point transfer) only
        global deposit faults apply; per-node faults need the transfer
        to say which node receives.
        """
        for fault in self.deposits:
            if fault.node is None or fault.node == node:
                return False
        return True

    def node_slowdown(self, node: Optional[int]) -> float:
        """Combined slowdown factor for ``node`` (1.0 when healthy)."""
        if node is None:
            return 1.0
        factor = 1.0
        for fault in self.nodes:
            if fault.node == node:
                factor *= fault.slowdown
        return factor

    def link_derate(self, src: Optional[int], dst: Optional[int]) -> float:
        """Remaining capacity fraction of the ``src -> dst`` link."""
        factor = 1.0
        for fault in self.links:
            if fault.failed:
                continue
            if fault.src is None or (fault.src == src and fault.dst == dst):
                factor *= fault.derate
        return factor

    def global_link_derate(self) -> float:
        """Derate every network stage pays regardless of route."""
        factor = 1.0
        for fault in self.links:
            if fault.src is None and not fault.failed:
                factor *= fault.derate
        return factor

    def route_derate(self, links: Sequence[Any]) -> float:
        """Worst (smallest) link derate along a concrete route.

        Within one pipelined transfer the slowest link paces the wire,
        so the route's derate is the minimum over its links.
        """
        if not links:
            return self.global_link_derate()
        return min(self.link_derate(link.src, link.dst) for link in links)

    def failed_links(self) -> FrozenSet[Tuple[int, int]]:
        """Directed node pairs whose links are down."""
        return frozenset(
            (fault.src, fault.dst)
            for fault in self.links
            if fault.failed and fault.src is not None
        )

    def loss_probability(self) -> float:
        return _combined([fault.loss for fault in self.fragments])

    def corrupt_probability(self) -> float:
        return _combined([fault.corrupt for fault in self.fragments])

    def has_wire_faults(self) -> bool:
        return self.loss_probability() > 0.0 or self.corrupt_probability() > 0.0

    # -- deterministic randomness -------------------------------------------

    def uniform(self, *key: Any) -> float:
        """A reproducible uniform draw in ``[0, 1)`` for ``key``.

        A pure function of ``(seed, key)``: no RNG state, so call order
        and engine choice cannot perturb replay.
        """
        return uniform(self.seed, *key)

    def bernoulli(self, probability: float, *key: Any) -> bool:
        """Deterministic coin flip: True with ``probability`` for ``key``."""
        if probability <= 0.0:
            return False
        return self.uniform(*key) < probability

    # -- topology integration ------------------------------------------------

    def wrap_topology(self, topology: Any) -> Any:
        """A view of ``topology`` that routes around this plan's faults.

        Returns the topology unchanged when no link is failed or
        derated (so healthy plans share congestion caches with the
        no-fault path).
        """
        if not any(
            fault.failed or fault.derate < 1.0 for fault in self.links
        ):
            return topology
        from .network import FaultyTopology

        return FaultyTopology(topology, self)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "links": [
                {
                    "src": fault.src,
                    "dst": fault.dst,
                    "derate": fault.derate,
                    "failed": fault.failed,
                }
                for fault in self.links
            ],
            "nodes": [
                {"node": fault.node, "slowdown": fault.slowdown}
                for fault in self.nodes
            ],
            "deposits": [{"node": fault.node} for fault in self.deposits],
            "fragments": [
                {"loss": fault.loss, "corrupt": fault.corrupt}
                for fault in self.fragments
            ],
            "retry": self.retry.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultError(f"fault plan must be an object, got {payload!r}")
        unknown = set(payload) - {
            "seed", "links", "nodes", "deposits", "fragments", "retry",
        }
        if unknown:
            raise FaultError(
                f"unknown fault plan fields: {sorted(unknown)}"
            )
        try:
            return cls(
                seed=int(payload.get("seed", 0)),
                links=tuple(
                    LinkFault(**spec) for spec in payload.get("links", ())
                ),
                nodes=tuple(
                    NodeFault(**spec) for spec in payload.get("nodes", ())
                ),
                deposits=tuple(
                    DepositFault(**spec)
                    for spec in payload.get("deposits", ())
                ),
                fragments=tuple(
                    FragmentFault(**spec)
                    for spec in payload.get("fragments", ())
                ),
                retry=RetryPolicy.from_dict(payload.get("retry", {})),
            )
        except TypeError as exc:
            raise FaultError(f"malformed fault spec: {exc}") from exc

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--plan`` CLI input)."""
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan {path!r} is not valid JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def chaos(cls, seed: int = 7) -> "FaultPlan":
        """A default plan exercising every fault class at once.

        What ``python -m repro faults`` runs when no ``--plan`` file is
        given: the deposit engine is down everywhere (forcing the
        chained -> buffer-packing fallback), node 1 runs at 2/3 speed,
        every link is derated to 80%, and 2% of fragments are lost on
        the wire.
        """
        return cls(
            seed=seed,
            links=(LinkFault(derate=0.8),),
            nodes=(NodeFault(node=1, slowdown=1.5),),
            deposits=(DepositFault(),),
            fragments=(FragmentFault(loss=0.02),),
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def describe(self) -> List[str]:
        """One human-readable line per injected fault."""
        lines: List[str] = []
        for link in self.links:
            where = (
                "every link" if link.src is None
                else f"link {link.src}->{link.dst}"
            )
            what = "failed" if link.failed else f"derated to {link.derate:g}"
            lines.append(f"{where} {what}")
        for node in self.nodes:
            lines.append(f"node {node.node} slowed {node.slowdown:g}x")
        for deposit in self.deposits:
            where = (
                "every node" if deposit.node is None
                else f"node {deposit.node}"
            )
            lines.append(f"deposit engine unavailable on {where}")
        for fragment in self.fragments:
            parts = []
            if fragment.loss:
                parts.append(f"loss {fragment.loss:g}")
            if fragment.corrupt:
                parts.append(f"corruption {fragment.corrupt:g}")
            lines.append("fragment " + " + ".join(parts or ["(no-op)"]))
        return lines


_ACTIVE: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro_active_fault_plan", default=None
)


def current_fault_plan() -> Optional[FaultPlan]:
    """The fault plan installed for this context, or ``None`` (healthy)."""
    return _ACTIVE.get()


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the ``with`` block.

    >>> with injecting(FaultPlan(seed=1)) as plan:
    ...     assert current_fault_plan() is plan
    >>> current_fault_plan() is None
    True
    """
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)
