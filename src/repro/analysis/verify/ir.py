"""The plan IR: one graph shape for everything the verifier checks.

The verifier's passes (:mod:`repro.analysis.verify.passes`) should not
care whether a schedule came from a composition expression, a
compiler-emitted :class:`~repro.compiler.commgen.CommPlan`, a
collective step's flow list, or the runtime's staged pipelines.  This
module lowers all four into one representation:

* an :class:`IRNode` is a unit of concurrent work — a basic transfer,
  a plan operation, or a pipeline stage — carrying the resources it
  claims **exclusively** (CPU, DMA, deposit engine, co-processor) and
  the capacity resources it merely **shares** (memory, bus, network);
* an :class:`IREdge` is an ordering dependency: the source must finish
  before the destination starts.  Two nodes with no directed path
  between them *may run concurrently* — that is the whole concurrency
  model, and it is what the race pass checks claims against;
* a :class:`NodeSchedule` is the per-node sequence of blocking
  rendezvous :class:`CommAction`\\ s a plan implies under a given
  messaging discipline — what the deadlock pass simulates.

Resource claims are plain strings.  Expression lowering uses the
``role:unit`` rendering of :class:`~repro.core.resources.Resource`
(``"sender:cpu"``); plan lowering scopes claims to concrete nodes
(``"node3:deposit"``); pipeline lowering reuses the runtime's stage
resource names (``"receiver_deposit"``).  Two claims conflict exactly
when the strings are equal, so each lowering controls its own aliasing
granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...core.composition import Expr, Par, Seq, Term
from ...core.operations import CommCapabilities, DepositSupport, chained_receiver
from ...core.patterns import AccessPattern
from ..diagnostics import Span
from ..tree import compute_spans

if TYPE_CHECKING:
    from ...compiler.commgen import CommPlan
    from ...runtime.engine import _Phase

__all__ = [
    "IRNode",
    "IREdge",
    "CommAction",
    "NodeSchedule",
    "PlanIR",
    "lower_expr",
    "lower_plan",
    "lower_pipeline",
    "phase_partition",
]

#: Messaging disciplines the plan lowering can derive schedules for.
DISCIPLINES = ("interleaved", "blocking-sends")

#: Concurrency structures the plan lowering supports.
SCHEDULES = ("phased", "eager")


@dataclass(frozen=True)
class IRNode:
    """One unit of concurrently schedulable work.

    Attributes:
        node_id: Unique id within the graph (``"op3"``, ``"e0.1"``).
        kind: ``"op"`` (expression leaf or plan operation), ``"stage"``
            (pipeline stage) or ``"phase"`` (a pure ordering barrier,
            claiming nothing).
        label: Human-readable name used in diagnostics.
        exclusive: Resources this node needs to itself.
        shared: Capacity resources this node loads but may share.
        nbytes: Payload attributed to the node (0 for barriers).
        span: Source span over the root expression's notation, for
            expression-derived nodes.
    """

    node_id: str
    kind: str
    label: str
    exclusive: FrozenSet[str] = frozenset()
    shared: FrozenSet[str] = frozenset()
    nbytes: int = 0
    span: Optional[Span] = None


@dataclass(frozen=True)
class IREdge:
    """``src`` must complete before ``dst`` may start."""

    src: str
    dst: str
    kind: str = "order"


@dataclass(frozen=True)
class CommAction:
    """One blocking rendezvous action in a node's local program.

    ``tag`` identifies the message (the plan's op index), so a send
    and a receive match only when they describe the same operation.
    """

    kind: str  # "send" | "recv"
    peer: int
    tag: int

    def describe(self) -> str:
        verb = "send to" if self.kind == "send" else "recv from"
        return f"{verb} node {self.peer} (op {self.tag})"


@dataclass(frozen=True)
class NodeSchedule:
    """The ordered rendezvous actions one node executes."""

    node: int
    actions: Tuple[CommAction, ...]


@dataclass(frozen=True)
class PlanIR:
    """The common lowered form every verifier pass consumes."""

    name: str
    nodes: Tuple[IRNode, ...] = ()
    edges: Tuple[IREdge, ...] = ()
    schedules: Tuple[NodeSchedule, ...] = ()
    machine: Optional[str] = None
    notation: str = ""

    def node_by_id(self, node_id: str) -> IRNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def successors(self) -> Dict[str, Tuple[str, ...]]:
        out: Dict[str, List[str]] = {node.node_id: [] for node in self.nodes}
        for edge in self.edges:
            out[edge.src].append(edge.dst)
        return {key: tuple(value) for key, value in out.items()}

    def reachability(self) -> Dict[str, FrozenSet[str]]:
        """Transitive successor sets (a node does not reach itself)."""
        successors = self.successors()
        reach: Dict[str, FrozenSet[str]] = {}

        def visit(node_id: str) -> FrozenSet[str]:
            if node_id in reach:
                return reach[node_id]
            reach[node_id] = frozenset()  # cycle guard; graphs are DAGs
            seen: Set[str] = set()
            for succ in successors[node_id]:
                seen.add(succ)
                seen |= visit(succ)
            reach[node_id] = frozenset(seen)
            return reach[node_id]

        for node in self.nodes:
            visit(node.node_id)
        return reach

    def concurrent_claims(
        self,
    ) -> List[Tuple[str, Tuple[IRNode, ...]]]:
        """Exclusive resources claimed by two or more concurrent nodes.

        Returns ``(resource, claimants)`` pairs where every pair of
        claimants is mutually unordered — the race pass's raw material.
        Claimants sharing an ordering path are dropped: ordered nodes
        may legally reuse an engine.
        """
        reach = self.reachability()
        by_resource: Dict[str, List[IRNode]] = {}
        for node in self.nodes:
            for resource in node.exclusive:
                by_resource.setdefault(resource, []).append(node)
        conflicts: List[Tuple[str, Tuple[IRNode, ...]]] = []
        for resource in sorted(by_resource):
            claimants = by_resource[resource]
            if len(claimants) < 2:
                continue
            racy: List[IRNode] = []
            for index, node in enumerate(claimants):
                for other in claimants[index + 1:]:
                    ordered = (
                        other.node_id in reach[node.node_id]
                        or node.node_id in reach[other.node_id]
                    )
                    if not ordered:
                        if node not in racy:
                            racy.append(node)
                        if other not in racy:
                            racy.append(other)
            if len(racy) >= 2:
                conflicts.append((resource, tuple(racy)))
        return conflicts


# -- expression lowering ------------------------------------------------------


def lower_expr(
    expr: Expr,
    machine: Optional[str] = None,
    name: str = "expr",
) -> PlanIR:
    """Lower a composition expression to the plan IR.

    ``Seq`` children chain with ordering edges (every exit of part *n*
    precedes every entry of part *n+1*); ``Par`` children stay mutually
    unordered.  Leaf claims come from the transfer's resource set,
    split by exclusivity, and every node carries its notation span so
    race diagnostics can point into the source expression.
    """
    notation = expr.notation()
    spans = compute_spans(expr)
    nodes: List[IRNode] = []
    edges: List[IREdge] = []
    counter = [0]

    def emit(
        node: Expr, path: Tuple[int, ...]
    ) -> Tuple[List[str], List[str]]:
        """Return (entry ids, exit ids) of the lowered subgraph."""
        if isinstance(node, Term):
            transfer = node.transfer
            node_id = f"e{counter[0]}"
            counter[0] += 1
            nodes.append(
                IRNode(
                    node_id=node_id,
                    kind="op",
                    label=transfer.notation,
                    exclusive=frozenset(
                        str(r) for r in transfer.uses if r.is_exclusive
                    ),
                    shared=frozenset(
                        str(r) for r in transfer.uses if not r.is_exclusive
                    ),
                    span=spans.get(path),
                )
            )
            return [node_id], [node_id]
        if isinstance(node, Seq):
            entries: List[str] = []
            exits: List[str] = []
            for index, part in enumerate(node.parts):
                part_entries, part_exits = emit(part, path + (index,))
                if index == 0:
                    entries = part_entries
                else:
                    for src in exits:
                        for dst in part_entries:
                            edges.append(IREdge(src, dst))
                exits = part_exits
            return entries, exits
        if isinstance(node, Par):
            entries = []
            exits = []
            for index, part in enumerate(node.parts):
                part_entries, part_exits = emit(part, path + (index,))
                entries.extend(part_entries)
                exits.extend(part_exits)
            return entries, exits
        raise TypeError(f"cannot lower expression node {node!r}")

    emit(expr, ())
    return PlanIR(
        name=name,
        nodes=tuple(nodes),
        edges=tuple(edges),
        machine=machine,
        notation=notation,
    )


# -- plan lowering ------------------------------------------------------------


def phase_partition(
    flows: Sequence[Tuple[int, int]],
) -> List[List[int]]:
    """Greedy conflict-free phases over flow indices.

    Mirrors :func:`repro.netsim.schedule.partition_into_phases` but
    keeps *indices* (a plan may repeat a flow) — each flow lands in the
    first phase where its source is not yet sending and its
    destination not yet receiving, so every phase is a partial
    permutation: at most one send and one receive per node.
    """
    phases: List[Tuple[Set[int], Set[int], List[int]]] = []
    for index, (src, dst) in enumerate(flows):
        for sources, destinations, members in phases:
            if src not in sources and dst not in destinations:
                sources.add(src)
                destinations.add(dst)
                members.append(index)
                break
        else:
            phases.append(({src}, {dst}, [index]))
    return [members for __, ___, members in phases]


def _op_claims(
    src: int,
    dst: int,
    y: AccessPattern,
    capabilities: Optional[CommCapabilities],
    style: Optional[str],
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Per-node engine claims of one plan operation.

    Claims are scoped to concrete nodes *and* to the transfer role
    (``"node3:deposit"``, ``"node3:cpu[send]"``): two operations
    conflict only when they meet on the same engine of the same node
    doing the same kind of work.  The processor's send side and
    receive side are distinct claims because a node legally sends and
    receives at once — that duplex overlap is a *capacity* effect the
    runtime charges via the bus-interleave quirk and the duplex memory
    cap, not an exclusivity violation.  Two concurrent *sends* from
    one node (or two concurrent *receives* into one) are the real
    serialization the race pass must catch.
    """
    exclusive: Set[str] = set()
    shared = {f"node{src}:memory", f"node{dst}:memory", "network"}
    caps = capabilities
    if caps is None:
        exclusive.add(f"node{src}:cpu[send]")
        exclusive.add(f"node{dst}:cpu[recv]")
        return frozenset(exclusive), frozenset(shared)
    if style == "chained":
        exclusive.add(f"node{src}:cpu[send]")
        # The receiving engine, or the processor where there is none.
        receiver = chained_receiver(y, caps)
        exclusive.add(
            f"node{dst}:cpu[recv]" if receiver is None
            else f"node{dst}:{receiver.engine.unit.value}"
        )
        return frozenset(exclusive), frozenset(shared)
    # Buffer packing: the gather always runs on the sender's processor
    # and the scatter on the receiver's; the contiguous middle adds the
    # DMA engine (sender) and deposit engine (receiver) where present.
    exclusive.add(f"node{src}:cpu[send]")
    exclusive.add(f"node{dst}:cpu[recv]")
    if caps.dma_send:
        exclusive.add(f"node{src}:dma")
    if caps.deposit is not DepositSupport.NONE:
        exclusive.add(f"node{dst}:deposit")
    return frozenset(exclusive), frozenset(shared)


def _schedules_for(
    flows: Sequence[Tuple[int, int]],
    phases: Sequence[Sequence[int]],
    discipline: str,
) -> Tuple[NodeSchedule, ...]:
    if discipline not in DISCIPLINES:
        raise ValueError(
            f"unknown messaging discipline {discipline!r}; choose from "
            f"{DISCIPLINES}"
        )
    node_ids = sorted({endpoint for flow in flows for endpoint in flow})
    actions: Dict[int, List[CommAction]] = {node: [] for node in node_ids}
    if discipline == "interleaved":
        # One consistent global order (phase-major): every node posts
        # its actions in the order the phased schedule fires them.
        for members in phases:
            for index in members:
                src, dst = flows[index]
                actions[src].append(CommAction("send", dst, index))
                if dst != src:
                    actions[dst].append(CommAction("recv", src, index))
    else:
        # PVM-style blocking, unbuffered sends: each node posts all of
        # its sends in plan order before any receive.
        for index, (src, dst) in enumerate(flows):
            actions[src].append(CommAction("send", dst, index))
        for index, (src, dst) in enumerate(flows):
            if dst != src:
                actions[dst].append(CommAction("recv", src, index))
    return tuple(
        NodeSchedule(node, tuple(actions[node])) for node in node_ids
    )


def lower_plan(
    plan: "CommPlan",
    capabilities: Optional[CommCapabilities] = None,
    machine: Optional[str] = None,
    style: Optional[str] = None,
    schedule: str = "phased",
    discipline: str = "interleaved",
) -> PlanIR:
    """Lower a compiler-emitted communication plan to the plan IR.

    Args:
        plan: The operation list to lower.
        capabilities: Machine capabilities deciding which engines each
            operation claims (``None``: processors only).
        machine: Machine name carried into diagnostics.
        style: Operation style the claims model (``"chained"``,
            ``"buffer-packing"`` or ``None`` for packing's superset).
        schedule: ``"phased"`` runs the plan as conflict-free phases
            (at most one send and one receive per node per phase,
            separated by barriers); ``"eager"`` fires every operation
            concurrently — the naive runtime the race pass exists to
            catch.
        discipline: How each node orders its blocking sends/receives —
            ``"interleaved"`` (one consistent global order) or
            ``"blocking-sends"`` (all sends before any receive).
    """
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown plan schedule {schedule!r}; choose from {SCHEDULES}"
        )
    flows = plan.flows()
    phases = (
        phase_partition(flows)
        if schedule == "phased"
        else [list(range(len(flows)))]
    )
    nodes: List[IRNode] = []
    edges: List[IREdge] = []
    for op_index, op in enumerate(plan.ops):
        exclusive, shared = _op_claims(
            op.src, op.dst, op.y, capabilities, style
        )
        nodes.append(
            IRNode(
                node_id=f"op{op_index}",
                kind="op",
                label=(
                    f"op[{op_index}] {op.notation} "
                    f"{op.src}->{op.dst}"
                ),
                exclusive=exclusive,
                shared=shared,
                nbytes=op.nbytes,
            )
        )
    for phase_index in range(len(phases) - 1):
        barrier = f"phase{phase_index}"
        nodes.append(
            IRNode(node_id=barrier, kind="phase", label=f"barrier {phase_index}")
        )
        for index in phases[phase_index]:
            edges.append(IREdge(f"op{index}", barrier))
        for index in phases[phase_index + 1]:
            edges.append(IREdge(barrier, f"op{index}"))
    return PlanIR(
        name=plan.name,
        nodes=tuple(nodes),
        edges=tuple(edges),
        schedules=_schedules_for(flows, phases, discipline),
        machine=machine,
    )


# -- pipeline lowering --------------------------------------------------------


def lower_pipeline(
    phases: Iterable["_Phase"],
    machine: Optional[str] = None,
    name: str = "pipeline",
) -> PlanIR:
    """Lower the runtime's staged phases to the plan IR.

    Stages within a phase chain in order (stage *i* feeds stage
    *i+1*), and phases chain end to end — exactly the precedence the
    chunked :class:`~repro.runtime.stages.StagePipeline` honours.
    Stage resources that denote engines (CPU, DMA, deposit,
    co-processor) are exclusive claims; the network is shared.
    """
    nodes: List[IRNode] = []
    edges: List[IREdge] = []
    previous_exit: Optional[str] = None
    for phase in phases:
        for index, stage in enumerate(phase.stages):
            node_id = f"{phase.name}.{index}"
            is_engine = stage.resource != "network"
            nodes.append(
                IRNode(
                    node_id=node_id,
                    kind="stage",
                    label=f"{phase.name}/{stage.name}",
                    exclusive=(
                        frozenset({stage.resource}) if is_engine else frozenset()
                    ),
                    shared=(
                        frozenset() if is_engine else frozenset({stage.resource})
                    ),
                )
            )
            if previous_exit is not None:
                edges.append(IREdge(previous_exit, node_id))
            previous_exit = node_id
    return PlanIR(
        name=name, nodes=tuple(nodes), edges=tuple(edges), machine=machine
    )
