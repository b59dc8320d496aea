"""Collective operations composed from communication-step rounds.

The paper prices a *single* communication step (Section 6); real
applications run collectives — broadcast, allreduce, alltoall — which
are just sequences of such steps.  Each algorithm here lowers to a
tuple of :class:`CollectiveRound` objects (a flow pattern plus a
per-flow payload), every round is priced as a
:class:`~repro.runtime.collective.CommunicationStep` (each distinct
round once per runtime), and the collective's cost is the sum of its
rounds — which is exactly why the
model-driven selector (:func:`repro.compiler.advisor.choose_algorithm`)
can rank algorithms per (machine, size) regime the way PAPERS.md
"Prédiction de Performances pour les Communications Collectives"
does: few-round algorithms win while per-round latency dominates,
few-byte algorithms win once bandwidth does.

Algorithms (per op):

* ``broadcast`` — **binomial-tree** (ceil(log2 n) rounds, full payload
  per flow) and **ring** (a pipelined scatter + allgather: 2(n-1)
  neighbour rounds of n-th payloads);
* ``allreduce`` — **recursive-doubling** (pairwise exchanges at
  doubling distances; non-power-of-two sizes fold the excess nodes in
  with one extra round each way) and **ring** (reduce-scatter +
  allgather, 2(n-1) neighbour rounds of n-th payloads);
* ``alltoall`` — **pairwise-exchange** (n-1 permutation rounds of
  n-th payloads; XOR pairing on power-of-two sizes, shifted otherwise)
  and **bruck** (ceil(log2 n) rounds of half payloads).

On hierarchical machines (:class:`~repro.machines.cluster.ClusterMachine`)
the collective runs hierarchy-aware by default: each node's cores fold
their data into a leader through the shared-memory copy rung, leaders
run the inter-node rounds with an uncontended NIC, then results fan
back out intra-node.  A flat run instead charges every round the
node's NIC contention factor (all k cores pushing the one NIC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import ModelError
from ..core.operations import OperationStyle
from ..core.patterns import AccessPattern
from ..faults.spec import FaultPlan
from ..machines.cluster import ClusterMachine
from .collective import CommunicationStep, Signature, StepResult
from .engine import CommRuntime

__all__ = [
    "COLLECTIVE_OPS",
    "ALGORITHMS",
    "CollectiveRound",
    "CollectiveResult",
    "collective_rounds",
    "run_collective",
]

Flow = Tuple[int, int]

#: The supported collective operations.
COLLECTIVE_OPS: Tuple[str, ...] = ("broadcast", "allreduce", "alltoall")

#: Valid algorithms per op, few-round family first.
ALGORITHMS = {
    "broadcast": ("binomial-tree", "ring"),
    "allreduce": ("recursive-doubling", "ring"),
    "alltoall": ("pairwise-exchange", "bruck"),
}


@dataclass(frozen=True)
class CollectiveRound:
    """One synchronous round of a collective: a pattern and a payload."""

    flows: Tuple[Flow, ...]
    bytes_per_flow: int


@dataclass(frozen=True)
class CollectiveResult:
    """Outcome of one collective run.

    ``total_ns`` is *exactly* ``intra_gather_ns + sum(round_ns) +
    intra_scatter_ns`` — the phase-sum invariant the ``trace``
    subcommand asserts.  ``round_ns`` carries the per-round times
    actually charged (after NIC contention on flat hierarchical runs),
    while ``rounds`` keeps the raw step results for inspection.
    """

    op: str
    algorithm: str
    nodes: int
    nbytes: int
    total_ns: float
    per_node_mbps: float
    round_ns: Tuple[float, ...]
    rounds: Tuple[StepResult, ...]
    hierarchical: bool = False
    intra_gather_ns: float = 0.0
    intra_scatter_ns: float = 0.0
    nic_contention: float = 1.0


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ring_flows(n: int) -> Tuple[Flow, ...]:
    return tuple((i, (i + 1) % n) for i in range(n))


def _binomial_tree(n: int, nbytes: int) -> Tuple[CollectiveRound, ...]:
    rounds = []
    distance = 1
    while distance < n:
        flows = tuple(
            (i, i + distance) for i in range(distance) if i + distance < n
        )
        rounds.append(CollectiveRound(flows, nbytes))
        distance *= 2
    return tuple(rounds)


def _ring(n: int, nbytes: int) -> Tuple[CollectiveRound, ...]:
    # Scatter (or reduce-scatter) then allgather: each of the 2(n-1)
    # neighbour rounds moves one n-th of the payload.
    chunk = max(1, _ceil_div(nbytes, n))
    flows = _ring_flows(n)
    return tuple(CollectiveRound(flows, chunk) for _ in range(2 * (n - 1)))


def _recursive_doubling(n: int, nbytes: int) -> Tuple[CollectiveRound, ...]:
    power = 1 << (n.bit_length() - 1)
    if power == n:
        prefix: Tuple[CollectiveRound, ...] = ()
        suffix: Tuple[CollectiveRound, ...] = ()
    else:
        # Fold the excess nodes into partners, run the power-of-two
        # exchange, then send the result back out.
        excess = n - power
        fold = tuple((power + j, j) for j in range(excess))
        unfold = tuple((j, power + j) for j in range(excess))
        prefix = (CollectiveRound(fold, nbytes),)
        suffix = (CollectiveRound(unfold, nbytes),)
    rounds = []
    distance = 1
    while distance < power:
        flows = tuple((i, i ^ distance) for i in range(power))
        rounds.append(CollectiveRound(flows, nbytes))
        distance *= 2
    return prefix + tuple(rounds) + suffix


def _pairwise_exchange(n: int, nbytes: int) -> Tuple[CollectiveRound, ...]:
    chunk = max(1, _ceil_div(nbytes, n))
    power_of_two = n & (n - 1) == 0
    rounds = []
    for k in range(1, n):
        if power_of_two:
            flows = tuple((i, i ^ k) for i in range(n))
        else:
            flows = tuple((i, (i + k) % n) for i in range(n))
        rounds.append(CollectiveRound(flows, chunk))
    return tuple(rounds)


def _bruck(n: int, nbytes: int) -> Tuple[CollectiveRound, ...]:
    # Each of the ceil(log2 n) rounds rotates roughly half of every
    # node's buffer to a power-of-two distance.
    chunk = max(1, _ceil_div(nbytes, 2))
    rounds = []
    distance = 1
    while distance < n:
        flows = tuple((i, (i + distance) % n) for i in range(n))
        rounds.append(CollectiveRound(flows, chunk))
        distance *= 2
    return tuple(rounds)


_BUILDERS = {
    ("broadcast", "binomial-tree"): _binomial_tree,
    ("broadcast", "ring"): _ring,
    ("allreduce", "recursive-doubling"): _recursive_doubling,
    ("allreduce", "ring"): _ring,
    ("alltoall", "pairwise-exchange"): _pairwise_exchange,
    ("alltoall", "bruck"): _bruck,
}


def collective_rounds(
    op: str, algorithm: str, nodes: int, nbytes: int
) -> Tuple[CollectiveRound, ...]:
    """Lower one collective to its round sequence.

    Args:
        op: One of :data:`COLLECTIVE_OPS`.
        algorithm: One of :data:`ALGORITHMS`\\ ``[op]``.
        nodes: Participating nodes (>= 2).
        nbytes: Per-node payload in bytes (> 0).
    """
    if op not in ALGORITHMS:
        raise ModelError(
            f"unknown collective {op!r}; choose from {sorted(ALGORITHMS)}"
        )
    if algorithm not in ALGORITHMS[op]:
        raise ModelError(
            f"unknown {op} algorithm {algorithm!r}; choose from "
            f"{list(ALGORITHMS[op])}"
        )
    if nodes < 2:
        raise ModelError(f"a collective needs >= 2 nodes, got {nodes}")
    if nbytes <= 0:
        raise ModelError(f"a collective needs nbytes > 0, got {nbytes}")
    return _BUILDERS[(op, algorithm)](nodes, nbytes)


def run_collective(
    runtime: CommRuntime,
    op: str,
    algorithm: str,
    nodes: int,
    nbytes: int,
    x: str = "1",
    y: str = "1",
    style: OperationStyle = OperationStyle.CHAINED,
    hierarchical: Optional[bool] = None,
) -> CollectiveResult:
    """Run one collective round by round and sum its cost.

    Args:
        runtime: The point-to-point runtime to drive (its machine
            decides hierarchy behaviour).
        hierarchical: Force hierarchy-aware (True) or flat (False)
            execution on cluster machines; ``None`` picks hierarchical
            whenever the machine has more than one core per node.
            Non-cluster machines ignore it.
    """
    # The lowering is a pure function of its arguments, kept on the
    # runtime beside the flow facts it feeds (the argument types too:
    # a float payload lowers to float chunks), with each round's key:
    # its flow pattern's id and its payload.  Invalid arguments raise
    # before anything is kept, so they raise on every call.
    lowering = (op, algorithm, nodes, nbytes, type(nodes), type(nbytes))
    lowered = runtime._lowerings.get(lowering)
    if lowered is None:
        built = collective_rounds(op, algorithm, nodes, nbytes)
        lowered = runtime._lowerings[lowering] = (
            built,
            tuple(
                (runtime._pattern(each.flows), each.bytes_per_flow)
                for each in built
            ),
        )
    rounds, round_keys = lowered
    read = AccessPattern.parse(x)
    write = AccessPattern.parse(y)
    machine = runtime.machine
    cores = getattr(machine, "cores_per_node", 1)
    if not isinstance(machine, ClusterMachine):
        hierarchical = False
    elif hierarchical is None:
        hierarchical = cores > 1

    intra_gather_ns = 0.0
    intra_scatter_ns = 0.0
    contention = 1.0
    if isinstance(machine, ClusterMachine) and cores > 1:
        if hierarchical:
            # Cores fold into the node leader through shared memory,
            # leaders talk, results fan back out — two copy phases of
            # (k-1) payloads each through the intra-node rung.
            intra_gather_ns = (cores - 1) * machine.intra_node_ns(nbytes)
            intra_scatter_ns = (cores - 1) * machine.intra_node_ns(nbytes)
        else:
            # Flat: every core pushes the shared NIC at once, so every
            # inter-node round divides the NIC between them.
            contention = machine.nic_contention(cores)

    # The round memo.  Within this call the runtime, patterns, style,
    # fault plan and tracer are fixed, so a round's price depends only
    # on its step's signature: each distinct round (by its key) is
    # signed once, each distinct signature priced once, and a repeat
    # replays the priced round (its trace included).  The memo dies
    # with the call; the flow facts and transfers behind a price are
    # kept on the runtime, so a later call prices a round it has seen
    # without re-running it.
    plan: Optional[FaultPlan] = None
    signatures: Dict[Tuple[int, int], Signature] = {}
    priced: Dict[Signature, Tuple[CommunicationStep, StepResult]] = {}
    results = []
    round_ns = []
    for current, round_key in zip(rounds, round_keys):
        signature = signatures.get(round_key)
        replay = True
        if signature is None:
            step = CommunicationStep(
                runtime,
                current.flows,
                read,
                write,
                current.bytes_per_flow,
            )
            if not signatures:
                # The first round resolves the call's fault plan.
                plan = step._fault_plan()
            signature = signatures[round_key] = step.signature(
                plan, pattern=round_key[0]
            )
            if signature not in priced:
                priced[signature] = (step, step.price(style, signature))
                replay = False
        step, result = priced[signature]
        step.emit(result, replay)
        results.append(result)
        round_ns.append(result.step_ns * contention)

    total_ns = intra_gather_ns + math.fsum(round_ns) + intra_scatter_ns
    return CollectiveResult(
        op=op,
        algorithm=algorithm,
        nodes=nodes,
        nbytes=nbytes,
        total_ns=total_ns,
        per_node_mbps=nbytes / total_ns * 1000.0,
        round_ns=tuple(round_ns),
        rounds=tuple(results),
        hierarchical=bool(hierarchical),
        intra_gather_ns=intra_gather_ns,
        intra_scatter_ns=intra_scatter_ns,
        nic_contention=contention,
    )
