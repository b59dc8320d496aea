"""Collective communication steps over a node partition.

The paper's application measurements (Section 6, Table 6) report
"MB/s per node" for a whole communication step — every node sending
and receiving simultaneously under the pattern's network congestion.
:class:`CommunicationStep` drives the point-to-point runtime with:

* the congestion the traffic pattern produces on the machine's
  topology (or the scheduled value for patterns like AAPC, which the
  T3D can run near the port-sharing floor per Hinrichs et al. [8]);
* duplex contention at each node (everyone sends and receives);
* the per-destination message size, so library per-message overheads
  scale with the number of peers, not with the data volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.operations import OperationStyle
from ..core.patterns import AccessPattern
from ..faults.degrade import DegradedResult
from ..faults.spec import FaultPlan, current_fault_plan
from ..netsim.schedule import scheduled_congestions
from ..trace.tracer import current_tracer
from .engine import CommRuntime, MeasuredTransfer, _emit

__all__ = ["StepResult", "CommunicationStep", "sign_patterns"]

Flow = Tuple[int, int]

#: What a step's price depends on once the runtime, patterns, style,
#: fault plan and tracer are fixed: ``(bytes_per_flow, congestion,
#: messages_per_node, src, dst)``, the endpoints being the sample flow
#: under a fault plan and ``None`` otherwise.
Signature = Tuple[int, float, int, Optional[int], Optional[int]]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one collective communication step.

    Attributes:
        per_node_mbps: Payload throughput per node — the Table 6 metric.
        step_ns: Wall-clock time of the whole step.
        congestion: The network congestion used.
        messages_per_node: How many peer messages each node handled.
        bytes_per_node: Payload each node sent.
        sample: The underlying point-to-point measurement.
    """

    per_node_mbps: float
    step_ns: float
    congestion: float
    messages_per_node: int
    bytes_per_node: int
    sample: MeasuredTransfer

    @property
    def degraded(self) -> Optional[DegradedResult]:
        """The sample transfer's degradation record, if any."""
        return self.sample.degraded

    @property
    def retries(self) -> int:
        """Retransmissions the sample transfer paid for."""
        return self.sample.retries


class CommunicationStep:
    """A pattern of simultaneous transfers across a partition.

    Args:
        runtime: The point-to-point runtime to drive.
        flows: The (src, dst) traffic pattern.
        x / y: Access patterns of each transfer's source and
            destination sides.
        bytes_per_flow: Payload per (src, dst) pair.
        scheduled: If True, assume the step is phase-scheduled to avoid
            link contention (complete exchanges on T3D tori can be,
            per the paper); congestion then falls to the machine's
            access-point floor instead of the raw worst-link load.
    """

    def __init__(
        self,
        runtime: CommRuntime,
        flows: Sequence[Flow],
        x: AccessPattern,
        y: AccessPattern,
        bytes_per_flow: int,
        scheduled: bool = True,
        schedule_slack: float = 1.0,
        sync_per_message_ns: float = 20_000.0,
    ) -> None:
        if not flows:
            raise ValueError("a communication step needs at least one flow")
        if schedule_slack < 1.0:
            raise ValueError("schedule_slack cannot beat a perfect schedule")
        self.runtime = runtime
        self.flows = list(flows)
        self.x = x
        self.y = y
        self.bytes_per_flow = bytes_per_flow
        self.scheduled = scheduled
        self.schedule_slack = schedule_slack
        self.sync_per_message_ns = sync_per_message_ns

    def _fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan governing this step (:func:`fault_plan`)."""
        return fault_plan(self.runtime)

    def _sample_flow(self, plan: Optional[FaultPlan]) -> Flow:
        """The flow that paces the step under ``plan``
        (:func:`_sample_flow`)."""
        return _sample_flow(plan, self.flows)

    def signature(
        self, plan: Optional[FaultPlan], pattern: Optional[int] = None
    ) -> Signature:
        """What this step's price depends on under ``plan``.

        With the runtime, the access patterns, the style, the fault
        plan and the tracer fixed, two steps with equal signatures
        price identically (fault draws are keyed on the sample flow's
        endpoints, not on call order), so a collective prices each
        distinct signature once.

        Everything but the payload is a fact of the flow pattern, kept
        on the runtime: a pattern priced at several payloads, or in
        several collectives, is scanned once.  ``pattern`` is the
        runtime's id for this step's flows
        (:meth:`~repro.runtime.engine.CommRuntime._pattern`), when the
        caller has it already.
        """
        if pattern is None:
            pattern = self.runtime._pattern(tuple(self.flows))
        key = (pattern, plan, self.scheduled, self.schedule_slack)
        facts = self.runtime._flow_facts.get(key)
        if facts is None:
            sign_patterns(
                self.runtime,
                plan,
                ((pattern, self.flows),),
                self.scheduled,
                self.schedule_slack,
            )
            facts = self.runtime._flow_facts[key]
        return (self.bytes_per_flow,) + facts

    def price(self, style: OperationStyle, signature: Signature) -> StepResult:
        """Measure the sample transfer and cost the step from it."""
        nbytes, congestion, messages, src, dst = signature
        sample = self.runtime.transfer(
            self.x,
            self.y,
            nbytes,
            style=style,
            congestion=congestion,
            duplex=True,
            src=src,
            dst=dst,
        )
        # The first message pays full end-to-end latency; subsequent
        # messages pipeline behind it at the steady-state cost: the
        # node's bottleneck resource plus a synchronization cost
        # (partner switch, flow-control handshake) that cannot be
        # pipelined away.
        steady_ns = self._steady_ns(sample)
        step_ns = sample.ns + self.sync_per_message_ns + (messages - 1) * steady_ns
        bytes_per_node = nbytes * messages
        return StepResult(
            per_node_mbps=bytes_per_node / step_ns * 1000.0,
            step_ns=step_ns,
            congestion=congestion,
            messages_per_node=messages,
            bytes_per_node=bytes_per_node,
            sample=sample,
        )

    def _steady_ns(self, sample: MeasuredTransfer) -> float:
        efficiency = self.runtime.machine.quirks.runtime_efficiency
        return sample.bottleneck_busy_ns() / efficiency + self.sync_per_message_ns

    def emit(self, result: StepResult, replay: bool = False) -> None:
        """Trace ``result``: the step's only tracing.

        ``replay`` re-emits a step priced earlier in the same
        collective: its sample transfer's ledger first, exactly as the
        runtime wrote it when the transfer ran, then the step's own
        counters and spans.
        """
        tracer = current_tracer()
        if tracer is None:
            return
        sample = result.sample
        if replay:
            _emit(tracer, sample.ledger)
        messages = result.messages_per_node
        tracer.count("step.runs")
        tracer.count("step.messages_per_node", messages)
        if sample.degraded is not None:
            tracer.count("step.degraded")
        tracer.span(
            "first-message",
            track="step",
            start_ns=0.0,
            duration_ns=sample.ns,
            category="step",
            nbytes=sample.nbytes,
            congestion=result.congestion,
        )
        tracer.span(
            "sync",
            track="step",
            start_ns=sample.ns,
            duration_ns=self.sync_per_message_ns,
            category="step",
        )
        if messages > 1:
            steady_ns = self._steady_ns(sample)
            tracer.span(
                "steady-state",
                track="step",
                start_ns=sample.ns + self.sync_per_message_ns,
                duration_ns=(messages - 1) * steady_ns,
                category="step",
                messages=messages - 1,
                steady_ns_per_message=steady_ns,
            )

    def run(self, style: OperationStyle = OperationStyle.CHAINED) -> StepResult:
        """Execute the step and report per-node throughput."""
        result = self.price(style, self.signature(self._fault_plan()))
        self.emit(result)
        return result


def fault_plan(runtime: CommRuntime) -> Optional[FaultPlan]:
    """The fault plan governing ``runtime``'s steps, ``None`` when healthy.

    Mirrors :meth:`CommRuntime.transfer`'s fast exit: an explicit
    runtime plan (even an empty one) shadows the context plan, and
    emptiness — precomputed on the plan — resolves to ``None`` here
    so no per-flow fault bookkeeping runs under a no-op plan.
    """
    if runtime.faults is not None:
        return runtime._standing_plan
    plan = current_fault_plan()
    if plan is not None and plan.is_empty():
        return None
    return plan


def _sample_flow(plan: Optional[FaultPlan], flows: Sequence[Flow]) -> Flow:
    """The flow that paces a step of ``flows`` under ``plan``.

    A collective step finishes when its slowest participant does,
    so the representative point-to-point sample is taken between
    the endpoints the plan hurts most (largest combined slowdown;
    first such flow in pattern order for determinism).
    """
    if plan is None:
        return flows[0]
    return max(
        flows,
        key=lambda flow: (
            plan.node_slowdown(flow[0]) * plan.node_slowdown(flow[1]),
            not plan.deposit_available(flow[1]),
        ),
    )


def _messages_per_node(flows: Iterable[Flow]) -> int:
    """Messages the most-loaded node handles during a step of ``flows``.

    A duplex node overlaps one send with one receive, so the
    number of message slots a node serializes through is
    ``max(sends, receives)`` — *not* its send count alone.
    Counting only the send side undercounts fan-in patterns
    (N senders, one receiver: the hot node receives N messages but
    sends none) and overstates the hot node's throughput.
    """
    sends: Dict[int, int] = {}
    receives: Dict[int, int] = {}
    busiest = 0
    for src, dst in flows:
        sent = sends[src] = sends.get(src, 0) + 1
        received = receives[dst] = receives.get(dst, 0) + 1
        if sent > busiest:
            busiest = sent
        if received > busiest:
            busiest = received
    return busiest


def _congestions(
    runtime: CommRuntime,
    plan: Optional[FaultPlan],
    scheduled: bool,
    schedule_slack: float,
    patterns: Sequence[Sequence[Flow]],
) -> List[float]:
    """The congestion of a step of each pattern, in order.

    Scheduled steps phase-schedule their pattern (shift schedule for
    complete exchanges, greedy otherwise) on the partition its nodes
    span and take the worst per-phase link load, with the
    access-point sharing floor; the patterns of one partition size
    are scored in one batch.  Unscheduled steps take the raw
    worst-link load on the machine's topology.
    """
    machine = runtime.machine
    if not scheduled:
        model = machine.network_model()
        if plan is not None:
            # Failed links reroute the pattern's flows and derated ones
            # weight their load; both lift the worst-link congestion.
            model.topology = plan.wrap_topology(model.topology)
        return [model.congestion_for(flows) for flows in patterns]
    by_size: Dict[int, List[int]] = {}
    for index, flows in enumerate(patterns):
        size = max(chain.from_iterable(flows)) + 1
        by_size.setdefault(size, []).append(index)
    floor = max(1, machine.network.port_sharing)
    congestions = [0.0] * len(patterns)
    for size, members in by_size.items():
        topology = machine.topology(size)
        if plan is not None:
            topology = plan.wrap_topology(topology)
        per_phase = scheduled_congestions(
            topology, [patterns[index] for index in members]
        )
        for index, worst in zip(members, per_phase):
            congestions[index] = float(max(worst, floor)) * schedule_slack
    return congestions


def sign_patterns(
    runtime: CommRuntime,
    plan: Optional[FaultPlan],
    patterns: Iterable[Tuple[int, Sequence[Flow]]],
    scheduled: bool = True,
    schedule_slack: float = 1.0,
) -> None:
    """Keep the flow facts of every pattern ``runtime`` lacks.

    ``patterns`` are ``(id, flows)`` pairs, the id being the runtime's
    (:meth:`~repro.runtime.engine.CommRuntime._pattern`).  A step's
    facts are its congestion, the messages its busiest node handles
    and, under a fault plan, its sample flow's endpoints.  The
    congestions of all the missing patterns are counted together, so
    a collective that signs its distinct rounds at once pays each
    NumPy pass once, not once per round.
    """
    facts = runtime._flow_facts
    missing: Dict[Tuple, Sequence[Flow]] = {}
    for pattern, flows in patterns:
        key = (pattern, plan, scheduled, schedule_slack)
        if key not in facts:
            missing[key] = flows
    if not missing:
        return
    congestions = _congestions(
        runtime, plan, scheduled, schedule_slack, list(missing.values())
    )
    for (key, flows), congestion in zip(missing.items(), congestions):
        src: Optional[int] = None
        dst: Optional[int] = None
        if plan is not None:
            src, dst = _sample_flow(plan, flows)
        facts[key] = (congestion, _messages_per_node(flows), src, dst)
