"""Executing a whole communication plan as one step.

:class:`CommunicationStep` runs a *uniform* step — every node sends
the same message shape, which fits transposes and ghost exchanges.
Real irregular plans (FEM halos) mix message sizes and patterns, and
the step ends when the most loaded node finishes.  :class:`PlanStep`
measures exactly that:

* each distinct (x, y, size-bucket) shape is measured once through the
  point-to-point runtime (under the step's scheduled congestion and
  duplex contention);
* each node's cost is the sum of its messages' steady-state costs (its
  processor is the serializing resource) plus per-message
  synchronization;
* the step time is the slowest node's cost plus one pipeline fill.

The per-node throughput metric matches Table 6's "MB/s per node":
the slowest node's payload over the step time.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..compiler.commgen import CommPlan
from ..core.operations import OperationStyle
from .collective import StepResult
from .engine import CommRuntime, MeasuredTransfer

__all__ = ["PlanStep"]


def _size_bucket(nbytes: int) -> int:
    """Round message sizes to 2x buckets so shape sampling stays small."""
    bucket = 64
    while bucket < nbytes:
        bucket *= 2
    return bucket


class PlanStep:
    """Measure an arbitrary communication plan end to end.

    Args:
        runtime: The point-to-point runtime to drive.
        plan: The communication plan (ops need patterns and sizes only).
        scheduled: Phase-schedule the pattern for congestion purposes.
        schedule_slack: Multiplier on the scheduled congestion.
        sync_per_message_ns: Non-pipelinable per-message cost.
    """

    def __init__(
        self,
        runtime: CommRuntime,
        plan: CommPlan,
        scheduled: bool = True,
        schedule_slack: float = 1.0,
        sync_per_message_ns: float = 20_000.0,
    ) -> None:
        if not plan.ops:
            raise ValueError(f"plan {plan.name!r} is empty")
        self.runtime = runtime
        self.plan = plan
        self.scheduled = scheduled
        self.schedule_slack = schedule_slack
        self.sync_per_message_ns = sync_per_message_ns

    # -- congestion ---------------------------------------------------------

    def congestion(self) -> float:
        machine = self.runtime.machine
        flows = self.plan.flows()
        n_nodes = max(max(flow) for flow in flows) + 1
        model = machine.network_model(n_nodes)
        if not self.scheduled:
            return model.congestion_for(flows)
        from ..netsim.schedule import scheduled_congestion

        per_phase = scheduled_congestion(machine.topology(n_nodes), flows)
        floor = max(1, machine.network.port_sharing)
        return float(max(per_phase, floor)) * self.schedule_slack

    # -- execution ------------------------------------------------------------

    def _sample_shapes(
        self, style: OperationStyle, congestion: float
    ) -> Dict[Tuple, MeasuredTransfer]:
        samples: Dict[Tuple, MeasuredTransfer] = {}
        for op in self.plan.ops:
            key = (op.x, op.y, _size_bucket(op.nbytes))
            if key not in samples:
                samples[key] = self.runtime.transfer(
                    op.x,
                    op.y,
                    key[2],
                    style=style,
                    congestion=congestion,
                    duplex=True,
                )
        return samples

    def _steady_ns(self, sample: MeasuredTransfer, nbytes: int) -> float:
        """Steady-state cost of one message of ``nbytes``.

        Scales the sampled bucket's bottleneck-resource busy time
        (:meth:`MeasuredTransfer.bottleneck_busy_ns`, as in
        :class:`CommunicationStep`) to the actual size: costs are
        near-linear within a 2x bucket.
        """
        scaled = sample.bottleneck_busy_ns() * (nbytes / sample.nbytes)
        efficiency = self.runtime.machine.quirks.runtime_efficiency
        return scaled / efficiency + self.sync_per_message_ns

    def run(self, style: OperationStyle = OperationStyle.CHAINED) -> StepResult:
        congestion = self.congestion()
        samples = self._sample_shapes(style, congestion)

        node_ns: Dict[int, float] = {}
        node_bytes: Dict[int, int] = {}
        node_messages: Dict[int, int] = {}
        for op in self.plan.ops:
            sample = samples[(op.x, op.y, _size_bucket(op.nbytes))]
            cost = self._steady_ns(sample, op.nbytes)
            node_ns[op.src] = node_ns.get(op.src, 0.0) + cost
            node_bytes[op.src] = node_bytes.get(op.src, 0) + op.nbytes
            node_messages[op.src] = node_messages.get(op.src, 0) + 1

        slowest = max(node_ns, key=node_ns.get)
        # One pipeline fill: the first message's full latency beyond its
        # steady-state share.
        first_op = self.plan.messages_from(slowest)[0]
        first_sample = samples[(first_op.x, first_op.y, _size_bucket(first_op.nbytes))]
        fill_ns = max(
            0.0,
            first_sample.ns - self._steady_ns(first_sample, first_sample.nbytes),
        )
        step_ns = node_ns[slowest] + fill_ns

        return StepResult(
            per_node_mbps=node_bytes[slowest] / step_ns * 1000.0,
            step_ns=step_ns,
            congestion=congestion,
            messages_per_node=node_messages[slowest],
            bytes_per_node=node_bytes[slowest],
            sample=first_sample,
        )
