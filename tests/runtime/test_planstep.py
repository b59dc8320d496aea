"""Tests for full-plan execution (repro.runtime.planstep)."""

import pytest

from repro.compiler.commgen import CommOp, CommPlan
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, INDEXED, strided
from repro.runtime.engine import CommRuntime
from repro.runtime.libraries import lowlevel_profile
from repro.runtime.planstep import PlanStep, _size_bucket


@pytest.fixture(scope="module")
def runtime(t3d_machine):
    return CommRuntime(t3d_machine, library=lowlevel_profile())


def uniform_plan(n_nodes=8, nwords=1024):
    ops = [
        CommOp(src, dst, CONTIGUOUS, strided(64), nwords)
        for src in range(n_nodes)
        for dst in range(n_nodes)
        if src != dst
    ]
    return CommPlan(ops, name="uniform")


def mixed_plan():
    """An FEM-like plan: varied sizes and patterns, unequal node loads."""
    ops = [
        CommOp(0, 1, INDEXED, INDEXED, 300),
        CommOp(1, 0, INDEXED, INDEXED, 280),
        CommOp(1, 2, INDEXED, INDEXED, 700),
        CommOp(2, 1, INDEXED, INDEXED, 680),
        CommOp(2, 3, CONTIGUOUS, CONTIGUOUS, 64),
        CommOp(3, 2, CONTIGUOUS, CONTIGUOUS, 64),
        CommOp(1, 3, INDEXED, INDEXED, 900),
    ]
    return CommPlan(ops, name="mixed")


class TestSizeBuckets:
    def test_powers_of_two(self):
        assert _size_bucket(64) == 64
        assert _size_bucket(65) == 128
        assert _size_bucket(8192) == 8192
        assert _size_bucket(8193) == 16384

    def test_small_sizes_floor(self):
        assert _size_bucket(1) == 64


class TestPlanStep:
    def test_empty_plan_rejected(self, runtime):
        with pytest.raises(ValueError):
            PlanStep(runtime, CommPlan([], name="empty"))

    def test_uniform_plan_matches_collective_step(self, runtime):
        """On a uniform plan, PlanStep and CommunicationStep agree."""
        from repro.runtime.collective import CommunicationStep

        plan = uniform_plan()
        dominant = plan.dominant_op()
        plan_result = PlanStep(runtime, plan).run(OperationStyle.CHAINED)
        step_result = CommunicationStep(
            runtime, plan.flows(), dominant.x, dominant.y, dominant.nbytes
        ).run(OperationStyle.CHAINED)
        assert plan_result.per_node_mbps == pytest.approx(
            step_result.per_node_mbps, rel=0.30
        )
        assert plan_result.congestion == step_result.congestion

    def test_slowest_node_determines_step(self, runtime):
        result = PlanStep(runtime, mixed_plan()).run(OperationStyle.CHAINED)
        # Node 1 sends the most bytes (280+700+900 words).
        assert result.messages_per_node == 3
        assert result.bytes_per_node == (280 + 700 + 900) * 8

    def test_styles_ranked_on_mixed_plan(self, t3d_machine):
        from repro.runtime.libraries import packing_profile

        chained = PlanStep(
            CommRuntime(t3d_machine, library=lowlevel_profile()), mixed_plan()
        ).run(OperationStyle.CHAINED)
        packing = PlanStep(
            CommRuntime(t3d_machine, library=packing_profile()), mixed_plan()
        ).run(OperationStyle.BUFFER_PACKING)
        assert chained.per_node_mbps > packing.per_node_mbps

    def test_sync_cost_matters(self, runtime):
        cheap = PlanStep(runtime, mixed_plan(), sync_per_message_ns=0.0)
        costly = PlanStep(runtime, mixed_plan(), sync_per_message_ns=200_000.0)
        assert (
            cheap.run(OperationStyle.CHAINED).per_node_mbps
            > costly.run(OperationStyle.CHAINED).per_node_mbps
        )

    def test_unscheduled_congestion_higher_for_aapc(self, runtime):
        plan = uniform_plan()
        scheduled = PlanStep(runtime, plan, scheduled=True)
        raw = PlanStep(runtime, plan, scheduled=False)
        assert raw.congestion() > scheduled.congestion()

    def test_throughput_consistent(self, runtime):
        result = PlanStep(runtime, mixed_plan()).run(OperationStyle.CHAINED)
        assert result.per_node_mbps == pytest.approx(
            result.bytes_per_node / result.step_ns * 1000.0
        )

    def test_prices_with_the_sample_bottleneck(self, runtime, monkeypatch):
        # The same steady-state bottleneck as CommunicationStep: one
        # MeasuredTransfer method, merged send/receive processor load.
        from repro.runtime.engine import MeasuredTransfer

        calls = []
        original = MeasuredTransfer.bottleneck_busy_ns

        def spy(sample):
            calls.append(sample)
            return original(sample)

        monkeypatch.setattr(MeasuredTransfer, "bottleneck_busy_ns", spy)
        PlanStep(runtime, mixed_plan()).run(OperationStyle.CHAINED)
        assert len(calls) == len(mixed_plan().ops) + 1
