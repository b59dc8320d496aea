"""Tests for collective communication steps (repro.runtime.collective)."""

import pytest

from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.netsim.patterns import all_to_all, cyclic_shift
from repro.runtime.collective import CommunicationStep
from repro.runtime.engine import CommRuntime


@pytest.fixture(scope="module")
def runtime(t3d_machine):
    return CommRuntime(t3d_machine)


def step(runtime, flows, nbytes=8192, **kwargs):
    return CommunicationStep(
        runtime, flows, CONTIGUOUS, strided(64), nbytes, **kwargs
    )


class TestConstruction:
    def test_empty_flows_rejected(self, runtime):
        with pytest.raises(ValueError):
            step(runtime, [])

    def test_bad_schedule_slack_rejected(self, runtime):
        with pytest.raises(ValueError):
            step(runtime, cyclic_shift(64), schedule_slack=0.5)


class TestCongestion:
    def test_scheduled_uses_port_floor(self, runtime):
        result = step(runtime, all_to_all(64), scheduled=True).run()
        assert result.congestion == 2.0  # T3D port sharing

    def test_schedule_slack_scales(self, runtime):
        result = step(
            runtime, all_to_all(64), scheduled=True, schedule_slack=1.5
        ).run()
        assert result.congestion == 3.0

    def test_unscheduled_uses_link_loads(self, runtime):
        scheduled = step(runtime, all_to_all(64), scheduled=True).run()
        raw = step(runtime, all_to_all(64), scheduled=False).run()
        assert raw.congestion > scheduled.congestion
        assert raw.per_node_mbps < scheduled.per_node_mbps


class TestStepAccounting:
    def test_messages_per_node(self, runtime):
        result = step(runtime, all_to_all(8)).run()
        assert result.messages_per_node == 7
        shift = step(runtime, cyclic_shift(8)).run()
        assert shift.messages_per_node == 1

    def test_bytes_per_node(self, runtime):
        result = step(runtime, all_to_all(8), nbytes=4096).run()
        assert result.bytes_per_node == 7 * 4096

    def test_throughput_consistent(self, runtime):
        result = step(runtime, all_to_all(8)).run()
        assert result.per_node_mbps == pytest.approx(
            result.bytes_per_node / result.step_ns * 1000.0
        )

    def test_many_messages_approach_steady_state(self, runtime):
        few = step(runtime, all_to_all(4)).run()
        many = step(runtime, all_to_all(64)).run()
        # Pipelining across messages: more messages amortize the fill.
        assert many.per_node_mbps >= few.per_node_mbps

    def test_sync_cost_slows_step(self, runtime):
        cheap = step(runtime, all_to_all(16), sync_per_message_ns=0.0).run()
        costly = step(
            runtime, all_to_all(16), sync_per_message_ns=100_000.0
        ).run()
        assert cheap.per_node_mbps > costly.per_node_mbps

    def test_styles_ranked(self, runtime):
        packing = step(runtime, all_to_all(16)).run(OperationStyle.BUFFER_PACKING)
        chained = step(runtime, all_to_all(16)).run(OperationStyle.CHAINED)
        assert chained.per_node_mbps > packing.per_node_mbps


class TestFanIn:
    """Regression: message slots must count receives, not just sends."""

    def test_fan_in_counts_receiver_load(self, runtime):
        # 7 senders, one receiver.  Each node sends at most one message,
        # but node 0 receives seven — it serializes seven message slots.
        flows = [(src, 0) for src in range(1, 8)]
        result = step(runtime, flows).run()
        assert result.messages_per_node == 7

    def test_fan_out_symmetric(self, runtime):
        flows = [(0, dst) for dst in range(1, 8)]
        result = step(runtime, flows).run()
        assert result.messages_per_node == 7

    def test_fan_in_slower_than_pairwise(self, runtime):
        pairwise = step(runtime, cyclic_shift(8)).run()
        fan_in = step(runtime, [(src, 0) for src in range(1, 8)]).run()
        assert fan_in.step_ns > pairwise.step_ns


class TestSteadyStateFallback:
    """Regression: ``max([cpu] + list(busy) or [ns])`` parenthesized as
    ``(cpu + busy) or ns``, leaving the fallback dead and letting an
    all-zero busy profile report a 0 ns per-message bottleneck.

    The merge, max and fallback live in one place,
    :meth:`MeasuredTransfer.bottleneck_busy_ns`, which both
    :class:`CommunicationStep` and :class:`PlanStep` price with.
    """

    def _sample(self, busy):
        from repro.runtime.engine import MeasuredTransfer

        return MeasuredTransfer(
            mbps=100.0,
            ns=50_000.0,
            nbytes=8192,
            style=OperationStyle.CHAINED,
            library="test",
            congestion=1.0,
            phase_ns=(("chained", 50_000.0),),
            resource_busy_ns=busy,
        )

    def test_zero_busy_falls_back_to_end_to_end(self, runtime):
        sample = self._sample(busy=(("network", 0.0),))
        assert sample.bottleneck_busy_ns() == sample.ns

    def test_empty_busy_falls_back_too(self, runtime):
        sample = self._sample(busy=())
        assert sample.bottleneck_busy_ns() == sample.ns

    def test_nonzero_busy_still_used(self, runtime):
        sample = self._sample(
            busy=(("network", 30_000.0), ("sender_cpu", 10_000.0)),
        )
        assert sample.bottleneck_busy_ns() == 30_000.0

    def test_send_and_receive_processor_loads_add_up(self):
        sample = self._sample(
            busy=(
                ("network", 30_000.0),
                ("receiver_cpu", 15_000.0),
                ("sender_cpu", 20_000.0),
            ),
        )
        assert sample.bottleneck_busy_ns() == 35_000.0

    def test_steady_state_prices_with_the_sample_bottleneck(
        self, runtime, monkeypatch
    ):
        from repro.runtime.engine import MeasuredTransfer

        probe = step(runtime, all_to_all(4))
        nominal = probe.run()
        monkeypatch.setattr(
            MeasuredTransfer, "bottleneck_busy_ns", lambda self: 1e6
        )
        priced = probe.run()
        efficiency = runtime.machine.quirks.runtime_efficiency
        steady = 1e6 / efficiency + probe.sync_per_message_ns
        assert priced.step_ns == pytest.approx(
            nominal.sample.ns + probe.sync_per_message_ns + 2 * steady
        )
