"""Property-based tests for the fault-injection replay guarantees.

The contracts under test (see docs/FAULTS.md):

* **Replay** — the same seed and the same plan produce bit-identical
  degraded results, however often they run.
* **Engine independence** — fault decisions are pure hashes of
  ``(seed, key)``, so the scalar oracle and the vectorized fast path
  make identical decisions; on the paper-rates path (which never
  touches the memory simulator) the entire ``MeasuredTransfer`` is
  bit-identical across engines, and on simulated rates the results
  agree to the engines' own parity tolerance.
* **Zero overhead when off** — an empty plan is bit-identical to not
  injecting at all.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.faults import (
    DepositFault,
    FaultPlan,
    FragmentFault,
    LinkFault,
    NodeFault,
    RetryPolicy,
    injecting,
)
from repro.machines import t3d
from repro.runtime.collective import CommunicationStep
from repro.runtime.engine import CommRuntime

#: Loss/corruption kept moderate and the retry budget deep so the
#: deterministic draws cannot realistically exhaust it (p <= 0.3 over
#: 25 attempts).
_RETRY = RetryPolicy(max_attempts=25)

_PLANS = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    links=st.lists(
        st.builds(
            LinkFault,
            derate=st.floats(min_value=0.25, max_value=1.0),
        ),
        max_size=2,
    ).map(tuple),
    nodes=st.lists(
        st.builds(
            NodeFault,
            node=st.integers(min_value=0, max_value=7),
            slowdown=st.floats(min_value=1.0, max_value=8.0),
        ),
        max_size=2,
    ).map(tuple),
    deposits=st.lists(
        st.builds(
            DepositFault,
            node=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        ),
        max_size=1,
    ).map(tuple),
    fragments=st.lists(
        st.builds(
            FragmentFault,
            loss=st.floats(min_value=0.0, max_value=0.3),
            corrupt=st.floats(min_value=0.0, max_value=0.3),
        ),
        max_size=1,
    ).map(tuple),
    retry=st.just(_RETRY),
)

_SIZES = st.sampled_from([4096, 65536, 1 << 20])

_PAPER = CommRuntime(t3d(), rates="paper")


def _transfer(runtime, plan, nbytes):
    with injecting(plan):
        return runtime.transfer(
            strided(64, 8), CONTIGUOUS, nbytes,
            style=OperationStyle.CHAINED, src=0, dst=1,
        )


def _fingerprint(result):
    return (
        result.mbps,
        result.ns,
        result.style,
        result.phase_ns,
        result.resource_busy_ns,
        result.retries,
        result.degraded,
    )


class TestReplayDeterminism:
    @given(plan=_PLANS, nbytes=_SIZES)
    @settings(max_examples=30, deadline=None)
    def test_same_plan_same_result(self, plan, nbytes):
        first = _transfer(_PAPER, plan, nbytes)
        second = _transfer(_PAPER, plan, nbytes)
        assert _fingerprint(first) == _fingerprint(second)

    @given(plan=_PLANS)
    @settings(max_examples=20, deadline=None)
    def test_step_replay(self, plan):
        flows = [(i, (i + 1) % 8) for i in range(8)]
        step = CommunicationStep(
            _PAPER, flows, CONTIGUOUS, CONTIGUOUS, 65536
        )
        with injecting(plan):
            first = step.run()
        with injecting(plan):
            second = step.run()
        assert first.per_node_mbps == second.per_node_mbps
        assert first.step_ns == second.step_ns
        assert _fingerprint(first.sample) == _fingerprint(second.sample)


class TestEngineIndependence:
    """The oracle side runs under the ``scalar_oracle`` fixture
    (``tests/conftest.py``), which forces every memsim kernel onto the
    scalar engine."""

    @given(plan=_PLANS, nbytes=_SIZES)
    @settings(max_examples=15, deadline=None)
    def test_paper_rates_bit_identical_across_engines(
        self, scalar_oracle, plan, nbytes
    ):
        with scalar_oracle() as oracle:
            scalar = _transfer(_PAPER, plan, nbytes)
        # Paper rates never reach the memory simulator.
        assert oracle.kernels == 0
        fast = _transfer(_PAPER, plan, nbytes)
        assert _fingerprint(scalar) == _fingerprint(fast)

    @pytest.mark.slow
    @given(plan=_PLANS)
    @settings(max_examples=5, deadline=None)
    def test_simulated_rates_agree_to_engine_parity(self, scalar_oracle, plan):
        with scalar_oracle() as oracle:
            runtime = CommRuntime(t3d(), rates="simulated")
            scalar = _transfer(runtime, plan, 65536)
        assert oracle.kernels > 0
        runtime = CommRuntime(t3d(), rates="simulated")
        fast = _transfer(runtime, plan, 65536)
        # Decisions (retries, style, degradation) are engine-free; only
        # the underlying stage rates differ, and those agree to the
        # engines' documented parity.
        assert scalar.retries == fast.retries
        assert scalar.style == fast.style
        assert (scalar.degraded is None) == (fast.degraded is None)
        assert [n for n, __ in scalar.phase_ns] == [n for n, __ in fast.phase_ns]
        assert scalar.ns == pytest.approx(fast.ns, rel=1e-6)


class TestZeroOverheadWhenOff:
    @given(seed=st.integers(min_value=0, max_value=2**31), nbytes=_SIZES)
    @settings(max_examples=20, deadline=None)
    def test_empty_plan_bit_identical_to_no_plan(self, seed, nbytes):
        bare = _PAPER.transfer(
            strided(64, 8), CONTIGUOUS, nbytes,
            style=OperationStyle.CHAINED, src=0, dst=1,
        )
        under = _transfer(_PAPER, FaultPlan(seed=seed), nbytes)
        assert _fingerprint(bare) == _fingerprint(under)
