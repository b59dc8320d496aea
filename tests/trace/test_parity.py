"""Trace-off parity: tracing must never change a result.

Every traced entry point is run twice — once with a tracer installed,
once without — and the results must be bit-identical.  Tracing is an
observer: it reads model state, it never feeds back into timing.
"""

import pytest

from repro.core.errors import CompositionError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.faults import FaultPlan
from repro.machines import MACHINE_FACTORIES, machine_by_key
from repro.netsim.patterns import all_to_all
from repro.runtime.collective import CommunicationStep
from repro.runtime.engine import CommRuntime
from repro.runtime.stages import Stage, StagePipeline
from repro.trace import current_tracer, tracing


@pytest.mark.parametrize("chaos", [False, True], ids=["nominal", "chaos7"])
@pytest.mark.parametrize("duplex", [False, True], ids=["simplex", "duplex"])
@pytest.mark.parametrize(
    "style", list(OperationStyle), ids=[s.value for s in OperationStyle]
)
@pytest.mark.parametrize("key", sorted(MACHINE_FACTORIES))
def test_transfer_bit_identical(key, style, duplex, chaos):
    runtime = CommRuntime(
        machine_by_key(key),
        rates="paper",
        faults=FaultPlan.chaos(7) if chaos else None,
    )

    def run():
        return runtime.transfer(
            CONTIGUOUS, strided(64), 131072, style, duplex=duplex,
            src=0, dst=1,
        )

    try:
        plain = run()
    except CompositionError as exc:
        # Infeasible on this machine: a one-line refusal, traced or not,
        # that leaves nothing in the trace.
        assert str(exc) and "\n" not in str(exc)
        with tracing() as tracer:
            with pytest.raises(CompositionError) as again:
                run()
        assert str(again.value) == str(exc)
        assert len(tracer) == 0
        return
    with tracing():
        traced = run()
    assert traced == plain


def test_pipeline_bit_identical():
    stages = [
        Stage("a", 100.0, "cpu", chunk_overhead_ns=500.0),
        Stage("b", 150.0, "net", startup_ns=2000.0),
    ]
    plain = StagePipeline(stages).run(1 << 16, chunk_bytes=4096)
    with tracing():
        traced = StagePipeline(stages).run(1 << 16, chunk_bytes=4096)
    assert traced == plain


def test_step_bit_identical(t3d_machine):
    runtime = CommRuntime(t3d_machine, rates="paper")

    def run_step():
        return CommunicationStep(
            runtime, all_to_all(4), CONTIGUOUS, CONTIGUOUS, 8192
        ).run()

    plain = run_step()
    with tracing():
        traced = run_step()
    assert traced == plain


def test_memsim_kernel_bit_identical(t3d_machine):
    # Fresh harnesses each time: results are memoized per instance, so
    # reusing one would compare a cached result against itself.
    def run_kernel():
        node = t3d_machine.node_memory(nwords=2048)
        return node.copy_result(CONTIGUOUS, strided(8))

    plain = run_kernel()
    with tracing():
        traced = run_kernel()
    assert traced == plain


def test_calibration_table_bit_identical(t3d_machine):
    from repro.machines.measure import measure_table

    plain = measure_table(t3d_machine, nwords=512, use_cache=False)
    with tracing():
        traced = measure_table(t3d_machine, nwords=512, use_cache=False)
    assert traced.to_dict() == plain.to_dict()


def test_no_tracer_leaks_out_of_entry_points(t3d_machine):
    runtime = CommRuntime(t3d_machine, rates="paper")
    with tracing() as tracer:
        runtime.transfer(CONTIGUOUS, CONTIGUOUS, 8192)
    assert len(tracer) > 0
    assert current_tracer() is None
    # And with no tracer installed nothing records anywhere.
    runtime.transfer(CONTIGUOUS, CONTIGUOUS, 8192)
    assert current_tracer() is None
