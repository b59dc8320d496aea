"""The runtime's transfer memo: a kept result is what a fresh runtime gives.

``CommRuntime.transfer`` keeps each completed transfer keyed on every
input after the defaults resolve.  Each test first runs a transfer on
one runtime, then one that differs in a single key part, and holds the
second result (values, ledger and trace) equal to a fresh runtime's.
A key part missing from the memo key would hand back the first result.
"""

import json

import pytest

from repro.core.errors import TransferAbortedError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.faults import FaultPlan, injecting
from repro.faults.spec import FragmentFault
from repro.machines import machine_by_key
from repro.runtime.engine import CommRuntime
from repro.trace import chrome_trace, tracing

BASE = dict(
    x=CONTIGUOUS,
    y=strided(64),
    nbytes=65536,
    style=OperationStyle.CHAINED,
    congestion=None,
    duplex=False,
    analyze=False,
    src=None,
    dst=None,
)

#: One changed key part per case.
VARIANTS = {
    "x": dict(x=strided(8)),
    "y": dict(y=CONTIGUOUS),
    "nbytes": dict(nbytes=4096),
    "style": dict(style=OperationStyle.BUFFER_PACKING),
    "congestion": dict(congestion=3.0),
    "duplex": dict(duplex=True),
    "analyze": dict(analyze=True),
    "src": dict(src=1),
    "dst": dict(dst=1),
}

#: How the fault plan reaches the transfer: none, the context plan, or
#: the runtime's standing plan.
PLANS = ("none", "context", "standing")

_CHAOS = FaultPlan.chaos(7)
_LOSSY = FaultPlan(seed=1, fragments=(FragmentFault(loss=0.95),))


def _runtime(key="t3d", plan="none"):
    machine = machine_by_key(key)
    faults = _CHAOS if plan == "standing" else None
    return CommRuntime(machine, faults=faults, table=machine.paper_table())


def _transfer(runtime, plan="none", **changes):
    arguments = dict(BASE, **changes)
    if plan == "context":
        with injecting(_CHAOS):
            return runtime.transfer(**arguments)
    return runtime.transfer(**arguments)


def _payload(tracer):
    samples = [(c.name, c.value, c.at_ns) for c in tracer.counters()]
    return json.dumps([chrome_trace(tracer), samples], sort_keys=True)


def _same(kept, fresh):
    assert kept == fresh
    assert kept.ledger == fresh.ledger


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_each_key_part_misses(variant, plan):
    runtime = _runtime(plan=plan)
    _transfer(runtime, plan)
    kept = _transfer(runtime, plan, **VARIANTS[variant])
    fresh = _transfer(_runtime(plan=plan), plan, **VARIANTS[variant])
    _same(kept, fresh)


def test_the_congestion_type_is_keyed():
    """2 == 2.0, but the result carries the congestion as given."""
    runtime = _runtime()
    _transfer(runtime, congestion=2.0)
    kept = _transfer(runtime, congestion=2)
    _same(kept, _transfer(_runtime(), congestion=2))
    assert type(kept.congestion) is int


def test_the_payload_type_is_keyed():
    """4096 == 4096.0, but a float payload fails on a fresh runtime."""
    runtime = _runtime()
    _transfer(runtime, nbytes=4096)
    with pytest.raises(TypeError) as kept:
        _transfer(runtime, nbytes=4096.0)
    with pytest.raises(TypeError) as fresh:
        _transfer(_runtime(), nbytes=4096.0)
    assert str(kept.value) == str(fresh.value)


@pytest.mark.parametrize("plan", PLANS)
def test_a_repeat_returns_the_kept_result(plan):
    runtime = _runtime(plan=plan)
    first = _transfer(runtime, plan)
    assert _transfer(runtime, plan) is first
    _same(first, _transfer(_runtime(plan=plan), plan))


def test_the_plan_is_keyed():
    """A nominal result never serves a call under a plan, or back."""
    runtime = _runtime()
    nominal = _transfer(runtime)
    chaotic = _transfer(runtime, "context")
    assert chaotic != nominal
    _same(chaotic, _transfer(_runtime(), "context"))
    _same(_transfer(runtime), nominal)


@pytest.mark.parametrize("plan", PLANS)
def test_untraced_then_traced_traces_as_fresh(plan):
    runtime = _runtime(plan=plan)
    _transfer(runtime, plan)
    with tracing() as tracer:
        kept = _transfer(runtime, plan)
    with tracing() as fresh_tracer:
        fresh = _transfer(_runtime(plan=plan), plan)
    assert any(row[6] for row in kept.ledger), "chunk rows must be traced"
    assert _payload(tracer) == _payload(fresh_tracer)
    _same(kept, fresh)


@pytest.mark.parametrize("plan", PLANS)
def test_traced_then_untraced_keeps_no_chunk_rows(plan):
    runtime = _runtime(plan=plan)
    with tracing():
        _transfer(runtime, plan)
    _same(_transfer(runtime, plan), _transfer(_runtime(plan=plan), plan))


@pytest.mark.parametrize("plan", PLANS)
def test_a_traced_hit_replays_the_ledger(plan):
    runtime = _runtime(plan=plan)
    payloads = []
    for __ in range(2):
        with tracing() as tracer:
            _transfer(runtime, plan)
        payloads.append(_payload(tracer))
    with tracing() as fresh_tracer:
        _transfer(_runtime(plan=plan), plan)
    assert payloads == [_payload(fresh_tracer)] * 2


def test_an_abort_is_never_kept():
    runtime = CommRuntime(
        machine_by_key("t3d"), faults=_LOSSY, rates="paper"
    )
    with tracing() as tracer:
        for __ in range(3):
            with pytest.raises(TransferAbortedError):
                _transfer(runtime)
    assert tracer.metrics.counter("faults.aborts") == 3
    assert not runtime._transfers
