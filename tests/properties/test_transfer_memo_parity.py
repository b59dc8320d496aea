"""A runtime's memos are invisible: one runtime answers as a fresh one per call.

``CommRuntime.transfer`` keeps each completed transfer, and
``CommunicationStep.signature`` keeps each flow pattern's facts, on
the runtime.  These properties run random sequences of transfers and
collectives, with random arguments, fault plans (standing and
context) and the tracer on or off, on one runtime, and hold every
call's value, ledgers, raised error and trace payload equal to what a
fresh runtime gives for that call alone.  Payloads include floats
equal to a drawn int payload: a fresh runtime rejects them, so a kept
int result must never answer one.  Sequences draw from a small
pool with repeats, so hits (traced and untraced) are common.

CI gates on this module: the job fails if these tests are skipped.
"""

import json
from contextlib import nullcontext

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import ModelError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.faults import FaultPlan, injecting
from repro.faults.spec import FragmentFault, NodeFault
from repro.machines import machine_by_key
from repro.runtime.collectives import ALGORITHMS, run_collective
from repro.runtime.engine import CommRuntime
from repro.trace import chrome_trace, tracing

MACHINES = ("t3d", "paragon", "xe", "cluster")

PLANS = (
    None,
    FaultPlan(),
    FaultPlan.chaos(7),
    FaultPlan(seed=11, fragments=(FragmentFault(loss=0.3, corrupt=0.1),)),
    FaultPlan(seed=1, fragments=(FragmentFault(loss=0.95),)),
    FaultPlan(seed=3, nodes=(NodeFault(node=2, slowdown=2.0),)),
)

_plans = st.sampled_from(PLANS)

_transfers = st.fixed_dictionaries({
    "kind": st.just("transfer"),
    "x": st.sampled_from([CONTIGUOUS, strided(8), strided(64)]),
    "y": st.sampled_from([CONTIGUOUS, strided(64)]),
    "nbytes": st.sampled_from([512, 4096, 4096.0, 65536]),
    "style": st.sampled_from(list(OperationStyle)),
    "congestion": st.sampled_from([None, 1, 1.0, 2.5]),
    "duplex": st.booleans(),
    "analyze": st.booleans(),
    "src": st.sampled_from([None, 0, 2]),
    "dst": st.sampled_from([None, 1, 2]),
})

_collectives = st.sampled_from(sorted(ALGORITHMS)).flatmap(
    lambda op: st.fixed_dictionaries({
        "kind": st.just("collective"),
        "op": st.just(op),
        "algorithm": st.sampled_from(ALGORITHMS[op]),
        "nodes": st.sampled_from([2, 5, 8]),
        "nbytes": st.sampled_from([1024, 1024.0, 65536]),
        "hierarchical": st.sampled_from([None, False]),
    })
)


@st.composite
def sequences(draw):
    """Calls drawn from a pool of at most four, so repeats are common.

    The context plan and the tracer are drawn per call, so one call
    recurs with and without a plan, traced and untraced.
    """
    pool = draw(st.lists(
        st.one_of(_transfers, _collectives), min_size=1, max_size=4
    ))
    calls = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), _plans, st.booleans()),
        min_size=1, max_size=8,
    ))
    return [
        dict(pool[index], plan=plan, traced=traced)
        for index, plan, traced in calls
    ]


def _call(runtime, call):
    """``(value, ledgers, error, trace payload)`` of one call."""
    value = ledgers = error = None
    with tracing() if call["traced"] else nullcontext() as tracer:
        with injecting(call["plan"]) if call["plan"] else nullcontext():
            try:
                if call["kind"] == "transfer":
                    value = runtime.transfer(
                        call["x"], call["y"], call["nbytes"], call["style"],
                        congestion=call["congestion"],
                        duplex=call["duplex"], analyze=call["analyze"],
                        src=call["src"], dst=call["dst"],
                    )
                    ledgers = [value.ledger]
                else:
                    value = run_collective(
                        runtime, call["op"], call["algorithm"],
                        call["nodes"], call["nbytes"],
                        hierarchical=call["hierarchical"],
                    )
                    ledgers = [step.sample.ledger for step in value.rounds]
            except (ModelError, TypeError) as exc:
                error = (type(exc), str(exc))
    payload = None
    if tracer is not None:
        samples = [(c.name, c.value, c.at_ns) for c in tracer.counters()]
        payload = json.dumps([chrome_trace(tracer), samples], sort_keys=True)
    return value, ledgers, error, payload


@settings(max_examples=120, deadline=None)
@given(
    key=st.sampled_from(MACHINES),
    standing=_plans,
    calls=sequences(),
)
def test_one_runtime_answers_as_a_fresh_one(key, standing, calls):
    machine = machine_by_key(key)
    table = machine.paper_table()

    def runtime():
        return CommRuntime(machine, faults=standing, table=table)

    shared = runtime()
    for call in calls:
        assert _call(shared, call) == _call(runtime(), call)
