"""Cross-machine invariants: every registered machine, one harness.

The machine registry (:mod:`repro.machines.registry`) is the single
source of truth for what a "machine" is; these properties pin down
what every entry must satisfy, so adding a machine means passing this
file, not hand-porting assertions:

* model estimates are positive and finite for every feasible style;
* transfer time is monotone in payload size;
* the verifier's static interval (CT214's bracket) contains the
  model's own estimate;
* a sweep sharing worker memos across cells and the serial reference
  (fresh memos per cell) produce bit-identical rows.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.analysis.verify.bounds import rate_interval
from repro.core.errors import ModelError
from repro.core.operations import OperationStyle
from repro.core.patterns import AccessPattern
from repro.machines.registry import MACHINE_FACTORIES, machine_names
from repro.runtime.engine import CommRuntime
from repro.sweep.spec import SweepSpec

ALL_MACHINES = machine_names()

# Paper-rate machines, models and runtimes are cheap to build but not
# free; share one per key across examples.
_machines = {}
_models = {}
_runtimes = {}


def _machine(key):
    if key not in _machines:
        _machines[key] = MACHINE_FACTORIES[key]()
    return _machines[key]


def _model(key):
    if key not in _models:
        _models[key] = _machine(key).model(source="paper")
    return _models[key]


def _runtime(key):
    if key not in _runtimes:
        _runtimes[key] = CommRuntime(_machine(key), rates="paper")
    return _runtimes[key]


#: Read/write access patterns every table can price (contiguous plus
#: power-of-two strides; arbitrary strides interpolate).
PATTERNS = st.sampled_from(["1", "2", "4", "8", "16", "64"])
STYLES = st.sampled_from([style for style in OperationStyle])


def _estimate(key, x, y, style):
    """Estimate xQy, skipping the example when the machine cannot
    build the style at all (e.g. no deposit engine for strided
    chained writes) — infeasibility is a capability fact, not a bug."""
    model = _model(key)
    try:
        expr = model.build(
            AccessPattern.parse(x), AccessPattern.parse(y), style
        )
    except ModelError:
        assume(False)
    return expr, model.estimate_expr(expr)


@pytest.mark.parametrize("key", ALL_MACHINES)
class TestEveryRegisteredMachine:
    @given(x=PATTERNS, y=PATTERNS, style=STYLES)
    @settings(max_examples=25, deadline=None)
    def test_estimates_positive_and_finite(self, key, x, y, style):
        __, estimate = _estimate(key, x, y, style)
        assert estimate.mbps > 0.0
        assert estimate.mbps < float("inf")

    @given(
        x=PATTERNS,
        y=PATTERNS,
        nbytes=st.integers(min_value=256, max_value=1 << 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_transfer_time_monotone_in_size(self, key, x, y, nbytes):
        runtime = _runtime(key)
        read = AccessPattern.parse(x)
        write = AccessPattern.parse(y)
        style = OperationStyle.BUFFER_PACKING  # feasible everywhere
        small = runtime.transfer(read, write, nbytes, style=style)
        bigger = runtime.transfer(read, write, 2 * nbytes, style=style)
        assert bigger.ns > small.ns

    @given(x=PATTERNS, y=PATTERNS, style=STYLES)
    @settings(max_examples=25, deadline=None)
    def test_verify_interval_brackets_estimate(self, key, x, y, style):
        expr, estimate = _estimate(key, x, y, style)
        model = _model(key)
        interval = rate_interval(expr, model.table, model.constraints)
        assume(interval is not None)
        assert interval.contains(estimate.mbps)

    def test_sweep_engines_bit_identical(self, key):
        from repro.sweep import run_serial, run_sweep

        spec = SweepSpec(
            kind="transfer",
            machines=(key,),
            pairs=(("1", "64"), ("1", "1")),
            styles=("buffer-packing",),
            sizes=(4096, 131072),
            rates="paper",
        )
        assert run_sweep(spec, workers=1).rows == run_serial(spec).rows
