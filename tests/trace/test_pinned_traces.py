"""Pinned trace payloads: the runtime's spans, counters and metrics, byte for byte.

Two pins guard the emitted trace against any reordering or change:

* the ``trace --json`` payloads of four CLI runs (a chained T3D
  transfer, a duplex Paragon packing transfer, a cluster all-to-all
  step and an xe allreduce), run as subprocesses with the calibration
  cache off so calibration counters land in the trace every time;
* one digest over traced transfers on every registered machine, both
  styles, simplex and duplex, two libraries and four fault plans —
  the nominal path, degradation, retransmission and aborted transfers
  (whose partial spans must still reach the trace);
* traced collectives whose rounds repeat (a ring allreduce on xe, a
  flat ring broadcast on cluster), nominal and under a chaos plan, so
  a round priced once and replayed traces exactly as one re-run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.errors import CompositionError, TransferAbortedError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.faults import FaultPlan
from repro.faults.spec import FragmentFault
from repro.machines import MACHINE_FACTORIES, machine_by_key
from repro.runtime.collectives import run_collective
from repro.runtime.engine import CommRuntime
from repro.runtime.libraries import pvm_profile
from repro.trace import chrome_trace, tracing

#: argv -> SHA-256 of the ``--json`` stdout and of the ``--out`` file.
CLI_PINS = {
    (
        "--machine", "t3d", "--x", "1", "--y", "64", "--bytes", "131072",
        "--style", "chained",
    ): (
        "d3501b9b2b08bd23c0f7055eb5979d3b5f531da264ea2082d67686c0a7ca7868",
        "a8b8845462b5acfc74d616ea89bd2199e68473ca128fd0beb05c3a9a2c7d143f",
    ),
    (
        "--machine", "paragon", "--x", "64", "--y", "1", "--bytes", "65536",
        "--style", "buffer-packing", "--duplex",
    ): (
        "14bc1fc8c7fdac8774739151b4db6285fab009c4f3c9f40df130994027a96277",
        "c06031e47dd1861c31810687589d0ce19f01643d9733e0acbacbdcea2f87f082",
    ),
    ("--machine", "cluster", "--step", "all-to-all", "--nodes", "8"): (
        "242bb275bfa4909a40e12af68c301bf5ccec771bd4b1b3235b2c90da1ca61a90",
        "e1ea1ede5a450044ff2138b2a871e860ad42ec80297df8ee6fbc7d0e6c9a4593",
    ),
    (
        "--machine", "xe", "--step", "allreduce", "--nodes", "16",
        "--bytes", "65536",
    ): (
        "82471464b53f64399826eaa7baa8c767c67ba63efcf69cd1e7d1d4f2271c0ec3",
        "897a0e30b72bede9b22383fb0f296787e7e12887a0c2bd107dd6e1f6c16769c3",
    ),
}

#: Digest of :func:`_fault_path_traces` over the whole matrix.
FAULT_PATH_PIN = (
    "75f1f0171f45b5b2e2bf2d09466eeb3ad68751c8b1b63fe424f07ee590588b98"
)

#: (machine, op, algorithm, hierarchical, plan seed) -> digest of
#: :func:`_collective_traces`; seed ``None`` is the nominal run.
COLLECTIVE_PINS = {
    ("xe", "allreduce", "ring", None, None):
        "ad2697792a617b262831887803673feda25b194cbcd3ea2c9dd4578fdcfcf283",
    ("xe", "allreduce", "ring", None, 7):
        "ea9d312d48ab3cc08831b56e28b53c36639367fafc40a316a563a009293767d5",
    ("cluster", "broadcast", "ring", False, None):
        "13ca43725c1bd19cf60df4469f2e6401468f95722592384ee598ef12542edf1b",
    ("cluster", "broadcast", "ring", False, 7):
        "4925bc62247e57d96c88f2143029481c54cd806779fbc67c5507210ac6a1c595",
}

_PLANS = (
    None,
    FaultPlan.chaos(7),
    FaultPlan(seed=11, fragments=(FragmentFault(loss=0.3, corrupt=0.1),)),
    FaultPlan(seed=1, fragments=(FragmentFault(loss=0.95),)),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv", list(CLI_PINS), ids=lambda argv: "-".join(argv[1::2][:3])
)
def test_trace_cli_payload_is_pinned(argv, tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_CACHE="off")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "trace", *argv,
         "--out", "trace.json", "--json"],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    stdout_pin, file_pin = CLI_PINS[argv]
    assert _sha256(completed.stdout) == stdout_pin
    assert _sha256((tmp_path / "trace.json").read_bytes()) == file_pin


def _fault_path_traces() -> str:
    total = hashlib.sha256()
    for key in sorted(MACHINE_FACTORIES):
        machine = machine_by_key(key)
        table = machine.paper_table()
        for library in (None, pvm_profile()):
            for style in OperationStyle:
                for duplex in (False, True):
                    for plan in _PLANS:
                        runtime = CommRuntime(
                            machine, library=library, faults=plan, table=table
                        )
                        with tracing() as tracer:
                            try:
                                runtime.transfer(
                                    CONTIGUOUS, strided(64), 65536, style,
                                    duplex=duplex, src=1, dst=2,
                                )
                            except (CompositionError, TransferAbortedError):
                                pass
                        samples = [
                            (c.name, c.value, c.at_ns)
                            for c in tracer.counters()
                        ]
                        total.update(
                            json.dumps(
                                [chrome_trace(tracer), samples],
                                sort_keys=True,
                            ).encode()
                        )
    return total.hexdigest()


def test_fault_path_traces_are_pinned():
    assert _fault_path_traces() == FAULT_PATH_PIN


def _collective_traces(key, op, algorithm, hierarchical, seed) -> str:
    total = hashlib.sha256()
    machine = machine_by_key(key)
    plan = FaultPlan.chaos(seed) if seed is not None else None
    runtime = CommRuntime(machine, faults=plan, table=machine.paper_table())
    for nbytes in (4096, 65536):
        with tracing() as tracer:
            run_collective(
                runtime, op, algorithm, 8, nbytes, hierarchical=hierarchical
            )
        samples = [(c.name, c.value, c.at_ns) for c in tracer.counters()]
        total.update(
            json.dumps([chrome_trace(tracer), samples], sort_keys=True).encode()
        )
    return total.hexdigest()


@pytest.mark.parametrize(
    "case", list(COLLECTIVE_PINS),
    ids=lambda case: f"{case[0]}-{case[1]}-{case[2]}-seed{case[4]}",
)
def test_repeated_round_collective_traces_are_pinned(case):
    assert _collective_traces(*case) == COLLECTIVE_PINS[case]
