"""Pinned load and faults reports: every draw, byte for byte.

The load CLI tests check that a report carries a digest; these pins
check which digest.  Each CLI run below goes through a different set
of seeded draw streams — Poisson gaps and template picks (``steady``),
bursts under priority queues (``bursty``), think times and affinity
dispatch (``closed``), the protected 3.2x run from CI, the chaos plan's
link derates and per-message loss draws, the latency curve, adaptive
admission with backoff jitter, and the faults report — so a change to
how any stream is drawn shows up as a changed SHA-256 of stdout.

The runs are subprocesses with the calibration cache off, so a warm
cache cannot hide a difference.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_LOAD = ("load", "--seed", "7", "--duration", "0.02", "--json")

#: name -> (argv, SHA-256 of the ``--json`` stdout).
REPORT_PINS = {
    "steady": (
        _LOAD + ("--profile", "steady"),
        "4770aa23a51235dd4a0b06e3896229d01d14dd943cb4708c0a09e74a69b42604",
    ),
    "bursty": (
        _LOAD + ("--profile", "bursty"),
        "5aeb3b35be0c616bb7401859963ba0216db34082aa6cf10c7a1891f211dfc738",
    ),
    "closed": (
        _LOAD + ("--profile", "closed"),
        "645e836611a425f408b8ef5438370e760cf8939b7bf9ed95314f138a25ede82b",
    ),
    "protected-3.2x": (
        _LOAD + (
            "--rate-x", "3.2", "--admission", "bounded-queue",
            "--queue-limit", "32", "--station-capacity", "64",
            "--deadline-us", "20000", "--p99-ceiling-us", "25000",
        ),
        "af91b484b13b54271c836ede9ec70d5cf4fd27809332e1e186a33c2657849606",
    ),
    "chaos": (
        _LOAD + ("--chaos-seed", "7"),
        "941357ccca0d00abc52ce0354007b6c44e97db35c5b9fa1761bd407593aa6915",
    ),
    "latency-curve": (
        (
            "load", "--seed", "7", "--duration", "0.01",
            "--latency-curve", "0.5,1,2", "--admission", "bounded-queue",
            "--queue-limit", "32", "--json",
        ),
        "da9c98aa52a107f7282ab825f29e7f65a7be8228f019721ec7625dc0c0e8f94f",
    ),
    "adaptive-backoff": (
        _LOAD + (
            "--rate-x", "3", "--admission", "adaptive",
            "--target-p99-us", "2000", "--reject-retry", "backoff",
        ),
        "d15f43a840903a59ecdec80b1c3f5e2f8fb751793e65edfcae36cc008d6ed174",
    ),
    "faults-t3d": (
        ("faults", "--machine", "t3d", "--seed", "7", "--json"),
        "99b69dde87718f8ecab67685cdb5bc790bd96b8fffb6905124963fb5cc842540",
    ),
}


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_report_stdout_is_pinned(name, tmp_path):
    argv, pin = REPORT_PINS[name]
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_CACHE="off")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(completed.stdout).hexdigest() == pin
