"""Shared fixtures: machines, models and small measurement harnesses.

Simulator measurements are the slow part of the suite, so fixtures are
session-scoped and use short streams; accuracy-sensitive calibration
tests use their own longer streams.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace
from typing import Iterator
from unittest import mock

import pytest

from repro import caching
from repro.machines import paragon, t3d
from repro.memsim import node as node_module
from repro.memsim.fastpath import FastpathUnsupported
from repro.sweep import worker

#: Short stream length for functional (non-calibration) simulator tests.
FAST_WORDS = 4096


@pytest.fixture(scope="session")
def t3d_machine():
    return t3d()


@pytest.fixture(scope="session")
def paragon_machine():
    return paragon()


@pytest.fixture(scope="session", params=["t3d", "paragon"])
def machine(request, t3d_machine, paragon_machine):
    """Parametrized over both of the paper's machines."""
    return t3d_machine if request.param == "t3d" else paragon_machine


@pytest.fixture(scope="session")
def t3d_model(t3d_machine):
    """T3D model over the published calibration (paper's bold values)."""
    return t3d_machine.model(source="paper")


@pytest.fixture(scope="session")
def paragon_model(paragon_machine):
    return paragon_machine.model(source="paper")


@pytest.fixture(scope="session")
def t3d_node(t3d_machine):
    """A fast (short-stream) T3D memory-system harness."""
    return t3d_machine.node_memory(nwords=FAST_WORDS)


@pytest.fixture(scope="session")
def paragon_node(paragon_machine):
    return paragon_machine.node_memory(nwords=FAST_WORDS)


@contextlib.contextmanager
def _on_the_oracle() -> Iterator[SimpleNamespace]:
    """Run every memsim kernel inside on the scalar ``MemoryEngine``.

    The harness's fast engine is replaced by one that rejects every
    kernel, so each falls back to the oracle on its own streams.  The
    calibration cache key does not tell the engines apart, so the
    block gets a fresh memory-only cache, and the sweep worker memos
    are dropped on the way in and out: no table measured inside is
    seen outside, nor the other way round.
    """
    runs = SimpleNamespace(kernels=0)

    class _Unsupported:
        def __init__(self, *args, **kwargs) -> None:
            runs.kernels += 1
            raise FastpathUnsupported("scalar oracle forced by the test")

    with mock.patch.object(node_module, "FastEngine", _Unsupported), \
            mock.patch.object(
                caching, "_DEFAULT_CACHE", caching.CalibrationCache(use_disk=False)
            ):
        worker.reset_memos()
        try:
            yield runs
        finally:
            worker.reset_memos()


@pytest.fixture(scope="session")
def scalar_oracle():
    """``with scalar_oracle() as runs:`` runs the whole stack on the
    scalar memsim oracle; ``runs.kernels`` counts the kernels it ran,
    so a parity test can assert that its oracle side ran at all."""
    return _on_the_oracle


def within(value: float, reference: float, tolerance: float) -> bool:
    """True when ``value`` is within ``tolerance`` (fractional) of ``reference``."""
    return abs(value - reference) <= tolerance * abs(reference)
