"""Deriving calibration tables by measurement (Section 4).

The paper obtains its throughput figures by timing simple experiments
on live machines.  :func:`measure_table` is the equivalent here: it
runs every basic transfer the machine supports on the memory-system
simulator, takes the network rates from the network model, and returns
a ready-to-use :class:`~repro.core.calibration.ThroughputTable`.

The measurement grid is exposed as data: :func:`calibration_entries`
enumerates the ``(letter, read, write)`` entries a machine supports and
:func:`measure_entry` evaluates one of them, so the sweep engine
(:mod:`repro.sweep`) can shard a calibration across worker processes
(``repro sweep --grid calibration --workers N``); its rates equal the
entries of the table :func:`measure_table` assembles.

Tables are cached through :mod:`repro.caching` — an in-process LRU
plus an on-disk layer — keyed by a content hash of everything the
measurement depends on, because simulating the full grid of long
streams is the slow part of the library.  Pass ``use_cache=False`` (or
run ``python -m repro calibrate --no-cache``) to force remeasurement.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

from ..caching import default_cache
from ..core.calibration import ThroughputTable
from ..core.errors import CalibrationError
from ..core.operations import DepositSupport
from ..core.patterns import CONTIGUOUS, INDEXED, AccessPattern, strided
from ..core.transfers import TransferKind
from ..memsim.engine import ENGINE_VERSION
from ..memsim.fastpath import FASTPATH_VERSION
from ..memsim.node import (
    DEFAULT_MEASURE_WORDS,
    ENGINE_ENV,
    NodeMemorySystem,
)
from ..netsim.network import FramingMode
from .base import Machine

__all__ = [
    "measure_table",
    "measurement_cache_key",
    "calibration_entries",
    "measure_entry",
    "measure_entries",
    "CalEntry",
    "DEFAULT_STRIDES",
    "MEASURE_VERSION",
]

#: Stride anchors measured by default; enough for log-interpolation to
#: track the Figure 4 curves.
DEFAULT_STRIDES: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)

#: Semantic version of the measurement procedure itself.  Bump when
#: the entry grid or per-entry evaluation changes meaning, so sweep
#: workers sharing the disk cache can never mix tables produced by a
#: different measurement schema into one merged result.
MEASURE_VERSION = "2"

#: One calibration entry: (kind letter, read key, write key) in table
#: notation — e.g. ``("C", "1", 64)`` is the strided-store copy 1C64,
#: ``("Nd", "0", "0")`` the data-framed network rate.
CalEntry = Tuple[str, Union[str, int], Union[str, int]]

_KIND_BY_LETTER = {
    "C": TransferKind.COPY,
    "S": TransferKind.LOAD_SEND,
    "F": TransferKind.FETCH_SEND,
    "R": TransferKind.RECEIVE_STORE,
    "D": TransferKind.RECEIVE_DEPOSIT,
    "Nd": TransferKind.NETWORK_DATA,
    "Nadp": TransferKind.NETWORK_ADP,
}


def _pattern(key: Union[str, int]) -> AccessPattern:
    """Table key ("1"/"w"/stride) -> the access pattern it measures."""
    if key == "1":
        return CONTIGUOUS
    if key == "w":
        return INDEXED
    return strided(int(key))


def calibration_entries(
    machine: Machine, strides: Tuple[int, ...] = DEFAULT_STRIDES
) -> Tuple[CalEntry, ...]:
    """Every entry :func:`measure_table` measures for this machine.

    The list is a pure function of the machine's capabilities and the
    stride anchors — the sharded and serial paths measure exactly the
    same grid.
    """
    entries: list = [("C", "1", "1"), ("C", "1", "w"), ("C", "w", "1")]
    for s in strides:
        entries.append(("C", "1", s))
        entries.append(("C", s, "1"))

    entries.append(("S", "1", "0"))
    entries.append(("S", "w", "0"))
    for s in strides:
        entries.append(("S", s, "0"))
    if machine.node.dma.present:
        entries.append(("F", "1", "0"))

    deposit_support = machine.capabilities.deposit
    if deposit_support is not DepositSupport.NONE:
        entries.append(("D", "0", "1"))
        if deposit_support is DepositSupport.ANY:
            entries.append(("D", "0", "w"))
            for s in strides:
                entries.append(("D", "0", s))
    if machine.capabilities.coprocessor_receive:
        entries.append(("R", "0", "1"))
        entries.append(("R", "0", "w"))
        for s in strides:
            entries.append(("R", "0", s))

    entries.append(("Nd", "0", "0"))
    entries.append(("Nadp", "0", "0"))
    return tuple(entries)


def measure_entry(
    machine: Machine,
    node: NodeMemorySystem,
    entry: CalEntry,
    congestion: Optional[int] = None,
) -> float:
    """Measure one calibration entry (MB/s)."""
    letter, read, write = entry
    if letter == "C":
        return node.measure_copy(_pattern(read), _pattern(write))
    if letter == "S":
        return node.measure_load_send(_pattern(read))
    if letter == "F":
        return node.measure_fetch_send()
    if letter == "R":
        return node.measure_receive_store(_pattern(write))
    if letter == "D":
        return node.measure_deposit(_pattern(write))
    if letter in ("Nd", "Nadp"):
        if congestion is None:
            congestion = machine.network.default_congestion
        mode = (
            FramingMode.DATA_ONLY
            if letter == "Nd"
            else FramingMode.ADDRESS_DATA_PAIRS
        )
        return machine.network_model().rate(mode, congestion=congestion)
    raise CalibrationError(f"unknown calibration entry kind {letter!r}")


def measure_entries(
    machine: Machine,
    node: NodeMemorySystem,
    entries: Tuple[CalEntry, ...],
    congestion: Optional[int] = None,
) -> list:
    """Measure a batch of calibration entries against one node harness.

    This is the batched-query form of :func:`measure_entry`: all
    entries share the harness (and therefore its engine-keyed kernel
    memo — see :class:`~repro.memsim.node.NodeMemorySystem`), so
    duplicate entries simulate once.  Values are bit-identical to
    calling :func:`measure_entry` per entry.
    """
    return [
        measure_entry(machine, node, entry, congestion=congestion)
        for entry in entries
    ]


def _table_key(key: Union[str, int]) -> Union[str, int]:
    """Normalize a (possibly stringified) entry key for table storage."""
    if isinstance(key, str) and key not in ("0", "1", "w"):
        return int(key)
    return key


def measurement_cache_key(
    machine: Machine,
    congestion: int,
    nwords: int,
    strides: Tuple[int, ...],
    occupancy_scale: float = 1.0,
) -> str:
    """Content hash identifying one calibration measurement exactly.

    Everything the resulting table depends on participates: the full
    node config, the network config and congestion point, stream
    parameters, the engine selection (a forced scalar oracle may differ
    from the fast path in the last float ulp) and the engines' semantic
    versions, so editing timing rules orphans stale disk entries.

    Two inputs exist specifically so concurrent sweep workers sharing
    the disk cache can never mix stale entries: the machine's
    *capabilities* (they choose which receives get measured — two
    machine variants differing only there must not collide) and
    :data:`MEASURE_VERSION` (bumped whenever the measurement procedure
    itself changes meaning).
    """
    from ..caching import content_key

    return content_key(
        "calibration-table",
        MEASURE_VERSION,
        ENGINE_VERSION,
        FASTPATH_VERSION,
        os.environ.get(ENGINE_ENV) or "auto",
        machine.name,
        machine.node,
        machine.network,
        machine.capabilities,
        machine.index_run,
        congestion,
        nwords,
        strides,
        occupancy_scale,
    )


def measure_table(
    machine: Machine,
    congestion: Optional[int] = None,
    nwords: int = DEFAULT_MEASURE_WORDS,
    strides: Tuple[int, ...] = DEFAULT_STRIDES,
    use_cache: bool = True,
) -> ThroughputTable:
    """Measure a full calibration table on the simulators.

    Args:
        machine: The machine to measure.
        congestion: Network operating point for the ``Nd`` / ``Nadp``
            entries; defaults to the machine's typical congestion.
        nwords: Stream length per measurement.
        strides: Stride anchors to measure on both sides of copies,
            sends and receives.
        use_cache: Consult/populate the calibration cache
            (:mod:`repro.caching`).  ``False`` always remeasures and
            leaves the cache untouched.
    """
    if congestion is None:
        congestion = machine.network.default_congestion
    strides = tuple(strides)
    key = measurement_cache_key(machine, congestion, nwords, strides)
    if use_cache:
        cached = default_cache().lookup(key)
        if cached is not None:
            return cached
    table = ThroughputTable(
        f"{machine.name} (simulated, congestion {congestion})"
    )
    node = machine.node_memory(nwords=nwords)
    for entry in calibration_entries(machine, strides):
        letter, read, write = entry
        table.set(
            _KIND_BY_LETTER[letter],
            _table_key(read),
            _table_key(write),
            measure_entry(machine, node, entry, congestion=congestion),
        )
    if use_cache:
        default_cache().store(key, table)
    return table
