"""Deriving calibration tables by measurement (Section 4).

The paper obtains its throughput figures by timing simple experiments
on live machines.  :func:`measure_table` is the equivalent here: it
returns a :class:`~repro.core.calibration.ThroughputTable` that knows
every basic transfer the machine supports and measures each one the
first time a lookup reads it — memory-system transfers on the
simulator, network rates from the network model.  Figures 7 and 8
read a dozen of a table's 33-odd entries, so the stride anchors a
figure never interpolates are never simulated.

The measurement grid is exposed as data: :func:`calibration_entries`
enumerates the ``(letter, read, write)`` entries a machine supports and
:func:`measure_entry` evaluates one of them, so the sweep engine
(:mod:`repro.sweep`) can shard a calibration across worker processes
(``repro sweep --grid calibration --workers N``); its rates equal the
entries of the table :func:`measure_table` returns.

Tables are cached through :mod:`repro.caching` — an in-process LRU
plus an on-disk layer — keyed by a content hash of everything the
measurement depends on.  A table is stored when it is made and its
disk file is rewritten each time a read measures new entries, so a
later process measures only what no earlier one read.  Pass
``use_cache=False`` (or run ``python -m repro calibrate --no-cache``)
to force remeasurement.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from ..caching import default_cache
from ..core.calibration import EntryKey, ThroughputTable
from ..core.errors import CalibrationError
from ..core.operations import DepositSupport
from ..core.patterns import CONTIGUOUS, INDEXED, AccessPattern, strided
from ..core.transfers import TransferKind
from ..memsim.engine import ENGINE_VERSION
from ..memsim.fastpath import FASTPATH_VERSION
from ..memsim.node import DEFAULT_MEASURE_WORDS, NodeMemorySystem
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
#: the entry grid, per-entry evaluation or the cache file's meaning
#: changes, so sweep workers sharing the disk cache can never mix
#: tables produced by a different measurement schema into one merged
#: result.  Version 3 files may hold part of the grid: a table measures
#: the entries a file lacks when they are read.
MEASURE_VERSION = "3"

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
    entries share the harness (and therefore its kernel
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
    parameters and both engines' semantic versions (a kernel outside
    the fast path's envelope runs the scalar oracle), so editing timing
    rules orphans stale disk entries.

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


def _measurer(
    machine: Machine,
    entry_of: Dict[EntryKey, CalEntry],
    congestion: int,
    nwords: int,
) -> Callable[[EntryKey], float]:
    """Measure one table key on a harness built at the first call."""
    node: Optional[NodeMemorySystem] = None

    def measure(key: EntryKey) -> float:
        nonlocal node
        if node is None:
            node = machine.node_memory(nwords=nwords)
        return measure_entry(machine, node, entry_of[key], congestion=congestion)

    return measure


def measure_table(
    machine: Machine,
    congestion: Optional[int] = None,
    nwords: int = DEFAULT_MEASURE_WORDS,
    strides: Tuple[int, ...] = DEFAULT_STRIDES,
    use_cache: bool = True,
) -> ThroughputTable:
    """A calibration table that measures its entries on the simulators.

    Each entry is measured the first time a read needs it (see
    :meth:`~repro.core.calibration.ThroughputTable.defer`); the values
    equal those of measuring the whole grid at once.  The table is the
    cache's own object: entries ``set`` or merged into it reach later
    lookups of the same key and, once it measures again, its disk file.

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
    cache = default_cache()
    table = cache.lookup(key) if use_cache else None
    if table is None:
        table = ThroughputTable(
            f"{machine.name} (simulated, congestion {congestion})"
        )
        if use_cache:
            cache.store(key, table)
    if not table.deferred:
        # Fresh, or read back from a disk file that may hold part of
        # the grid.
        entry_of = {
            (_KIND_BY_LETTER[letter], _table_key(read), _table_key(write)): (
                letter, read, write,
            )
            for letter, read, write in calibration_entries(machine, strides)
        }
        table.defer(
            entry_of,
            _measurer(machine, entry_of, congestion, nwords),
            (lambda measured: cache.publish(key, measured)) if use_cache else None,
        )
    return table
