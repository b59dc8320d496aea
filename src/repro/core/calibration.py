"""Calibration tables: measured throughputs of basic transfers.

Section 4 of the paper measures a throughput figure (MB/s of *payload*,
with headers, addresses and index loads charged against the rate) for
every basic transfer on each machine.  A :class:`ThroughputTable` holds
such a set of figures and answers lookups for arbitrary transfers:

* exact entries are returned as stored;
* strided lookups between tabulated strides are interpolated linearly
  in ``log2(stride)``, matching the shape of the stride curves in
  Figure 4 (steep fall-off at small strides, flat tail);
* strided lookups beyond the largest tabulated stride return the
  largest-stride entry — the paper's rule that "the throughput for
  stride 64 applies to any larger stride";
* a transfer strided on *both* sides, when not tabulated directly, is
  approximated by charging each side's strided penalty once:
  ``1/r(x,y) = 1/r(x,1) + 1/r(1,y) - 1/r(1,1)``.

Tables are plain data.  They can be authored from the paper's published
numbers (:mod:`repro.machines`) or derived by running the simulators in
:mod:`repro.memsim` / :mod:`repro.netsim` through the measurement
harness (:mod:`repro.machines.measure`).  A measured table is
*deferred* (:meth:`ThroughputTable.defer`): it knows its grid and
measures each entry the first time a read needs it, as Section 4
measures only the basic transfers a composition names.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .errors import CalibrationError
from .patterns import AccessPattern, PatternKind
from .transfers import BasicTransfer, TransferKind

__all__ = ["PatternKey", "EntryKey", "pattern_key", "ThroughputTable"]

# A pattern key is "0", "1", "w", or an integer stride.
PatternKey = Union[str, int]
EntryKey = Tuple[TransferKind, PatternKey, PatternKey]


def pattern_key(pattern: AccessPattern) -> PatternKey:
    """Reduce an access pattern to its table key.

    Blocked strided patterns key by their stride alone: the tables do
    not distinguish block sizes, which affect throughput only weakly
    compared to the stride itself.
    """
    if pattern.kind is PatternKind.FIXED:
        return "0"
    if pattern.kind is PatternKind.CONTIGUOUS:
        return "1"
    if pattern.kind is PatternKind.INDEXED:
        return "w"
    assert pattern.stride is not None
    return pattern.stride


def _parse_key(key: Union[PatternKey, AccessPattern]) -> PatternKey:
    if isinstance(key, AccessPattern):
        return pattern_key(key)
    if isinstance(key, int):
        return key
    if key in ("0", "1", "w"):
        return key
    raise CalibrationError(f"invalid pattern key {key!r}")


class ThroughputTable:
    """A named mapping from basic transfers to throughput in MB/s.

    >>> table = ThroughputTable("demo")
    >>> table.set(TransferKind.COPY, "1", "1", 93.0)
    >>> table.set(TransferKind.COPY, "1", 64, 67.9)
    >>> from repro.core import transfers, patterns
    >>> table.lookup(transfers.copy(patterns.CONTIGUOUS, patterns.strided(128)))
    67.9
    """

    def __init__(self, name: str = "unnamed") -> None:
        self.name = name
        self._entries: Dict[EntryKey, float] = {}
        # A deferred table's grid, the grid keys not measured yet, and
        # what measures them (see ``defer``).
        self._grid: Tuple[EntryKey, ...] = ()
        self._pending: Dict[EntryKey, None] = {}
        self._measure: Optional[Callable[[EntryKey], float]] = None
        self._measured: Optional[Callable[["ThroughputTable"], None]] = None

    # -- population --------------------------------------------------------

    def defer(
        self,
        grid: Iterable[EntryKey],
        measure: Callable[[EntryKey], float],
        measured: Optional[Callable[["ThroughputTable"], None]] = None,
    ) -> None:
        """Measure every ``grid`` key not stored yet on first read.

        ``measure(key)`` returns one entry's rate; it must be a pure
        function of the key, so a table read in any order holds what
        measuring the whole grid up front would.  ``measured(table)``,
        when given, runs after each read that stored new entries.
        ``has`` and ``len`` answer from the grid; exact reads measure
        their key, stride interpolation the series it scans, and
        ``to_dict``, iteration and ``merge`` every entry.
        """
        self._grid = tuple(grid)
        self._pending = dict.fromkeys(
            key for key in self._grid if key not in self._entries
        )
        self._measure = measure
        self._measured = measured
        self._fill(())

    @property
    def deferred(self) -> bool:
        """Whether :meth:`defer` bound a measurer to this table."""
        return self._measure is not None

    def _store(self, key: EntryKey, mbps: float) -> None:
        if not (isinstance(mbps, (int, float)) and math.isfinite(mbps) and mbps > 0):
            raise CalibrationError(
                f"throughput must be a positive finite number, got {mbps!r}"
            )
        self._entries[key] = float(mbps)
        self._pending.pop(key, None)

    def _fill(self, keys: Iterable[EntryKey]) -> None:
        """Measure the pending keys among ``keys``.

        Once nothing is pending, the grid entries are moved ahead of
        the rest in grid order, as measuring up front stores them:
        ``to_dict`` folds every network key into its letter, so a later
        ``set`` of another network key must still come after the grid's.
        """
        wanted = [key for key in keys if key in self._pending]
        if wanted:
            assert self._measure is not None  # only defer() makes keys pending
            for key in wanted:
                self._store(key, self._measure(key))
        if not self._pending and self._grid:
            grid = {key: self._entries[key] for key in self._grid}
            self._entries = {**grid, **self._entries}
            self._grid = ()
        if wanted and self._measured is not None:
            self._measured(self)

    def set(
        self,
        kind: TransferKind,
        read: Union[PatternKey, AccessPattern],
        write: Union[PatternKey, AccessPattern],
        mbps: float,
    ) -> None:
        """Record the throughput of one basic transfer."""
        self._store((kind, _parse_key(read), _parse_key(write)), mbps)

    def set_transfer(self, transfer: BasicTransfer, mbps: float) -> None:
        """Record the throughput keyed by an existing transfer object."""
        self.set(transfer.kind, transfer.read, transfer.write, mbps)

    def merge(self, other: "ThroughputTable", overwrite: bool = True) -> None:
        """Copy entries from ``other`` into this table."""
        other._fill(other._pending)
        if not overwrite:
            self._fill(other._entries)
        for key, value in other._entries.items():
            if overwrite or key not in self._entries:
                self._store(key, value)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries) + len(self._pending)

    def __iter__(self) -> Iterator[Tuple[EntryKey, float]]:
        self._fill(self._pending)
        return iter(sorted(self._entries.items(), key=lambda item: repr(item[0])))

    def has(
        self,
        kind: TransferKind,
        read: Union[PatternKey, AccessPattern],
        write: Union[PatternKey, AccessPattern],
    ) -> bool:
        key = (kind, _parse_key(read), _parse_key(write))
        return key in self._entries or key in self._pending

    def get(
        self,
        kind: TransferKind,
        read: Union[PatternKey, AccessPattern],
        write: Union[PatternKey, AccessPattern],
    ) -> Optional[float]:
        """Exact-entry fetch; ``None`` when absent (no interpolation)."""
        key = (kind, _parse_key(read), _parse_key(write))
        self._fill((key,))
        return self._entries.get(key)

    def to_dict(self, measure: bool = True) -> Dict[str, float]:
        """Serialize to ``{"1C64": 67.9, ...}`` style keys.

        ``measure=False`` lists only the entries stored so far, so a
        deferred table can be saved without measuring the rest.
        """
        if measure:
            self._fill(self._pending)
        result = {}
        for (kind, read, write), value in self._entries.items():
            if kind.is_network:
                result[kind.letter] = value
            else:
                result[f"{read}{kind.letter}{write}"] = value
        return result

    # -- lookup ---------------------------------------------------------------

    def lookup(self, transfer: BasicTransfer) -> float:
        """Throughput for a basic transfer, interpolating strides.

        Raises :class:`CalibrationError` when no entry (or usable
        interpolation anchor) exists, naming the missing key so a
        calibration gap is easy to diagnose.
        """
        return self.lookup_kind(transfer.kind, transfer.read, transfer.write)

    def lookup_kind(
        self,
        kind: TransferKind,
        read: AccessPattern,
        write: AccessPattern,
    ) -> float:
        rkey = pattern_key(read)
        wkey = pattern_key(write)
        key = (kind, rkey, wkey)
        if key in self._pending:
            self._fill((key,))
        exact = self._entries.get(key)
        if exact is not None:
            return exact

        read_strided = isinstance(rkey, int)
        write_strided = isinstance(wkey, int)

        if read_strided and write_strided:
            return self._two_sided_strided(kind, rkey, wkey)
        if read_strided:
            return self._interpolate(kind, side="read", stride=rkey, other=wkey)
        if write_strided:
            return self._interpolate(kind, side="write", stride=wkey, other=rkey)

        raise CalibrationError(
            f"table {self.name!r} has no entry for {rkey}{kind.letter}{wkey}"
        )

    def _stride_points(
        self, kind: TransferKind, side: str, other: PatternKey
    ) -> List[Tuple[int, float]]:
        """All (stride, rate) anchors on one side, plus contiguous as stride 1."""

        def anchor(key: EntryKey) -> Optional[int]:
            entry_kind, rkey, wkey = key
            this, that = (rkey, wkey) if side == "read" else (wkey, rkey)
            if entry_kind is not kind or that != other:
                return None
            if isinstance(this, int):
                return this
            return 1 if this == "1" else None

        self._fill([key for key in self._pending if anchor(key) is not None])
        points: List[Tuple[int, float]] = []
        for key, rate in self._entries.items():
            stride = anchor(key)
            if stride is not None:
                points.append((stride, rate))
        points.sort()
        return points

    def _interpolate(
        self, kind: TransferKind, side: str, stride: int, other: PatternKey
    ) -> float:
        points = self._stride_points(kind, side, other)
        anchors = [p for p in points if p[0] >= 2]
        if not anchors:
            raise CalibrationError(
                f"table {self.name!r} has no strided {side} anchors for "
                f"{kind.letter} against pattern {other!r}"
            )
        if stride >= anchors[-1][0]:
            # Paper's rule: large strides behave like the largest tabulated one.
            return anchors[-1][1]
        below = max((p for p in points if p[0] <= stride), default=None)
        above = min((p for p in points if p[0] >= stride), default=None)
        if below is None:
            return above[1]
        if above is None or below[0] == above[0]:
            return below[1]
        # Linear in log2(stride): matches the Figure 4 fall-off shape.
        span = math.log2(above[0]) - math.log2(below[0])
        frac = (math.log2(stride) - math.log2(below[0])) / span
        return below[1] + frac * (above[1] - below[1])

    def _two_sided_strided(
        self, kind: TransferKind, rstride: int, wstride: int
    ) -> float:
        """Approximate ``xCy`` with both sides strided.

        Charges each side's penalty once on top of the contiguous rate:
        ``1/r = 1/r(x,1) + 1/r(1,y) - 1/r(1,1)``.
        """
        self._fill(((kind, "1", "1"),))
        base = self._entries.get((kind, "1", "1"))
        if base is None:
            raise CalibrationError(
                f"table {self.name!r} needs a 1{kind.letter}1 entry to "
                f"approximate {rstride}{kind.letter}{wstride}"
            )
        read_rate = self._interpolate(kind, "read", rstride, "1")
        write_rate = self._interpolate(kind, "write", wstride, "1")
        inverse = 1.0 / read_rate + 1.0 / write_rate - 1.0 / base
        if inverse <= 0:
            raise CalibrationError(
                f"inconsistent anchors for {rstride}{kind.letter}{wstride} "
                f"in table {self.name!r}"
            )
        return 1.0 / inverse

    def __repr__(self) -> str:
        return f"ThroughputTable({self.name!r}, entries={len(self)})"
