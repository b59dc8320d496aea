"""Calibration result caching.

Each entry of a simulated calibration table is a 32 Ki-word kernel
simulation, run the first time a read needs it (see
:func:`~repro.machines.measure.measure_table`), so the library caches
tables at two levels:

* an **in-process LRU** keyed by a content hash of everything the
  measurement depends on — the full :class:`~repro.memsim.config.NodeConfig`,
  stream length, index-run locality, congestion, stride anchors, the
  engine selection, and the engine semantic versions;
* an optional **on-disk layer** under ``.repro-cache/`` (override with
  the ``REPRO_CACHE_DIR`` environment variable) holding one JSON table
  per key.  A table is written when it is made and rewritten
  (:meth:`CalibrationCache.publish`) each time it measures new
  entries, so a file holds the entries read so far and repeat runs in
  fresh processes simulate only what no earlier run read.  Concurrent
  writers replace the file whole; a lost update costs a
  re-measurement, never a wrong value.

Invalidation is by key construction, never by mtime: any change to the
node parameters or to the engines' semantic versions
(:data:`~repro.memsim.engine.ENGINE_VERSION`,
:data:`~repro.memsim.fastpath.FASTPATH_VERSION`) produces a different
hash, and stale entries are simply never referenced again.  Delete the
cache directory — or run ``python -m repro calibrate --no-cache`` — to
bypass everything.

Set ``REPRO_CACHE=off`` to disable both layers process-wide.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Optional

from .contract import digest
from .core.calibration import ThroughputTable
from .core.serialization import table_from_dict, table_to_dict
from .trace.tracer import current_tracer

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "CalibrationCache",
    "content_key",
    "default_cache",
]

#: Environment variable selecting the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling caching altogether (``off``/``0``/``no``).
CACHE_ENV = "REPRO_CACHE"

#: Bump to orphan every existing disk entry (format changes).
_FORMAT_VERSION = "1"

_DEFAULT_DIR = ".repro-cache"
_DEFAULT_MAX_ENTRIES = 64


def _canonical(value: Any) -> Any:
    """Reduce a key part to JSON-stable plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                name: _canonical(part)
                for name, part in dataclasses.asdict(value).items()
            },
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(part) for part in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def content_key(*parts: Any) -> str:
    """A stable hex digest of arbitrary (mostly-dataclass) key parts."""
    return digest(_canonical(parts))


def _caching_disabled() -> bool:
    return os.environ.get(CACHE_ENV, "").strip().lower() in (
        "off",
        "0",
        "no",
        "false",
    )


class CalibrationCache:
    """Two-layer (memory LRU + disk JSON) cache of throughput tables.

    Args:
        max_entries: In-process LRU capacity.
        directory: On-disk location; ``None`` resolves ``REPRO_CACHE_DIR``
            or falls back to ``.repro-cache`` under the working
            directory.  Pass ``directory=False``-like empty string via
            ``use_disk=False`` to keep the cache memory-only.
        use_disk: Whether to mirror entries to disk.
    """

    def __init__(
        self,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
        directory: Optional[str] = None,
        use_disk: bool = True,
    ) -> None:
        self.max_entries = max_entries
        self.use_disk = use_disk
        self._directory = directory
        self._memory: "OrderedDict[str, ThroughputTable]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt = 0

    @property
    def directory(self) -> Path:
        configured = self._directory or os.environ.get(CACHE_DIR_ENV)
        return Path(configured) if configured else Path(_DEFAULT_DIR)

    def _path(self, key: str) -> Path:
        return self.directory / "tables" / f"{key}.json"

    @staticmethod
    def _trace(event: str, prefix: str = "calibration_cache") -> None:
        """Report one cache outcome to an active tracer, if any."""
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.inc(f"{prefix}.{event}")

    def lookup(self, key: str) -> Optional[ThroughputTable]:
        """Return the cached table for ``key``, or ``None``."""
        if _caching_disabled():
            return None
        table = self._memory.get(key)
        if table is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            self._trace("memory_hit")
            return table
        if self.use_disk:
            path = self._path(key)
            table = None
            try:
                with open(path) as handle:
                    table = table_from_dict(json.load(handle))
            except FileNotFoundError:
                pass
            except Exception:  # noqa: BLE001 - a truncated, corrupt or
                # unreadable entry is just a miss (it will be rewritten
                # on store), but a *counted* one: a recurring
                # cache.corrupt in traces means something is damaging
                # the cache directory.
                self.corrupt += 1
                self._trace("corrupt", prefix="cache")
            if table is not None:
                self._remember(key, table)
                self.disk_hits += 1
                self._trace("disk_hit")
                return table
        self.misses += 1
        self._trace("miss")
        return None

    def store(self, key: str, table: ThroughputTable) -> None:
        """Insert a table under ``key`` in both layers."""
        if _caching_disabled():
            return
        self._trace("store")
        self._remember(key, table)
        self.publish(key, table)

    def publish(self, key: str, table: ThroughputTable) -> None:
        """Rewrite ``key``'s disk file with the entries ``table`` holds.

        Measures nothing: a deferred table's unread entries stay out of
        the file.
        """
        if _caching_disabled() or not self.use_disk:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish so concurrent processes never read a
            # half-written table.
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(
                    table_to_dict(table, measure=False), handle, sort_keys=True
                )
            os.replace(tmp, path)
        except OSError:
            # A read-only or full filesystem degrades to the in-memory
            # layer; the counter keeps the degradation observable.
            self._trace("store_failed", prefix="cache")

    def _remember(self, key: str, table: ThroughputTable) -> None:
        self._memory[key] = table
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer; with ``disk=True`` also delete files."""
        self._memory.clear()
        if disk:
            tables = self.directory / "tables"
            if tables.is_dir():
                for path in tables.glob("*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self._memory)


_DEFAULT_CACHE = CalibrationCache()


def default_cache() -> CalibrationCache:
    """The process-wide calibration cache."""
    return _DEFAULT_CACHE
