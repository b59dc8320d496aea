"""High-level measurement interface to one node's memory system.

:class:`NodeMemorySystem` wraps the timeline engine with the stream
generators so callers can ask directly for the throughput of a basic
transfer — the Python equivalent of the paper's "simple experiments
using fine grain timers" (Section 4):

>>> from repro.machines import t3d
>>> node = t3d().node_memory()
>>> from repro.core.patterns import CONTIGUOUS, strided
>>> rate = node.measure_copy(CONTIGUOUS, strided(64))  # |1C64| in MB/s
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

from ..core.patterns import AccessPattern
from ..trace.tracer import current_tracer
from .config import NodeConfig
from .engine import KernelResult, MemoryEngine
from .fastpath import FastEngine, FastpathUnsupported
from .streams import DEFAULT_INDEX_RUN, AccessStream, make_stream

__all__ = [
    "NodeMemorySystem",
    "DEFAULT_MEASURE_WORDS",
    "ENGINE_ENV",
    "selected_engine",
]

#: Environment variable overriding every :class:`NodeMemorySystem`'s
#: engine selection: ``auto`` (default), ``fast`` (vectorized path,
#: error if a stream falls outside its envelope) or ``scalar`` (always
#: the reference oracle).
ENGINE_ENV = "REPRO_MEMSIM_ENGINE"

_ENGINE_MODES = ("auto", "fast", "scalar")


def selected_engine(default: str = "auto") -> str:
    """The engine mode ``REPRO_MEMSIM_ENGINE`` selects right now, or
    ``default`` when it is unset; an unknown mode raises ``ValueError``."""
    mode = os.environ.get(ENGINE_ENV) or default
    if mode not in _ENGINE_MODES:
        raise ValueError(
            f"{ENGINE_ENV} must be one of {_ENGINE_MODES}, got {mode!r}"
        )
    return mode


#: Default stream length for measurements: 32 Ki words = 256 KB, far
#: beyond both machines' first-level caches so cold-start effects wash
#: out, yet quick to simulate.
DEFAULT_MEASURE_WORDS = 32768

#: Byte distance between the source and destination regions of a copy.
#: Offset by one typical DRAM page so the regions fall in different banks
#: on interleaved memory systems (arrays allocated back to back rarely
#: share bank alignment).
_REGION_GAP = (1 << 24) + 256


class NodeMemorySystem:
    """Measurement harness over a :class:`~repro.memsim.engine.MemoryEngine`.

    Args:
        config: The node's hardware parameters.
        nwords: Stream length used for measurements.
        index_run: Locality run length for indexed streams (see
            :mod:`repro.memsim.streams`).
        occupancy_scale: Bus-arbitration multiplier passed to the engine.
        engine: ``"auto"`` uses the vectorized fast path when a stream
            qualifies and falls back to the scalar oracle otherwise;
            ``"fast"`` raises
            :class:`~repro.memsim.fastpath.FastpathUnsupported` instead
            of falling back; ``"scalar"`` always runs the oracle.  The
            ``REPRO_MEMSIM_ENGINE`` environment variable, when set,
            overrides this argument everywhere.

    Kernel results are memoized per instance: the streams are
    deterministic functions of ``(config, nwords, index_run,
    occupancy_scale, pattern)``, so re-measuring the same transfer is a
    dictionary lookup.  ``last_engine`` reports which engine produced
    the most recent (uncached) result.
    """

    def __init__(
        self,
        config: NodeConfig,
        nwords: int = DEFAULT_MEASURE_WORDS,
        index_run: int = DEFAULT_INDEX_RUN,
        occupancy_scale: float = 1.0,
        engine: str = "auto",
    ) -> None:
        if engine not in _ENGINE_MODES:
            raise ValueError(
                f"engine must be one of {_ENGINE_MODES}, got {engine!r}"
            )
        self.config = config
        self.nwords = nwords
        self.index_run = index_run
        self.occupancy_scale = occupancy_scale
        self.engine = engine
        self.last_engine: Optional[str] = None
        self.fastpath_fallbacks = 0
        self._results: Dict[Tuple, KernelResult] = {}
        # Kernel keys the fast path has already rejected, so ``auto``
        # mode neither re-attempts them nor re-counts the fallback.
        self._fast_unsupported: Dict[Tuple, bool] = {}

    def _engine(self) -> MemoryEngine:
        return MemoryEngine(self.config, occupancy_scale=self.occupancy_scale)

    def _resolve_engine_mode(self) -> str:
        return selected_engine(self.engine)

    def clear_cache(self) -> None:
        """Drop memoized kernel results."""
        self._results.clear()
        self._fast_unsupported.clear()

    @staticmethod
    def _count(*counts: Tuple[str, int]) -> None:
        """Hand ``(counter, value)`` pairs to an active tracer: the memory
        simulator's one tracer read (kernels never see a tracer)."""
        tracer = current_tracer()
        if tracer is not None:
            for name, value in counts:
                tracer.metrics.inc(name, value)

    def _memo_hit(self, result: KernelResult) -> KernelResult:
        self._count(("memsim.memo_hits", 1))
        return result

    def _run_with(
        self, key: Tuple, streams: Tuple[AccessStream, ...], used: str
    ) -> KernelResult:
        """Run kernel ``key`` on ``streams`` with the named engine and
        memoize under it.

        ``key[0]`` names the kernel: the engine method is
        ``run_<key[0]>``, which :class:`FastEngine` mirrors exactly.
        """
        engine = (
            FastEngine(self.config, occupancy_scale=self.occupancy_scale)
            if used == "fast"
            else self._engine()
        )
        result = getattr(engine, f"run_{key[0]}")(*streams)
        self.last_engine = used
        self._count(*result.counts, (f"memsim.engine.{used}", 1))
        self._results[key + (used,)] = result
        return result

    def _kernel(
        self, key: Tuple, build: Callable[[], Tuple[AccessStream, ...]]
    ) -> KernelResult:
        """Run a kernel on the selected engine, memoizing the result.

        ``build`` makes the kernel's streams.  It runs only on a memo
        miss, and at most once per miss: an ``auto`` fallback hands the
        scalar oracle the streams the fast path was offered.

        Results are memoized under the engine that *actually produced*
        them, not the mode that was requested: an ``auto`` query that
        ran on the fast path shares its memo entry with ``fast`` mode,
        and an ``auto`` fallback shares with ``scalar`` mode.  The two
        engines may differ in the last float ulp, so keying on the
        requested mode would let a toggled ``REPRO_MEMSIM_ENGINE``
        serve a value the named engine never computed — and re-simulate
        queries whose result already exists under the other name.
        """
        mode = self._resolve_engine_mode()
        if mode == "scalar":
            cached = self._results.get(key + ("scalar",))
            if cached is not None:
                return self._memo_hit(cached)
            return self._run_with(key, build(), "scalar")
        if mode == "fast":
            # Always attempt: a repeat of an unsupported kernel must
            # raise FastpathUnsupported again, identically.
            cached = self._results.get(key + ("fast",))
            if cached is not None:
                return self._memo_hit(cached)
            return self._run_with(key, build(), "fast")
        # ``auto``: fast path when the kernel qualifies, scalar oracle
        # otherwise, remembering which side each key landed on.
        streams = None
        if key not in self._fast_unsupported:
            cached = self._results.get(key + ("fast",))
            if cached is not None:
                return self._memo_hit(cached)
            streams = build()
            try:
                return self._run_with(key, streams, "fast")
            except FastpathUnsupported:
                # Count every fallback so a configuration that silently
                # never uses the fast path shows up in metrics.
                self._fast_unsupported[key] = True
                self.fastpath_fallbacks += 1
                self._count(("memsim.fastpath_unsupported", 1))
        cached = self._results.get(key + ("scalar",))
        if cached is not None:
            return self._memo_hit(cached)
        if streams is None:
            streams = build()
        return self._run_with(key, streams, "scalar")

    def _stream(
        self, pattern: AccessPattern, base: int = 0, seed: int = 12345
    ) -> AccessStream:
        return make_stream(
            pattern, self.nwords, base=base, seed=seed, index_run=self.index_run
        )

    # -- kernel measurements (full results) ---------------------------------

    def copy_result(
        self, read: AccessPattern, write: AccessPattern
    ) -> KernelResult:
        """Run ``xCy`` and return the full kernel result."""
        return self._kernel(
            ("copy", read, write),
            lambda: (
                self._stream(read, base=0, seed=12345),
                self._stream(write, base=_REGION_GAP, seed=54321),
            ),
        )

    def load_send_result(self, read: AccessPattern) -> KernelResult:
        """Run ``xS0`` and return the full kernel result."""
        return self._kernel(("load_send", read), lambda: (self._stream(read),))

    def receive_store_result(self, write: AccessPattern) -> KernelResult:
        """Run ``0Ry`` and return the full kernel result."""
        return self._kernel(
            ("receive_store", write), lambda: (self._stream(write),)
        )

    def deposit_result(self, write: AccessPattern) -> KernelResult:
        """Run ``0Dy`` and return the full kernel result."""
        return self._kernel(("deposit", write), lambda: (self._stream(write),))

    def fetch_send_result(self, nwords: Optional[int] = None) -> KernelResult:
        """Run ``1F0`` and return the full kernel result."""
        count = nwords or self.nwords
        # O(1) closed form in the scalar engine already; no fast twin.
        result = self._engine().run_fetch_send(count)
        self._count(*result.counts)
        return result

    def load_stream_result(self, read: AccessPattern) -> KernelResult:
        """Run a pure load stream (Section 3.5.1 read bandwidth)."""
        return self._kernel(
            ("load_stream", read), lambda: (self._stream(read),)
        )

    def store_stream_result(self, write: AccessPattern) -> KernelResult:
        """Run a pure store stream."""
        return self._kernel(
            ("store_stream", write), lambda: (self._stream(write),)
        )

    # -- throughput shorthands -----------------------------------------------

    def measure_load_stream(self, read: AccessPattern) -> float:
        """Pure read bandwidth in MB/s."""
        return self.load_stream_result(read).mbps

    def measure_store_stream(self, write: AccessPattern) -> float:
        """Pure write bandwidth in MB/s."""
        return self.store_stream_result(write).mbps

    def load_latency_ns(self) -> float:
        """Cold main-memory load latency in ns."""
        return self._engine().load_latency_ns()

    def measure_copy(self, read: AccessPattern, write: AccessPattern) -> float:
        """``|xCy|`` in MB/s."""
        return self.copy_result(read, write).mbps

    def measure_load_send(self, read: AccessPattern) -> float:
        """``|xS0|`` in MB/s."""
        return self.load_send_result(read).mbps

    def measure_receive_store(self, write: AccessPattern) -> float:
        """``|0Ry|`` in MB/s."""
        return self.receive_store_result(write).mbps

    def measure_deposit(self, write: AccessPattern) -> float:
        """``|0Dy|`` in MB/s."""
        return self.deposit_result(write).mbps

    def measure_fetch_send(self) -> float:
        """``|1F0|`` in MB/s."""
        return self.fetch_send_result().mbps

    def supports_deposit(self, write: AccessPattern) -> bool:
        return self.config.deposit.supports(write.is_contiguous)

    @property
    def has_dma(self) -> bool:
        return self.config.dma.present
