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

import dataclasses
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.patterns import AccessPattern
from ..trace.tracer import current_tracer
from .config import NodeConfig
from .engine import KernelResult, MemoryEngine
from .fastpath import FastEngine, FastpathUnsupported
from .streams import DEFAULT_INDEX_RUN, AccessStream, make_stream

__all__ = ["NodeMemorySystem", "DEFAULT_MEASURE_WORDS"]


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

    Each kernel runs on the vectorized fast path when its streams
    qualify and on the scalar oracle otherwise; ``fastpath_fallbacks``
    counts the kernels that fell back.  Kernel results are memoized per
    instance: the streams are deterministic functions of ``(config,
    nwords, index_run, occupancy_scale, pattern)``, so re-measuring the
    same transfer is a dictionary lookup.  ``last_engine`` reports which
    engine produced the most recent (uncached) result.  The word
    offsets of each indexed stream are kept too, read-only and by seed
    (``nwords`` and ``index_run`` are fixed per instance), so the
    kernels reading ``ω`` on one side share one draw of it.
    """

    def __init__(
        self,
        config: NodeConfig,
        nwords: int = DEFAULT_MEASURE_WORDS,
        index_run: int = DEFAULT_INDEX_RUN,
        occupancy_scale: float = 1.0,
    ) -> None:
        self.config = config
        self.nwords = nwords
        self.index_run = index_run
        self.occupancy_scale = occupancy_scale
        self.last_engine: Optional[str] = None
        self.fastpath_fallbacks = 0
        self._results: Dict[Tuple, KernelResult] = {}
        self._indexed_offsets: Dict[int, np.ndarray] = {}

    def _engine(self) -> MemoryEngine:
        return MemoryEngine(self.config, occupancy_scale=self.occupancy_scale)

    def clear_cache(self) -> None:
        """Drop memoized kernel results."""
        self._results.clear()

    @staticmethod
    def _count(*counts: Tuple[str, int]) -> None:
        """Hand ``(counter, value)`` pairs to an active tracer: the memory
        simulator's one tracer read (kernels never see a tracer)."""
        tracer = current_tracer()
        if tracer is not None:
            for name, value in counts:
                tracer.metrics.inc(name, value)

    def _kernel(
        self, key: Tuple, build: Callable[[], Tuple[AccessStream, ...]]
    ) -> KernelResult:
        """Run a kernel once, memoizing its result under ``key``.

        ``key[0]`` names the kernel: the engine method is
        ``run_<key[0]>``, which :class:`FastEngine` mirrors exactly.
        On a memo miss ``build`` makes the streams once.  The fast path
        runs them; a kernel outside its envelope runs the scalar oracle
        on the same streams instead.  The memo keeps either result, so
        a repeat neither re-attempts the fast path nor re-counts the
        fallback.
        """
        cached = self._results.get(key)
        if cached is not None:
            self._count(("memsim.memo_hits", 1))
            return cached
        streams = build()
        run = f"run_{key[0]}"
        try:
            fast = FastEngine(self.config, occupancy_scale=self.occupancy_scale)
            result = getattr(fast, run)(*streams)
            used = "fast"
        except FastpathUnsupported:
            # Count every fallback so a configuration that silently
            # never uses the fast path shows up in metrics.
            self.fastpath_fallbacks += 1
            self._count(("memsim.fastpath_unsupported", 1))
            result = getattr(self._engine(), run)(*streams)
            used = "scalar"
        self.last_engine = used
        self._count(*result.counts, (f"memsim.engine.{used}", 1))
        self._results[key] = result
        return result

    def _stream(
        self, pattern: AccessPattern, base: int = 0, seed: int = 12345
    ) -> AccessStream:
        return make_stream(
            pattern,
            self.nwords,
            base=base,
            seed=seed,
            index_run=self.index_run,
            offsets_by_seed=self._indexed_offsets,
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
        # A deposit reads no index array: drop an indexed stream's, so
        # it is not held while the kernel runs.
        return self._kernel(
            ("deposit", write),
            lambda: (
                dataclasses.replace(self._stream(write), index_addresses=None),
            ),
        )

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
