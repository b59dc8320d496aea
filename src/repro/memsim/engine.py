"""The memory-system timeline engine.

Executes the optimized transfer loops of Section 3.2 — local copies,
load-sends, receive-stores, deposits, DMA fetches — against the node's
DRAM, cache, write buffer and prefetch units, and reports how long the
stream took.  This is the "live system" our measurements run on, in
place of the paper's T3D and Paragon hardware.

The engine tracks a small set of clocks:

* ``cpu_t`` — the processor's instruction stream;
* ``dram_free`` — when the (single, non-interleaved) DRAM is next idle;
* a bounded queue of posted stores that drain to DRAM in batches
  (the write-back queue); the CPU stalls only when the queue is full;
* a bounded set of outstanding pipelined loads (i860 ``pfld`` /
  prefetch queue) or read-ahead line prefetches (T3D RDAL).

Blocking loads (Alpha 21064) pay full DRAM latency; posted writes pay
only occupancy.  That asymmetry — plus open-page hits and line
merging — is what makes strided stores cheap on the T3D and pipelined
strided loads comparatively cheap on the Paragon, reproducing the
Figure 4 cross-over *mechanistically*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Tuple

from .cache import Cache
from .config import WORD_BYTES, NodeConfig
from .dram import DRAM
from .streams import AccessStream

__all__ = ["KernelResult", "MemoryEngine", "ENGINE_VERSION"]

#: Semantic version of the timeline rules.  Bump whenever a change can
#: alter any kernel's timing or hit rates — it is part of every
#: calibration cache key (see :mod:`repro.caching`), so bumping it
#: orphans stale cached tables.  "2": page-kick boundary accounting and
#: read-ahead window eviction fixes.
ENGINE_VERSION = "2"

#: Ratio of MB (1e6 bytes) to ns for MB/s conversion: bytes / ns * 1000.
_NS_PER_S = 1e9


@dataclass(frozen=True)
class KernelResult:
    """The outcome of running one transfer loop.

    Attributes:
        ns: Total wall-clock time of the loop in nanoseconds.
        nwords: Payload words moved.
        cache_hit_rate: Data-cache hit rate over the run.
        dram_page_hit_rate: DRAM open-page hit rate over the run.
        counts: The run's event tallies as ordered ``(counter, value)``
            pairs, which the node harness hands to an active tracer;
            they take no part in equality.
    """

    ns: float
    nwords: int
    cache_hit_rate: float = 0.0
    dram_page_hit_rate: float = 0.0
    counts: Tuple[Tuple[str, int], ...] = field(default=(), compare=False)

    @property
    def mbps(self) -> float:
        """Payload throughput in MB/s (MB = 1e6 bytes, as in the paper)."""
        if self.ns <= 0:
            return float("inf")
        return self.nwords * WORD_BYTES / self.ns * _NS_PER_S / 1e6


_PROCESSOR_COUNTERS = (
    "memsim.kernels", "memsim.cache_hits", "memsim.cache_misses",
    "memsim.dirty_evictions", "memsim.page_hits", "memsim.page_misses",
    "memsim.wb_drains",
)


def processor_counts(*tallies: int) -> Tuple[Tuple[str, int], ...]:
    """Name one processor (or scalar deposit) kernel run's tallies: cache
    hits, misses, dirty evictions, page hits, misses, write-buffer drains."""
    return tuple(zip(_PROCESSOR_COUNTERS, (1,) + tallies))


def cap_by_ni(node: NodeConfig, result: KernelResult) -> KernelResult:
    """Apply the NI FIFO bandwidth cap to a send/receive kernel."""
    fifo = node.ni.fifo_mbps
    if fifo <= 0:
        return result
    floor_ns = result.nwords * WORD_BYTES / fifo * 1000.0
    if result.ns >= floor_ns:
        return result
    return replace(result, ns=floor_ns)


def readahead_active(
    node: NodeConfig, read: AccessStream, writes_to_dram: bool
) -> bool:
    """Whether the read-ahead unit engages on ``read``."""
    cfg = node.read_ahead
    if not cfg.enabled or not read.pattern.is_contiguous:
        return False
    return cfg.survives_writes or not writes_to_dram


def check_deposit_pattern(node: NodeConfig, write: AccessStream) -> None:
    """Raise ``ValueError`` when the deposit engine cannot take ``write``."""
    if not node.deposit.supports(write.pattern.is_contiguous):
        raise ValueError(
            f"deposit engine ({node.deposit.patterns}) cannot handle "
            f"write pattern {write.pattern}"
        )


class MemoryEngine:
    """Runs transfer loops on one node's memory system.

    Engines are cheap to construct and hold no state between runs;
    every ``run_*`` method starts from cold caches and closed DRAM
    pages, like the paper's steady-state measurements on large blocks
    (the cold-start transient is negligible at the default stream
    lengths).

    Args:
        node: The node's hardware parameters.
        occupancy_scale: Multiplier on every DRAM occupancy, used to
            model bus-arbitration losses when a second master (DMA,
            co-processor) interleaves fine-grained accesses
            (Section 5.1.4 reports up to 50% on the Paragon — scale 2.0
            halves effective memory bandwidth).
    """

    def __init__(self, node: NodeConfig, occupancy_scale: float = 1.0) -> None:
        self.node = node
        self.occupancy_scale = occupancy_scale
        self._reset()

    # -- run state -----------------------------------------------------------

    def _reset(self) -> None:
        self.dram = DRAM(self.node.dram)
        self.cache = Cache(self.node.cache)
        self.cpu_t = 0.0
        self.dram_free = 0.0
        #: Write-buffer drains performed this run (observability only).
        self.drains = 0
        # Posted stores waiting to drain: list of (address, words) entries.
        self._store_batch: list = []
        self._batch_drained_at = 0.0
        # Outstanding pipelined loads: completion times, oldest first.
        self._pipe: Deque[float] = deque()
        # Read-ahead: prefetched line address -> data-ready time.
        self._prefetched: Dict[int, float] = {}

    def _occ(self, ns: float) -> float:
        return ns * self.occupancy_scale

    # -- store path ------------------------------------------------------------

    def _drain_stores(self) -> None:
        """Drain the posted-store batch to DRAM back to back."""
        if not self._store_batch:
            return
        self.drains += 1
        start = max(self.dram_free, self._batch_drained_at)
        for address, words in self._store_batch:
            occupancy = self.dram.write_burst(address, words)
            start = max(start, self.dram_free)
            self.dram_free = start + self._occ(occupancy)
            start = self.dram_free
        self._store_batch = []
        self._batch_drained_at = self.dram_free

    def _enqueue_writeback(self, line_address: int) -> None:
        """Queue a dirty line's write-back behind the posted stores."""
        self._store_batch.append((line_address, self.node.cache.line_words))
        if len(self._store_batch) >= self.node.write_buffer.depth:
            self.cpu_t = max(self.cpu_t, self._batch_drained_at)
            self._drain_stores()

    def _store(self, address: int) -> None:
        """One posted word store through the write buffer."""
        cfg = self.node
        self.cpu_t += cfg.processor.store_issue_cycles * cfg.processor.cycle_ns
        if cfg.cache.write_policy == "through":
            self.cache.lookup_store(address)
        elif cfg.cache.write_policy == "back":
            # Write-allocate: a miss fills the line (blocking read) and
            # the store dirties it; the word itself stays in the cache.
            hit, evicted = self.cache.store_allocate(address)
            if not hit:
                line = (address // cfg.cache.line_bytes) * cfg.cache.line_bytes
                self._load_blocking(line, cfg.cache.line_words)
            if evicted is not None and evicted[1]:
                self._enqueue_writeback(evicted[0])
            return

        if cfg.write_buffer.merge and self._store_batch:
            last_address, last_words = self._store_batch[-1]
            line = cfg.cache.line_bytes
            if last_address // line == address // line:
                self._store_batch[-1] = (last_address, last_words + 1)
                return
        self._store_batch.append((address, 1))
        if len(self._store_batch) >= cfg.write_buffer.depth:
            # The CPU may run one batch ahead of the drain; it stalls
            # until the previous batch has left the queue.
            self.cpu_t = max(self.cpu_t, self._batch_drained_at)
            self._drain_stores()

    # -- load path ----------------------------------------------------------------

    def _dram_read(self, address: int, words: int) -> tuple:
        """Schedule a demand read; returns (data_ready_t, ) side effects."""
        start = max(self.cpu_t, self.dram_free)
        latency, occupancy = self.dram.read_burst(address, words)
        self.dram_free = start + self._occ(occupancy)
        return start + latency

    def _load_blocking(self, address: int, words: int) -> None:
        self.cpu_t = max(self.cpu_t, self._dram_read(address, words))

    def _load_pipelined(self, address: int, words: int, depth: int) -> None:
        if len(self._pipe) >= depth:
            self.cpu_t = max(self.cpu_t, self._pipe.popleft())
        start = max(self.cpu_t, self.dram_free)
        latency, occupancy = self.dram.read_burst(address, words)
        self.dram_free = start + self._occ(occupancy)
        self._pipe.append(start + latency)

    def _load_readahead(self, line_address: int) -> None:
        """A line fill under RDAL: consume a prefetch, schedule more."""
        cfg = self.node
        line_bytes = cfg.cache.line_bytes
        words = cfg.cache.line_words
        ready = self._prefetched.pop(line_address, None)
        if ready is not None:
            self.cpu_t = max(self.cpu_t, ready)
        else:
            self._load_blocking(line_address, words)
        for ahead in range(1, cfg.read_ahead.depth + 1):
            next_line = line_address + ahead * line_bytes
            if next_line not in self._prefetched:
                start = max(self.cpu_t, self.dram_free)
                latency, occupancy = self.dram.read_burst(next_line, words)
                self.dram_free = start + self._occ(occupancy)
                self._prefetched[next_line] = start + latency
        # The read-ahead unit tracks one stream window: lines at or
        # behind the current fill, or beyond the look-ahead horizon,
        # fall out of the detector.  Without this eviction a stream
        # that jumps and returns would collect free hits from fills
        # issued arbitrarily long ago, and the table would grow without
        # bound over a long run.
        horizon = line_address + cfg.read_ahead.depth * line_bytes
        if len(self._prefetched) > cfg.read_ahead.depth:
            self._prefetched = {
                line: when
                for line, when in self._prefetched.items()
                if line_address < line <= horizon
            }

    def _load(
        self, address: int, readahead_active: bool, force_cached: bool = False
    ) -> None:
        """One data load through cache / prefetch units.

        ``force_cached`` routes the load through the cache even when
        pipelined loads bypass it — integer index-array loads use plain
        cached loads, not the floating-point pipelined path.
        """
        cfg = self.node
        self.cpu_t += cfg.processor.load_issue_cycles * cfg.processor.cycle_ns
        depth = cfg.processor.pipelined_load_depth

        if (
            depth > 0
            and cfg.processor.pipelined_loads_bypass_cache
            and not force_cached
        ):
            self._load_pipelined(address, 1, depth)
            return

        if cfg.cache.write_policy == "back":
            hit, evicted = self.cache.load_allocate(address)
            if evicted is not None and evicted[1]:
                self._enqueue_writeback(evicted[0])
            if hit:
                self.cpu_t += cfg.cache.hit_ns
                return
            line_address = (address // cfg.cache.line_bytes) * cfg.cache.line_bytes
            words = cfg.cache.line_words
            if readahead_active:
                self._load_readahead(line_address)
            elif depth > 0:
                self._load_pipelined(line_address, words, depth)
            else:
                self._load_blocking(line_address, words)
            return

        if self.cache.lookup_load(address):
            self.cpu_t += cfg.cache.hit_ns
            return

        line_address = (address // cfg.cache.line_bytes) * cfg.cache.line_bytes
        words = cfg.cache.line_words
        if readahead_active:
            self._load_readahead(line_address)
        elif depth > 0:
            self._load_pipelined(line_address, words, depth)
        else:
            self._load_blocking(line_address, words)

    def _finish(self, nwords: int) -> KernelResult:
        """Drain queues and package the result."""
        self._drain_stores()
        while self._pipe:
            self.cpu_t = max(self.cpu_t, self._pipe.popleft())
        ns = max(self.cpu_t, self.dram_free)
        return KernelResult(
            ns=ns,
            nwords=nwords,
            cache_hit_rate=self.cache.hit_rate,
            dram_page_hit_rate=self.dram.hit_rate,
            counts=self._counts(),
        )

    def _counts(self) -> Tuple[Tuple[str, int], ...]:
        return processor_counts(
            self.cache.hits,
            self.cache.misses,
            self.cache.dirty_evictions,
            self.dram.page_hits,
            self.dram.page_misses,
            self.drains,
        )

    def _index_load(self, address: int) -> None:
        """A 4-byte index-array load (contiguous, usually cache hits)."""
        cfg = self.node.processor
        self.cpu_t += cfg.index_extra_cycles * cfg.cycle_ns
        self._load(address, readahead_active=False, force_cached=True)

    # -- public kernels ------------------------------------------------------------

    def run_load_stream(self, read: AccessStream) -> KernelResult:
        """A pure load stream: the Section 3.5.1 'local read bandwidth'.

        No stores at all, so contiguous streams keep their read-ahead
        benefit — this is the kernel behind the Cray documentation's
        "55 MB/s for non-contiguous single word transfers, and up to
        320 MB/s for contiguous reading of cache lines with read-ahead".
        """
        self._reset()
        cfg = self.node.processor
        overhead = cfg.loop_overhead_cycles * cfg.cycle_ns
        readahead = readahead_active(self.node, read, writes_to_dram=False)
        read_index = read.index_addresses
        for i in range(read.nwords):
            if read_index is not None:
                self._index_load(int(read_index[i]))
            self._load(int(read.addresses[i]), readahead)
            self.cpu_t += overhead
        return self._finish(read.nwords)

    def run_store_stream(self, write: AccessStream) -> KernelResult:
        """A pure store stream through the write buffer."""
        self._reset()
        cfg = self.node.processor
        overhead = cfg.loop_overhead_cycles * cfg.cycle_ns
        write_index = write.index_addresses
        for i in range(write.nwords):
            if write_index is not None:
                self._index_load(int(write_index[i]))
            self._store(int(write.addresses[i]))
            self.cpu_t += overhead
        return self._finish(write.nwords)

    def load_latency_ns(self, address: int = 0) -> float:
        """Load-to-use latency of one cold load from main memory.

        The critical word's DRAM latency (the rest of the line fill
        streams behind it).  The paper quotes ~150 ns for the T3D
        (Section 3.5.1).
        """
        self._reset()
        latency, __ = self.dram.read(address)
        return latency + self.node.cache.hit_ns

    def run_copy(self, read: AccessStream, write: AccessStream) -> KernelResult:
        """A local memory-to-memory copy ``xCy``: unrolled load/store loop."""
        if read.nwords != write.nwords:
            raise ValueError("read and write streams must have equal length")
        self._reset()
        cfg = self.node.processor
        overhead = cfg.loop_overhead_cycles * cfg.cycle_ns
        readahead = readahead_active(self.node, read, writes_to_dram=True)
        read_index = read.index_addresses
        write_index = write.index_addresses
        for i in range(read.nwords):
            if read_index is not None:
                self._index_load(int(read_index[i]))
            self._load(int(read.addresses[i]), readahead)
            if write_index is not None:
                self._index_load(int(write_index[i]))
            self._store(int(write.addresses[i]))
            self.cpu_t += overhead
        return self._finish(read.nwords)

    def run_load_send(self, read: AccessStream) -> KernelResult:
        """A load-send ``xS0``: loads plus stores to the NI port.

        NI-port stores do not touch DRAM, so a contiguous load stream
        keeps its read-ahead benefit — the effect that makes ``1S0``
        faster than ``1C1`` on the T3D.
        """
        self._reset()
        cfg = self.node
        overhead = cfg.processor.loop_overhead_cycles * cfg.processor.cycle_ns
        readahead = readahead_active(self.node, read, writes_to_dram=False)
        read_index = read.index_addresses
        for i in range(read.nwords):
            if read_index is not None:
                self._index_load(int(read_index[i]))
            self._load(int(read.addresses[i]), readahead)
            self.cpu_t += cfg.ni.store_ns + overhead
        return cap_by_ni(cfg, self._finish(read.nwords))

    def run_receive_store(self, write: AccessStream) -> KernelResult:
        """A receive-store ``0Ry``: NI-port loads plus pattern stores."""
        self._reset()
        cfg = self.node
        overhead = cfg.processor.loop_overhead_cycles * cfg.processor.cycle_ns
        write_index = write.index_addresses
        for i in range(write.nwords):
            self.cpu_t += cfg.ni.load_ns
            if write_index is not None:
                self._index_load(int(write_index[i]))
            self._store(int(write.addresses[i]))
            self.cpu_t += overhead
        return cap_by_ni(cfg, self._finish(write.nwords))

    def run_deposit(self, write: AccessStream) -> KernelResult:
        """A receive-deposit ``0Dy``: the deposit engine stores incoming
        words (or address-data pairs) without processor involvement."""
        cfg = self.node
        check_deposit_pattern(cfg, write)
        self._reset()
        engine_t = 0.0
        merge = write.pattern.is_contiguous
        word_ns = (
            cfg.deposit.contiguous_word_ns if merge else cfg.deposit.pair_word_ns
        )
        line = cfg.cache.line_bytes
        pending_address = None
        pending_words = 0
        for i in range(write.nwords):
            engine_t += word_ns
            address = int(write.addresses[i])
            if merge and pending_address is not None:
                if pending_address // line == address // line:
                    pending_words += 1
                    continue
            if pending_address is not None:
                start = max(engine_t, self.dram_free)
                occ = self.dram.write_burst(pending_address, pending_words)
                self.dram_free = start + self._occ(occ)
            pending_address, pending_words = address, 1
        if pending_address is not None:
            start = max(engine_t, self.dram_free)
            occ = self.dram.write_burst(pending_address, pending_words)
            self.dram_free = start + self._occ(occ)
        result = KernelResult(
            ns=max(engine_t, self.dram_free),
            nwords=write.nwords,
            dram_page_hit_rate=self.dram.hit_rate,
            counts=self._counts(),
        )
        return cap_by_ni(cfg, result)

    def run_fetch_send(self, nwords: int) -> KernelResult:
        """A fetch-send ``1F0``: the DMA streams a contiguous block.

        Crossing a DMA page boundary stalls the engine until a
        processor kick, per the Paragon line-transfer-unit behaviour.
        """
        cfg = self.node
        if not cfg.dma.present:
            raise ValueError(f"node {cfg.name!r} has no DMA engine")
        bytes_total = nwords * WORD_BYTES
        # A kick is owed per page *boundary crossed*, not per page of
        # payload: a transfer ending exactly on a boundary (bytes_total
        # an exact multiple of the page size) crosses one boundary
        # fewer than the quotient suggests.
        if bytes_total <= 0:
            pages_crossed = 0
        else:
            pages_crossed = (bytes_total - 1) // cfg.dma.page_bytes
        ns = (
            cfg.dma.setup_ns
            + nwords * cfg.dma.word_ns
            + pages_crossed * cfg.dma.page_kick_ns
        )
        counts = (("memsim.kernels", 1), ("memsim.dma_page_kicks", pages_crossed))
        return cap_by_ni(cfg, KernelResult(ns=ns, nwords=nwords, counts=counts))
