"""Vectorized fast path for the memory-system timeline engine.

:class:`FastEngine` computes the same :class:`~repro.memsim.engine.KernelResult`
as :class:`~repro.memsim.engine.MemoryEngine` — same nanoseconds, same
hit rates — but replaces the per-word Python dispatch with three batch
stages:

1. **Classification** (pure numpy): cache hit/miss per probe, dirty
   evictions, the write-buffer's entry/merge/drain structure, and the
   DRAM open-page hit/miss of every memory operation.  None of these
   depend on the clocks, only on address order, so they vectorize
   exactly.
2. **Compilation**: the classified stream is reduced to a short array
   of timeline *events* — blocking line fills, pipelined fills,
   write-buffer drains, read-ahead fills — each carrying the processor
   time accumulated since the previous event.  Words that stay inside
   the cache or the write buffer produce no event at all.
3. **Replay**: one tight loop advances the engine's clocks (``cpu_t``,
   ``dram_free``, the posted-store drain point, the pipelined-load
   queue, the read-ahead window) over the event array.  The arithmetic
   is the scalar engine's, in the scalar engine's order, so results
   agree to float rounding (~1e-12 relative).

A processor kernel runs the three stages over fixed blocks of
``_BLOCK_WORDS`` words, carrying the engine state from one block to the
next: cache contents, the open DRAM page per bank, pending write-buffer
entries, read-ahead progress, the replay clocks and queues, and the
running sum of processor-time increments.  Kernel temporaries therefore
scale with the block, not the stream, and every event sees the
increment the whole stream would give it, bit for bit.

The fast path is an optimization, not a new model: the scalar
``MemoryEngine`` remains the reference oracle, and a stream that falls
outside the envelope below raises :class:`FastpathUnsupported` so
callers (see :class:`~repro.memsim.node.NodeMemorySystem`) fall back.

Supported envelope:

* cache write policies ``"around"`` and ``"through"``, and
  ``"back"`` (write-allocate, dirty lines written back on eviction)
  with at most 2 ways — exact for arbitrary address streams;
* around/through caches either direct-mapped (exact classification
  for arbitrary address streams) or, for higher associativity, probe
  streams that never revisit an evicted line (monotone per channel,
  disjoint regions across channels — true of every stream the
  measurement harness generates);
* read-ahead on strictly contiguous load streams;
* write-buffer depth < 256 and read-ahead depth <= 16.

Every kernel of the Section 4 calibration grid on every registered
machine qualifies; ``tests/properties`` holds the hypothesis parity
suite that enforces oracle agreement.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from .config import CacheConfig, NodeConfig
from .engine import (
    KernelResult,
    MemoryEngine,
    cap_by_ni,
    check_deposit_pattern,
    processor_counts,
    readahead_active,
)
from .streams import AccessStream

__all__ = ["FastEngine", "FastpathUnsupported", "FASTPATH_VERSION"]

#: Bumped whenever fastpath semantics change; part of calibration cache keys.
#: "2": write-back caches of at most 2 ways, block-wise compilation.
FASTPATH_VERSION = "2"

#: Words compiled and replayed per block.  Bounds every kernel temporary.
_BLOCK_WORDS = 2048

# -- position keys -------------------------------------------------------------
#
# Every per-word action gets a key ``word * 64 + slot`` so increments,
# probes and memory operations from different channels interleave in
# exactly the scalar engine's program order.  Memory operations append
# an intra-slot index (``key * 256 + intra``) to order the several
# write bursts of one drain.

_S_PRE = 0        # constants before the index-read fill
_S_IDX_R_WB = 1   # write-back of the line the read-side index load evicts
_S_IDX_R = 2      # read-side index-array line fill
_S_DATA_PRE = 4   # constants before the data access
_S_DATA_WB = 5    # write-back of the line the data load evicts
_S_DATA = 6       # data line fill / pipelined load / read-ahead consume
_S_SCHED = 8      # read-ahead prefetch fills (slots 8 .. 8+depth-1)
_S_POST = 24      # constants after the data access (NI port store)
_S_IDX_W_PRE = 26
_S_IDX_W_WB = 27  # write-back of the line the write-side index load evicts
_S_IDX_W = 28     # write-side index-array line fill
_S_STORE_PRE = 30
_S_STORE_FILL = 31  # write-allocate line fill of a missing store
_S_STORE = 32     # write-buffer drain triggered by this word's store
_S_OVERHEAD = 34  # loop overhead

_MAX_READAHEAD_DEPTH = 16
_MAX_WB_DEPTH = 255

# Event opcodes replayed by the timeline loop.
_EV_BLOCKING = 0
_EV_DRAIN = 1
_EV_PIPE = 2
_EV_RA_CONSUME = 3
_EV_RA_SCHED = 4
_EV_FINAL_DRAIN = 5


class FastpathUnsupported(Exception):
    """The stream/config combination is outside the vectorized envelope."""


# -- vector helpers ------------------------------------------------------------


def _prev_equal_in_group(
    group: np.ndarray, value: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """True where the previous element of the same group has equal value.

    ``state[g]`` is group ``g``'s value before the first element (-1:
    none); it is updated in place to each group's last value.  The
    open-page rule for a multi-bank DRAM: group by bank, compare each
    access's page with the previous access to the same bank.
    """
    n = group.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    prev = np.empty(n, dtype=np.int64)
    if state.shape[0] == 1:
        prev[0] = state[0]
        prev[1:] = value[:-1]
        state[0] = value[-1]
        return prev == value
    order = np.argsort(group, kind="stable")
    g = group[order]
    v = value[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(g[1:], g[:-1], out=first[1:])
    prev[1:] = v[:-1]
    prev[first] = state[g[first]]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    state[g[last]] = v[last]
    hit = np.empty(n, dtype=bool)
    hit[order] = prev == v
    return hit


def _last_install_matches(
    group: np.ndarray, value: np.ndarray, install: np.ndarray,
    state: np.ndarray,
) -> np.ndarray:
    """True where the latest earlier *installing* probe of the same group
    recorded the same value.

    This is the exact hit rule of a direct-mapped cache: the group is
    the set index, the value the line id, and probes that do not
    install (write-through stores) observe without changing state.
    ``state[g]`` is the line installed in set ``g`` before the first
    probe (-1: none), updated in place to the line installed after the
    last.
    """
    n = group.shape[0]
    order = np.argsort(group, kind="stable")
    g = group[order]
    v = value[order]
    inst = install[order]
    idx = np.arange(n, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(g[1:], g[:-1], out=boundary[1:])
    offset = (np.cumsum(boundary) - 1) * np.int64(n)
    # Marker of the most recent install seen so far, segment-disambiguated.
    marker = np.where(inst, idx + offset + 1, np.int64(0))
    cummax = np.maximum.accumulate(marker)
    prev = np.empty(n, dtype=np.int64)
    prev[0] = 0
    prev[1:] = cummax[:-1]
    valid = prev > offset
    prev_idx = np.where(valid, prev - offset - 1, 0)
    hit_sorted = np.where(valid, v[prev_idx] == v, state[g] == v)
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = boundary[1:]
    end = cummax[last] - offset[last]
    installed = end > 0
    state[g[last][installed]] = v[end[installed] - 1]
    hits = np.empty(n, dtype=bool)
    hits[order] = hit_sorted
    return hits


# -- probe channels and cache models -------------------------------------------


class _ProbeChannel:
    """One interleaved stream of cache probes (data loads, index loads,
    or store lookups), with its per-word position slots."""

    def __init__(
        self,
        slot: int,
        addresses: np.ndarray,
        install: bool,
        store: bool = False,
        evict_slot: int = 0,
    ) -> None:
        self.slot = slot
        self.addresses = addresses
        self.install = install
        #: Column of this channel in a block's (word, channel) arrays.
        self.col = 0
        #: A write-back store: the probe dirties its line.
        self.store = store
        #: Where a dirty line this probe evicts enters the write buffer.
        self.evict_slot = evict_slot


class _DirectMapped:
    """Direct-mapped around/through cache, exact for any probe stream.

    Carries the installed line of every set between blocks.
    """

    def __init__(self, cache: CacheConfig, channels: List[_ProbeChannel]) -> None:
        self.n_sets = cache.n_sets
        self.installed = np.full(self.n_sets, -1, dtype=np.int64)
        self.install = np.asarray([c.install for c in channels], dtype=bool)

    def classify(self, lines: np.ndarray) -> Tuple[np.ndarray, None]:
        flat = lines.ravel()
        hits = _last_install_matches(
            flat % self.n_sets, flat, np.tile(self.install, lines.shape[0]),
            self.installed,
        )
        return hits.reshape(lines.shape), None


class _Streaming:
    """Set-associative around/through cache over monotone, disjoint probe
    streams: an installing probe hits iff its channel's previous probe
    touched the same line; a non-installing probe always misses.

    The envelope checks need only each channel's whole-stream line
    array; the previous line per channel is carried between blocks.
    """

    def __init__(self, cache: CacheConfig, channels: List[_ProbeChannel]) -> None:
        installers = [c for c in channels if c.install]
        if len(installers) > cache.associativity:
            raise FastpathUnsupported(
                "more interleaved install streams than cache ways"
            )
        ranges = []
        for channel in channels:
            lines = channel.addresses // cache.line_bytes
            if channel.install and np.any(np.diff(lines) < 0):
                raise FastpathUnsupported(
                    "set-associative classification needs monotone probe "
                    "streams"
                )
            ranges.append((int(lines.min()), int(lines.max())))
        ranges.sort()
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            if lo <= hi:
                raise FastpathUnsupported(
                    "probe streams overlap; LRU interaction not vectorized"
                )
        self.install = [c.install for c in channels]
        self.last = [-1] * len(channels)

    def classify(self, lines: np.ndarray) -> Tuple[np.ndarray, None]:
        hits = np.zeros(lines.shape, dtype=bool)
        for col, install in enumerate(self.install):
            if not install:
                continue
            line = lines[:, col]
            hits[0, col] = line[0] == self.last[col]
            np.equal(line[1:], line[:-1], out=hits[1:, col])
            self.last[col] = int(line[-1])
        return hits, None


class _WriteBack:
    """Write-allocate LRU cache of at most 2 ways, exact for any stream.

    Every probe allocates, so a set holds the ``ways`` most recently
    touched distinct lines.  Probes sorted by (set, program order)
    collapse into runs of one line; a run's first probe hits iff its
    line is the line ``ways`` runs back in the set, and a missing run
    with at least ``ways`` earlier runs evicts exactly that line.  A hit
    continues the residency of the run ``ways`` back, so forward-filling
    the last missing run along each (set, run parity) chain names every
    run's residency; the victim is dirty iff a store touched its
    residency.

    The MRU and LRU line of every set, with dirty bits, carry between
    blocks: they enter the next block as synthetic probes ahead of it,
    dirty ones as stores, and are dropped from every count.
    """

    def __init__(self, cache: CacheConfig, channels: List[_ProbeChannel]) -> None:
        self.ways = cache.associativity
        self.n_sets = cache.n_sets
        self.mru = np.full(self.n_sets, -1, dtype=np.int64)
        self.lru = np.full(self.n_sets, -1, dtype=np.int64)
        self.mru_dirty = np.zeros(self.n_sets, dtype=bool)
        self.lru_dirty = np.zeros(self.n_sets, dtype=bool)
        self.store = np.asarray([c.store for c in channels], dtype=bool)

    def classify(
        self, lines: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Per-probe hits, and the dirty evictions as (flat probe index
        in program order, victim line)."""
        ways = self.ways
        n_sets = self.n_sets
        real = lines.ravel()
        touched = np.zeros(n_sets, dtype=bool)
        touched[real % n_sets] = True
        carried_lru = np.flatnonzero(touched & (self.lru >= 0))
        carried_mru = np.flatnonzero(touched & (self.mru >= 0))
        n_syn = carried_lru.shape[0] + carried_mru.shape[0]
        line = np.concatenate((self.lru[carried_lru], self.mru[carried_mru], real))
        store = np.concatenate((
            self.lru_dirty[carried_lru],
            self.mru_dirty[carried_mru],
            np.tile(self.store, lines.shape[0]),
        ))
        n = line.shape[0]
        order = np.argsort(line % n_sets, kind="stable")
        s_line = line[order]
        s_set = s_line % n_sets
        new_set = np.empty(n, dtype=bool)
        new_set[0] = True
        np.not_equal(s_set[1:], s_set[:-1], out=new_set[1:])
        run_start = new_set.copy()
        run_start[1:] |= s_line[1:] != s_line[:-1]
        run_id = np.cumsum(run_start) - 1
        run_pos = np.flatnonzero(run_start)
        n_runs = run_pos.shape[0]
        run_line = s_line[run_pos]
        ridx = np.arange(n_runs, dtype=np.int64)
        set_first = np.maximum.accumulate(np.where(new_set[run_pos], ridx, 0))
        back = ridx - ways
        full = back >= set_first  # at least `ways` earlier runs in the set
        back[~full] = 0
        run_hit = full & (run_line[back] == run_line)
        if ways == 1:
            residency = ridx
        else:
            # Runs r and r - ways of one set share a residue mod ways,
            # and each set's first ways runs miss, so a running max over
            # one residue class never reaches into another set.
            residency = np.empty(n_runs, dtype=np.int64)
            marker = np.where(run_hit, -1, ridx)
            for parity in range(ways):
                residency[parity::ways] = np.maximum.accumulate(
                    marker[parity::ways]
                )
        dirty = np.zeros(n_runs, dtype=bool)
        dirty[residency[run_id[store[order]]]] = True
        dirty_evict = full & ~run_hit & dirty[residency[back]]

        # What each touched set holds after the block.
        last_run = np.flatnonzero(np.append(new_set[run_pos][1:], True))
        end_sets = s_set[run_pos[last_run]]
        self.mru[end_sets] = run_line[last_run]
        self.mru_dirty[end_sets] = dirty[residency[last_run]]
        if ways == 2:
            has_lru = last_run > set_first[last_run]
            prev_run = np.where(has_lru, last_run - 1, 0)
            self.lru[end_sets] = np.where(has_lru, run_line[prev_run], -1)
            self.lru_dirty[end_sets] = has_lru & dirty[residency[prev_run]]

        hits = np.empty(n, dtype=bool)
        hits[order] = ~run_start | run_hit[run_id]
        evicting = np.flatnonzero(run_start & dirty_evict[run_id])
        position = order[evicting]
        in_order = np.argsort(position)
        victims = run_line[back[run_id[evicting]]]
        # Synthetic probes never evict: each set's carried lines are its
        # first runs.
        return (
            hits[n_syn:].reshape(lines.shape),
            (position[in_order] - n_syn, victims[in_order]),
        )


def _cache_model(node: NodeConfig, channels: List[_ProbeChannel]):
    cache = node.cache
    if cache.size_bytes % cache.line_bytes or cache.n_lines % cache.associativity:
        raise FastpathUnsupported("malformed cache geometry")
    if cache.n_sets <= 0:
        raise FastpathUnsupported("cache has no sets")
    if cache.write_policy == "back":
        return _WriteBack(cache, channels)
    if cache.associativity == 1:
        return _DirectMapped(cache, channels)
    return _Streaming(cache, channels)


# -- write buffer ----------------------------------------------------------------


class _WriteBuffer:
    """The posted-store queue, carried between blocks as pending entries.

    Mirrors ``MemoryEngine._store`` and ``_enqueue_writeback``: an entry
    extends only while it is the newest entry of a non-empty buffer and
    the incoming store hits the same line; appending the ``depth``-th
    entry drains the whole buffer immediately, so the last entry of a
    full batch never merges.  Dirty-line write-backs never merge.
    """

    def __init__(self, depth: int, merge: bool, line_bytes: int) -> None:
        self.depth = max(int(depth), 1)
        self.merge = bool(merge) and self.depth > 1
        self.line_bytes = line_bytes
        self.addr = np.zeros(0, dtype=np.int64)
        self.words = np.zeros(0, dtype=np.int64)

    def post(
        self, keys: np.ndarray, addr: np.ndarray, words: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Append one non-merging entry per key.

        Returns ``(entry_addr, entry_words, entry_drain, drain_keys)``
        over the pending entries followed by the new ones: each entry's
        drain index (``len(drain_keys)`` while still pending) and the
        position of each drain.  Undrained entries stay pending.
        """
        pending = self.addr.shape[0]
        entry_addr = np.concatenate((self.addr, addr))
        entry_words = np.concatenate((self.words, words))
        total = entry_addr.shape[0]
        n_drains = total // self.depth
        drain_keys = keys[
            np.arange(1, n_drains + 1, dtype=np.int64) * self.depth
            - 1 - pending
        ]
        entry_drain = np.minimum(
            np.arange(total, dtype=np.int64) // self.depth, n_drains
        )
        self.addr = entry_addr[n_drains * self.depth:]
        self.words = entry_words[n_drains * self.depth:]
        return entry_addr, entry_words, entry_drain, drain_keys

    def store(
        self, keys: np.ndarray, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Append word stores, merging runs of one line; see :meth:`post`."""
        n = addresses.shape[0]
        if self.merge:
            lines = addresses // self.line_bytes
            starts_mask = np.empty(n, dtype=bool)
            starts_mask[0] = True
            np.not_equal(lines[1:], lines[:-1], out=starts_mask[1:])
            starts = np.flatnonzero(starts_mask)
            continues = bool(
                self.addr.shape[0]
                and self.addr[-1] // self.line_bytes == lines[0]
            )
            if starts.shape[0] < n or continues:
                return self._merged(keys, addresses, starts, continues)
        return self.post(keys, addresses, np.ones(n, dtype=np.int64))

    def _merged(
        self, keys: np.ndarray, addresses: np.ndarray, starts: np.ndarray,
        continues: bool,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        addr_list = addresses.tolist()
        bounds = starts.tolist()
        bounds.append(addresses.shape[0])
        e_addr: List[int] = self.addr.tolist()
        e_words: List[int] = self.words.tolist()
        in_batch = len(e_addr)
        drain_at: List[int] = []
        drain_ecount: List[int] = []
        first = 0
        if continues:
            # The block opens inside the newest pending entry's line.
            e_words[-1] += bounds[1] - bounds[0]
            first = 1
        for k in range(first, len(bounds) - 1):
            start, end = bounds[k], bounds[k + 1]
            e_addr.append(addr_list[start])
            e_words.append(1)
            in_batch += 1
            pos = start + 1
            if in_batch == self.depth:
                drain_at.append(start)
                drain_ecount.append(len(e_addr))
                in_batch = 0
                if pos < end:
                    e_addr.append(addr_list[pos])
                    e_words.append(1)
                    in_batch = 1
                    pos += 1
            if in_batch and pos < end:
                e_words[-1] += end - pos
        n_entries = len(e_addr)
        entry_drain = np.searchsorted(
            np.asarray(drain_ecount, dtype=np.int64),
            np.arange(n_entries, dtype=np.int64),
            side="right",
        )
        kept = drain_ecount[-1] if drain_ecount else 0
        self.addr = np.asarray(e_addr[kept:], dtype=np.int64)
        self.words = np.asarray(e_words[kept:], dtype=np.int64)
        return (
            np.asarray(e_addr, dtype=np.int64),
            np.asarray(e_words, dtype=np.int64),
            entry_drain,
            keys[np.asarray(drain_at, dtype=np.int64)],
        )


# -- the replay clocks -----------------------------------------------------------


class _Clocks:
    """The engine clocks and queues, carried between blocks."""

    __slots__ = ("cpu", "dram", "bda", "pipe", "ra")

    def __init__(self) -> None:
        self.cpu = 0.0
        self.dram = 0.0
        self.bda = 0.0  # batch-drained-at: when the previous drain left the queue
        self.pipe: Deque[float] = deque()
        self.ra: Deque[float] = deque()

    def finish(self) -> float:
        cpu = self.cpu
        for ready in self.pipe:
            if ready > cpu:
                cpu = ready
        return cpu if cpu > self.dram else self.dram


def _replay(
    ev_type: List[int],
    ev_a: List[float],
    ev_p1: List[float],
    ev_p2: List[float],
    pipe_depth: int,
    clocks: _Clocks,
) -> None:
    """Advance the engine clocks over one block's compiled events."""
    cpu = clocks.cpu
    dram = clocks.dram
    bda = clocks.bda
    pipe = clocks.pipe
    ra_fifo = clocks.ra
    for typ, a, p1, p2 in zip(ev_type, ev_a, ev_p1, ev_p2):
        cpu += a
        if typ == _EV_BLOCKING:
            start = dram if dram > cpu else cpu
            dram = start + p2
            cpu = start + p1
        elif typ == _EV_DRAIN:
            if bda > cpu:
                cpu = bda
            dram += p1
            bda = dram
        elif typ == _EV_PIPE:
            if len(pipe) >= pipe_depth:
                ready = pipe.popleft()
                if ready > cpu:
                    cpu = ready
            start = dram if dram > cpu else cpu
            dram = start + p2
            pipe.append(start + p1)
        elif typ == _EV_RA_CONSUME:
            ready = ra_fifo.popleft()
            if ready > cpu:
                cpu = ready
        elif typ == _EV_RA_SCHED:
            start = dram if dram > cpu else cpu
            dram = start + p2
            ra_fifo.append(start + p1)
        else:  # _EV_FINAL_DRAIN
            dram += p1
            bda = dram
    clocks.cpu = cpu
    clocks.dram = dram
    clocks.bda = bda


# -- the block-wise processor kernel ---------------------------------------------


class _ProcessorKernel:
    """One processor transfer loop, compiled and replayed block by block."""

    def __init__(
        self,
        node: NodeConfig,
        occupancy_scale: float,
        read: Optional[AccessStream],
        write: Optional[AccessStream],
        ni_store: bool,
        ni_load: bool,
        readahead_mode: bool,
    ) -> None:
        proc = node.processor
        cache = node.cache
        cyc = proc.cycle_ns
        self.node = node
        self.scale = occupancy_scale
        self.nwords = read.nwords if read is not None else write.nwords  # type: ignore[union-attr]
        self.line_bytes = cache.line_bytes
        self.line_words = cache.line_words
        self.pipe_depth = proc.pipelined_load_depth
        self.fill_opcode = _EV_PIPE if self.pipe_depth > 0 else _EV_BLOCKING
        self.back = cache.write_policy == "back"
        # When the read-ahead unit is engaged the engine routes every
        # data miss through it even at depth 0, where the empty window
        # degenerates to plain blocking fills.
        self.ra_mode = readahead_mode
        self.ra_depth = node.read_ahead.depth
        self.readahead = readahead_mode and self.ra_depth > 0
        self.ra_last = -1  # line of the latest read-ahead miss; -1: unprimed
        self.data_addr = (
            np.asarray(read.addresses, np.int64) if read is not None else None
        )
        self.data_probed = read is not None and not (
            self.pipe_depth > 0 and proc.pipelined_loads_bypass_cache
        )
        self.store_addr = (
            np.asarray(write.addresses, np.int64) if write is not None else None
        )

        # ---- cache probe channels, in slot order -------------------------
        channels: List[_ProbeChannel] = []
        idx_r = idx_w = data_ch = store_ch = None
        if read is not None and read.index_addresses is not None:
            idx_r = _ProbeChannel(
                _S_IDX_R, np.asarray(read.index_addresses, np.int64), True,
                evict_slot=_S_IDX_R_WB,
            )
            channels.append(idx_r)
        if self.data_probed:
            data_ch = _ProbeChannel(
                _S_DATA, self.data_addr, True, evict_slot=_S_DATA_WB
            )
            channels.append(data_ch)
        if write is not None and write.index_addresses is not None:
            idx_w = _ProbeChannel(
                _S_IDX_W, np.asarray(write.index_addresses, np.int64), True,
                evict_slot=_S_IDX_W_WB,
            )
            channels.append(idx_w)
        if write is not None and self.back:
            store_ch = _ProbeChannel(
                _S_STORE_FILL, self.store_addr, True, store=True,
                evict_slot=_S_STORE,
            )
            channels.append(store_ch)
        elif write is not None and cache.write_policy == "through":
            store_ch = _ProbeChannel(_S_STORE, self.store_addr, False)
            channels.append(store_ch)
        for col, channel in enumerate(channels):
            channel.col = col
        self.channels = channels
        self.idx_channels = [c for c in (idx_r, idx_w) if c is not None]
        self.data_ch = data_ch
        self.store_ch = store_ch
        self.evict_slots = np.asarray(
            [c.evict_slot for c in channels], dtype=np.int64
        )
        self.cache = _cache_model(node, channels) if channels else None
        # Without stores no line turns dirty, so nothing enters the buffer.
        self.buffer = (
            _WriteBuffer(
                node.write_buffer.depth, node.write_buffer.merge,
                cache.line_bytes,
            )
            if write is not None
            else None
        )
        self.open_pages = np.full(node.dram.n_banks, -1, dtype=np.int64)

        # ---- processor-time increments: (slot, constant or hit channel) --
        inc: List[Tuple[int, float, Optional[_ProbeChannel]]] = []

        def const(slot: int, value: float) -> None:
            if value:
                inc.append((slot, value, None))

        def hit_bonus(slot: int, channel: Optional[_ProbeChannel]) -> None:
            if channel is not None and cache.hit_ns:
                inc.append((slot, cache.hit_ns, channel))

        pre = 0.0
        if ni_load:
            pre += node.ni.load_ns
        if idx_r is not None:
            pre += (proc.index_extra_cycles + proc.load_issue_cycles) * cyc
        const(_S_PRE, pre)
        hit_bonus(_S_PRE, idx_r)
        if read is not None:
            const(_S_DATA_PRE, proc.load_issue_cycles * cyc)
            hit_bonus(_S_DATA_PRE, data_ch)
        if ni_store:
            const(_S_POST, node.ni.store_ns)
        if idx_w is not None:
            const(
                _S_IDX_W_PRE,
                (proc.index_extra_cycles + proc.load_issue_cycles) * cyc,
            )
            hit_bonus(_S_IDX_W_PRE, idx_w)
        if write is not None:
            const(_S_STORE_PRE, proc.store_issue_cycles * cyc)
        const(_S_OVERHEAD, proc.loop_overhead_cycles * cyc)
        inc.sort(key=lambda col: col[0])
        self.inc = inc
        self.inc_slots = np.asarray([slot for slot, _, _ in inc], dtype=np.int64)
        self.inc_total = 0.0  # running sum of every increment so far
        self.consumed = 0.0   # running sum at the latest event

        self.clocks = _Clocks()
        self.cache_hits = 0
        self.cache_probes = 0
        self.dirty_evictions = 0
        self.page_hits = 0
        self.page_total = 0
        self.drains = 0

    def run(self) -> KernelResult:
        for lo in range(0, self.nwords, _BLOCK_WORDS):
            hi = min(lo + _BLOCK_WORDS, self.nwords)
            _replay(*self._compile(lo, hi), self.pipe_depth, self.clocks)
        ns = self.clocks.finish()
        probes = self.cache_probes
        return KernelResult(
            ns=ns,
            nwords=self.nwords,
            cache_hit_rate=self.cache_hits / probes if probes else 0.0,
            dram_page_hit_rate=(
                self.page_hits / self.page_total if self.page_total else 0.0
            ),
            # ``drains`` holds the scheduled drains plus the finish drain
            # when entries are still buffered past the last word — the
            # same tally the scalar engine's non-empty drains produce.
            counts=processor_counts(
                self.cache_hits,
                probes - self.cache_hits,
                self.dirty_evictions,
                self.page_hits,
                self.page_total - self.page_hits,
                self.drains,
            ),
        )

    def _compile(
        self, lo: int, hi: int
    ) -> Tuple[List[int], List[float], List[float], List[float]]:
        """Classify words ``lo .. hi-1`` and compile them to events."""
        node = self.node
        line_bytes = self.line_bytes
        line_words = self.line_words
        last_block = hi == self.nwords
        words = np.arange(lo, hi, dtype=np.int64)
        word_keys = words * 64

        # ---- cache probes ------------------------------------------------
        hits = lines = None
        evictions = None
        if self.cache is not None:
            lines = np.column_stack(
                [c.addresses[lo:hi] // line_bytes for c in self.channels]
            )
            hits, evictions = self.cache.classify(lines)
            self.cache_hits += int(np.count_nonzero(hits))
            self.cache_probes += hits.size

        # ---- memory operations (build order), events ---------------------
        ops_key: List[np.ndarray] = []
        ops_addr: List[np.ndarray] = []
        ops_words: List[np.ndarray] = []
        ops_is_write: List[np.ndarray] = []
        ev_specs: List[Tuple[np.ndarray, int, Optional[int]]] = []
        # ev_specs rows: (event keys, opcode, op-group id or None); op
        # groups pair each event with the memory operation feeding it.

        def add_read_ops(keys: np.ndarray, addrs: np.ndarray,
                         burst_words: int, opcode: int) -> None:
            ops_key.append(keys * 256)
            ops_addr.append(addrs)
            ops_words.append(
                np.full(addrs.shape[0], burst_words, dtype=np.int64)
            )
            ops_is_write.append(np.zeros(addrs.shape[0], dtype=bool))
            ev_specs.append((keys, opcode, len(ops_key) - 1))

        def misses(channel: _ProbeChannel) -> Tuple[np.ndarray, np.ndarray]:
            miss = np.flatnonzero(~hits[:, channel.col])
            return miss, lines[miss, channel.col]

        for channel in self.idx_channels:
            miss, miss_lines = misses(channel)
            if miss.shape[0]:
                add_read_ops(
                    word_keys[miss] + channel.slot, miss_lines * line_bytes,
                    line_words, self.fill_opcode,
                )

        if self.data_addr is not None:
            if not self.data_probed:
                # Pipelined loads bypass the cache: every word issues.
                add_read_ops(
                    word_keys + _S_DATA, self.data_addr[lo:hi], 1, _EV_PIPE
                )
            else:
                miss, miss_lines = misses(self.data_ch)
                if miss.shape[0] and self.readahead:
                    self._readahead(
                        word_keys[miss], miss_lines, add_read_ops, ev_specs
                    )
                elif miss.shape[0]:
                    add_read_ops(
                        word_keys[miss] + _S_DATA,
                        miss_lines * line_bytes,
                        line_words,
                        _EV_BLOCKING if self.ra_mode else self.fill_opcode,
                    )

        if self.back and self.store_addr is not None:
            # Write-allocate: a missing store fills its line, blocking.
            miss, miss_lines = misses(self.store_ch)
            if miss.shape[0]:
                add_read_ops(
                    word_keys[miss] + _S_STORE_FILL, miss_lines * line_bytes,
                    line_words, _EV_BLOCKING,
                )

        n_drains = 0
        entry_drain = None
        final_key = np.int64((self.nwords + 1) * 64)
        if self.buffer is not None:
            if self.back:
                position, victims = evictions
                self.dirty_evictions += position.shape[0]
                n_channels = len(self.channels)
                plan = self.buffer.post(
                    word_keys[position // n_channels]
                    + self.evict_slots[position % n_channels],
                    victims * line_bytes,
                    np.full(position.shape[0], line_words, dtype=np.int64),
                )
            else:
                plan = self.buffer.store(
                    word_keys + _S_STORE, self.store_addr[lo:hi]
                )
            entry_addr, entry_words, entry_drain, drain_keys = plan
            n_drains = drain_keys.shape[0]
            self.drains += n_drains
            if not last_block:
                # Entries still pending reach DRAM in a later block.
                drained = entry_drain < n_drains
                entry_addr = entry_addr[drained]
                entry_words = entry_words[drained]
                entry_drain = entry_drain[drained]
            elif entry_drain.shape[0] and entry_drain[-1] == n_drains:
                self.drains += 1
            n_entries = entry_addr.shape[0]
            # Each buffer entry reaches DRAM at its drain's position;
            # leftovers flush at the finish drain past the last word.
            if n_drains:
                entry_pos = np.where(
                    entry_drain < n_drains,
                    drain_keys[np.minimum(entry_drain, n_drains - 1)],
                    final_key,
                )
            else:
                entry_pos = np.full(n_entries, final_key, dtype=np.int64)
            # FIFO position within the flushing batch (entry_drain is
            # nondecreasing, so batches are consecutive runs).
            idx = np.arange(n_entries, dtype=np.int64)
            order_in_group = np.zeros(n_entries, dtype=np.int64)
            if n_entries:
                change = np.empty(n_entries, dtype=bool)
                change[0] = True
                np.not_equal(entry_drain[1:], entry_drain[:-1], out=change[1:])
                group_start = np.maximum.accumulate(np.where(change, idx, 0))
                order_in_group = idx - group_start
            ops_key.append(entry_pos * 256 + order_in_group)
            ops_addr.append(entry_addr)
            ops_words.append(entry_words)
            ops_is_write.append(np.ones(n_entries, dtype=bool))
            if n_drains:
                ev_specs.append((drain_keys, _EV_DRAIN, None))

        if last_block:
            # The finish drain always runs (a no-op when nothing is pending).
            ev_specs.append(
                (np.asarray([final_key], np.int64), _EV_FINAL_DRAIN, None)
            )

        # ---- DRAM page classification over the merged operation order ----
        dram = node.dram
        all_addr = np.concatenate(ops_addr) if ops_addr else np.zeros(0, np.int64)
        all_words = (
            np.concatenate(ops_words) if ops_words else np.zeros(0, np.int64)
        )
        all_write = (
            np.concatenate(ops_is_write) if ops_is_write else np.zeros(0, bool)
        )
        page = all_addr // dram.page_bytes
        page_hit = np.zeros(all_addr.shape[0], dtype=bool)
        if ops_key:
            order = np.argsort(np.concatenate(ops_key), kind="stable")
            page_hit[order] = _prev_equal_in_group(
                (page % dram.n_banks)[order], page[order], self.open_pages
            )
        burst_extra = dram.burst_word_ns * (all_words - 1)
        lat = np.where(page_hit, dram.read_hit_ns, dram.read_miss_ns) + burst_extra
        occ = np.where(
            all_write,
            np.where(page_hit, dram.write_hit_ns, dram.write_miss_ns),
            np.where(
                page_hit,
                dram.read_occupancy_hit_ns,
                dram.read_occupancy_miss_ns,
            ),
        ) + burst_extra
        occ = occ * self.scale
        self.page_hits += int(np.count_nonzero(page_hit))
        self.page_total += int(page_hit.shape[0])

        # Per-group offsets into the flat op arrays.
        group_offsets = np.cumsum([0] + [arr.shape[0] for arr in ops_addr])

        drain_sums = np.zeros(n_drains + 1, dtype=np.float64)
        if entry_drain is not None and entry_drain.shape[0]:
            drain_sums = np.bincount(
                entry_drain,
                weights=occ[group_offsets[-2]:group_offsets[-1]],
                minlength=n_drains + 1,
            )

        # ---- assemble events --------------------------------------------
        ev_key_parts: List[np.ndarray] = []
        ev_type_parts: List[np.ndarray] = []
        ev_p1_parts: List[np.ndarray] = []
        ev_p2_parts: List[np.ndarray] = []
        for keys, opcode, group in ev_specs:
            count = keys.shape[0]
            ev_key_parts.append(keys)
            ev_type_parts.append(np.full(count, opcode, dtype=np.int64))
            if group is not None:
                start = group_offsets[group]
                ev_p1_parts.append(lat[start:start + count])
                ev_p2_parts.append(occ[start:start + count])
            elif opcode == _EV_DRAIN:
                ev_p1_parts.append(drain_sums[:n_drains])
                ev_p2_parts.append(np.zeros(count))
            elif opcode == _EV_FINAL_DRAIN:
                ev_p1_parts.append(drain_sums[n_drains:])
                ev_p2_parts.append(np.zeros(count))
            else:  # consume
                ev_p1_parts.append(np.zeros(count))
                ev_p2_parts.append(np.zeros(count))
        if not ev_key_parts:
            self._consume(words, hits, np.zeros(0, np.int64))
            return [], [], [], []
        ev_key = np.concatenate(ev_key_parts)
        ev_order = np.argsort(ev_key, kind="stable")
        ev_key = ev_key[ev_order]
        a_pre = self._consume(words, hits, ev_key)
        return (
            np.concatenate(ev_type_parts)[ev_order].tolist(),
            a_pre.tolist(),
            np.concatenate(ev_p1_parts)[ev_order].tolist(),
            np.concatenate(ev_p2_parts)[ev_order].tolist(),
        )

    def _readahead(self, keys, miss_lines, add_read_ops, ev_specs) -> None:
        """Data misses under read-ahead: the first primes the window,
        every later one consumes a prefetch and tops the window up."""
        line_bytes = self.line_bytes
        line_words = self.line_words
        if np.any(np.diff(miss_lines) != 1) or (
            self.ra_last >= 0 and miss_lines[0] != self.ra_last + 1
        ):
            raise FastpathUnsupported(
                "read-ahead needs a strictly advancing contiguous line walk"
            )
        primed = self.ra_last >= 0
        self.ra_last = int(miss_lines[-1])
        if not primed:
            # First fill is a demand (blocking) read...
            add_read_ops(
                keys[:1] + _S_DATA, miss_lines[:1] * line_bytes, line_words,
                _EV_BLOCKING,
            )
            # ...that primes the whole window.
            first_line = int(miss_lines[0])
            for ahead in range(1, self.ra_depth + 1):
                add_read_ops(
                    keys[:1] + _S_SCHED + ahead - 1,
                    np.asarray([(first_line + ahead) * line_bytes], np.int64),
                    line_words,
                    _EV_RA_SCHED,
                )
            keys = keys[1:]
            miss_lines = miss_lines[1:]
        if keys.shape[0]:
            # Later misses consume earlier prefetches and top up by one.
            ev_specs.append((keys + _S_DATA, _EV_RA_CONSUME, None))
            add_read_ops(
                keys + _S_SCHED,
                (miss_lines + self.ra_depth) * line_bytes,
                line_words,
                _EV_RA_SCHED,
            )

    def _consume(
        self, words: np.ndarray, hits: Optional[np.ndarray], ev_key: np.ndarray
    ) -> np.ndarray:
        """Processor time each event adds since the previous one.

        The running sum is seeded with the previous blocks' total, so
        every increment is the whole-stream value bit for bit.
        """
        a_pre = np.zeros(ev_key.shape[0])
        if not self.inc:
            return a_pre
        nb = words.shape[0]
        amounts = np.empty((nb, len(self.inc)))
        for k, (_, value, channel) in enumerate(self.inc):
            if channel is None:
                amounts[:, k] = value
            else:
                amounts[:, k] = np.where(hits[:, channel.col], value, 0.0)
        cumulative = np.empty(amounts.size + 1)
        cumulative[0] = self.inc_total
        cumulative[1:] = amounts.ravel()
        np.cumsum(cumulative, out=cumulative)
        self.inc_total = cumulative[-1]
        if ev_key.shape[0]:
            inc_keys = (words[:, None] * 64 + self.inc_slots[None, :]).ravel()
            consumed = cumulative[np.searchsorted(inc_keys, ev_key, side="left")]
            a_pre[0] = consumed[0] - self.consumed
            np.subtract(consumed[1:], consumed[:-1], out=a_pre[1:])
            self.consumed = consumed[-1]
        return a_pre


# -- the fast engine -----------------------------------------------------------


class FastEngine:
    """Vectorized twin of :class:`~repro.memsim.engine.MemoryEngine`.

    Same constructor signature and ``run_*`` interface; raises
    :class:`FastpathUnsupported` instead of silently approximating when
    a stream falls outside the envelope.
    """

    def __init__(self, node: NodeConfig, occupancy_scale: float = 1.0) -> None:
        self.node = node
        self.occupancy_scale = occupancy_scale
        self._check_config()

    def _check_config(self) -> None:
        node = self.node
        policy = node.cache.write_policy
        if policy == "back" and node.cache.associativity > 2:
            raise FastpathUnsupported(
                "write-back beyond two ways stays on the oracle"
            )
        if policy not in ("around", "through", "back"):
            raise FastpathUnsupported(
                f"write policy {policy!r} stays on the oracle"
            )
        if node.write_buffer.depth > _MAX_WB_DEPTH:
            raise FastpathUnsupported("write buffer too deep for the fast path")
        if node.read_ahead.enabled and node.read_ahead.depth > _MAX_READAHEAD_DEPTH:
            raise FastpathUnsupported("read-ahead too deep for the fast path")

    # -- public kernels ----------------------------------------------------

    def run_load_stream(self, read: AccessStream) -> KernelResult:
        return self._run_processor_kernel(read=read, write=None)

    def run_store_stream(self, write: AccessStream) -> KernelResult:
        return self._run_processor_kernel(read=None, write=write)

    def run_copy(self, read: AccessStream, write: AccessStream) -> KernelResult:
        if read.nwords != write.nwords:
            raise ValueError("read and write streams must have equal length")
        return self._run_processor_kernel(read=read, write=write)

    def run_load_send(self, read: AccessStream) -> KernelResult:
        result = self._run_processor_kernel(read=read, write=None, ni_store=True)
        return cap_by_ni(self.node, result)

    def run_receive_store(self, write: AccessStream) -> KernelResult:
        result = self._run_processor_kernel(read=None, write=write, ni_load=True)
        return cap_by_ni(self.node, result)

    def run_fetch_send(self, nwords: int) -> KernelResult:
        # Already O(1) in the scalar engine; delegate so the DMA page
        # accounting lives in exactly one place.
        return MemoryEngine(self.node, self.occupancy_scale).run_fetch_send(
            nwords
        )

    def load_latency_ns(self, address: int = 0) -> float:
        return MemoryEngine(self.node, self.occupancy_scale).load_latency_ns(
            address
        )

    # -- deposit (no processor: closed-form recurrence) --------------------

    def run_deposit(self, write: AccessStream) -> KernelResult:
        cfg = self.node
        check_deposit_pattern(cfg, write)
        merge = write.pattern.is_contiguous
        word_ns = (
            cfg.deposit.contiguous_word_ns if merge else cfg.deposit.pair_word_ns
        )
        addresses = np.asarray(write.addresses, dtype=np.int64)
        n = addresses.shape[0]
        if n == 0:
            return KernelResult(ns=0.0, nwords=0)
        if merge:
            lines = addresses // cfg.cache.line_bytes
            starts_mask = np.empty(n, dtype=bool)
            starts_mask[0] = True
            np.not_equal(lines[1:], lines[:-1], out=starts_mask[1:])
            starts = np.flatnonzero(starts_mask)
            bounds = np.append(starts, n)
            entry_addr = addresses[starts]
            entry_words = np.diff(bounds)
            # Entry r flushes while the engine stamps the first word of
            # run r+1 (the final entry flushes after the loop).
            flush_at = np.append(bounds[1:-1] + 1, n).astype(np.float64) * word_ns
        else:
            entry_addr = addresses
            entry_words = np.ones(n, dtype=np.int64)
            flush_at = np.append(
                np.arange(2, n + 1, dtype=np.float64), float(n)
            ) * word_ns

        dram = cfg.dram
        page = entry_addr // dram.page_bytes
        hit = _prev_equal_in_group(
            page % dram.n_banks, page,
            np.full(dram.n_banks, -1, dtype=np.int64),
        )
        occ = (
            np.where(hit, dram.write_hit_ns, dram.write_miss_ns)
            + dram.burst_word_ns * (entry_words - 1)
        ) * self.occupancy_scale
        # dram_free_k = max(flush_k, dram_free_{k-1}) + occ_k, solved by
        # the max-prefix identity over cumulative occupancies.
        cum = np.cumsum(occ)
        dram_final = float(np.max(flush_at - (cum - occ)) + cum[-1])
        engine_t = float(n) * word_ns
        page_hits, entries = int(hit.sum()), hit.shape[0]
        result = KernelResult(
            ns=max(engine_t, dram_final),
            nwords=n,
            dram_page_hit_rate=page_hits / entries,
            counts=(
                ("memsim.kernels", 1),
                ("memsim.page_hits", page_hits),
                ("memsim.page_misses", entries - page_hits),
            ),
        )
        return cap_by_ni(cfg, result)

    # -- shared processor-kernel machinery ---------------------------------

    def _run_processor_kernel(
        self,
        read: Optional[AccessStream],
        write: Optional[AccessStream],
        ni_store: bool = False,
        ni_load: bool = False,
    ) -> KernelResult:
        nwords = read.nwords if read is not None else write.nwords  # type: ignore[union-attr]
        if nwords == 0:
            return KernelResult(ns=0.0, nwords=0)
        readahead_mode = read is not None and readahead_active(
            self.node, read, writes_to_dram=write is not None
        )
        return _ProcessorKernel(
            self.node, self.occupancy_scale, read, write, ni_store, ni_load,
            readahead_mode,
        ).run()
