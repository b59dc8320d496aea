"""Address-stream generators for the access patterns of Section 2.2.

A *stream* is the sequence of byte addresses an optimized transfer loop
touches: contiguous words, constant-stride words, or indexed words
driven by an index array.  Indexed streams model the paper's
application reality (FEM gather/scatter index arrays are partially
sorted) with a tunable *run length*: the expected number of consecutive
indices that land in the same DRAM-page-sized region before jumping to
a random one.

All generators are deterministic given a seed, so measured throughputs
are reproducible run to run — mirroring the paper's claim that its
measurements are "highly accurate and consistently reproducible".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.patterns import AccessPattern, PatternKind
from .config import WORD_BYTES

__all__ = ["AccessStream", "make_stream", "DEFAULT_INDEX_RUN"]

#: Expected same-region run length for indexed streams.  2 reflects the
#: partial sortedness of real index arrays (FEM edge lists, sparse rows).
DEFAULT_INDEX_RUN = 2

#: Region size (bytes) used to generate indexed locality runs.  Small
#: enough that a run usually stays within one DRAM page on machines with
#: page-mode-friendly memory controllers.
_INDEX_REGION_BYTES = 256


@dataclass(frozen=True)
class AccessStream:
    """A concrete address stream for one side of a transfer.

    Attributes:
        pattern: The access pattern that generated the stream.
        addresses: Byte address of every data word, in access order.
        index_addresses: Byte addresses of index-array *elements* (4-byte
            ints) read alongside an indexed stream; ``None`` otherwise.
    """

    pattern: AccessPattern
    addresses: np.ndarray
    index_addresses: Optional[np.ndarray] = None

    @property
    def nwords(self) -> int:
        return int(self.addresses.shape[0])

    @property
    def payload_bytes(self) -> int:
        """Bytes of useful data (index loads are overhead, not payload)."""
        return self.nwords * WORD_BYTES


def _indexed_word_offsets_reference(
    nwords: int, run_length: int, rng: np.random.Generator
) -> np.ndarray:
    """Word offsets with page-local runs: random pages, short runs inside.

    The definition of an indexed stream, one generator call per draw.
    :func:`_indexed_word_offsets` replays these draws in bulk and falls
    back here outside its envelope.
    """
    region_words = _INDEX_REGION_BYTES // WORD_BYTES
    n_regions = max(1, (nwords * 4) // region_words)
    offsets = np.empty(nwords, dtype=np.int64)
    position = 0
    while position < nwords:
        run = int(rng.geometric(1.0 / max(1, run_length)))
        run = min(run, nwords - position, region_words)
        region = int(rng.integers(0, n_regions))
        inside = rng.integers(0, region_words, size=run)
        offsets[position : position + run] = region * region_words + inside
        position += run
    return offsets


#: Raw 64-bit words drawn per replay block: keeps the replay's
#: temporaries near the reference loop's, whatever the stream length.
_REPLAY_BLOCK_WORDS = 2048

#: Most raw words one locality run consumes after its geometric word: a
#: region half plus 32 in-region halves, with no buffered half to use.
_RUN_LOOKAHEAD_WORDS = 17


def _indexed_word_offsets(nwords: int, run_length: int, seed: int) -> np.ndarray:
    """The reference offsets for ``default_rng(seed)``, byte for byte.

    Instead of three generator calls per locality run, draw the PCG64
    stream's raw 64-bit words block by block and replay, with array
    operations, what ``Generator.geometric`` and ``Generator.integers``
    make of them:

    * ``geometric(p)`` for ``p >= 1/3`` runs NumPy's search method: one
      whole word ``w``, ``U = (w >> 11) * 2**-53``, and the draw is one
      plus the number of partial sums ``p + p*q + ...`` (summed in C's
      order) below ``U``.
    * ``integers(0, n)`` takes one 32-bit half per value (Lemire's
      method): the low half of a fresh word, whose high half the bit
      generator buffers for the next 32-bit request, even across an
      intervening 64-bit draw.  ``region_words`` is a power of two, so
      in-region draws never reject; a region half rejects, and another
      is drawn, only when ``(half * n) mod 2**32 < (2**32 - n) % n``.

    Outside that envelope — run lengths above 3 (NumPy's inversion
    method), a single region (``integers(0, 1)`` consumes nothing), a
    region draw that would reject, or a default bit generator other
    than PCG64 — the reference loop runs instead.
    """
    region_words = _INDEX_REGION_BYTES // WORD_BYTES
    n_regions = max(1, (nwords * 4) // region_words)
    p = 1.0 / max(1, run_length)
    rng = np.random.default_rng(seed)
    if (
        type(rng.bit_generator) is np.random.PCG64
        and p >= 0.333333333333333333333333  # NumPy's search/inversion cut
        and n_regions > 1
    ):
        offsets = _replay_indexed_word_offsets(
            nwords, p, region_words, n_regions, rng.bit_generator
        )
        if offsets is not None:
            return offsets
        rng = np.random.default_rng(seed)
    return _indexed_word_offsets_reference(nwords, run_length, rng)


def _replay_indexed_word_offsets(
    nwords: int,
    p: float,
    region_words: int,
    n_regions: int,
    bitgen: np.random.PCG64,
) -> Optional[np.ndarray]:
    """Replay the reference draws from ``bitgen``'s raw output.

    A run starts in a state ``(i, b)``: its geometric word is ``raw[i]``
    and, when ``b`` is set, its first half is the buffered
    ``hi(raw[i - 1])``.  The next state depends only on this one's draw,
    so the chain of run starts costs one table lookup per run, and every
    half is then gathered with ``np.repeat``.

    Returns ``None`` when a region draw would reject.
    """
    # Partial sums of the geometric search, in C's order.  A run never
    # exceeds region_words, so that many minus one suffice.
    q = 1.0 - p
    sums = [p]
    prod = p
    for _ in range(region_words - 2):
        prod *= q
        sums.append(sums[-1] + prod)
    cut = np.array(sums)
    reject_below = ((1 << 32) - n_regions) % n_regions
    low = np.uint64(0xFFFFFFFF)
    shift = np.uint64(32)

    offsets = np.empty(nwords, dtype=np.int64)
    position = 0
    raw = np.empty(0, dtype=np.uint64)
    state = 0  # 2 * (index of the run's geometric word in raw) + b
    while True:
        raw = np.concatenate((raw, bitgen.random_raw(_REPLAY_BLOCK_WORDS)))
        uniform = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        draw = 1 + np.searchsorted(cut, uniform)
        # State step per (word, b): the geometric word, then the words
        # holding the region half and ``draw`` in-region halves, less
        # the buffered half when there is one.
        step = np.empty(2 * len(raw), dtype=np.uint8)
        step[0::2] = 2 + 2 * ((draw + 2) // 2) + ((draw + 1) & 1)
        step[1::2] = 1 + 2 * ((draw + 1) // 2) + (draw & 1)
        table = step.tobytes()
        limit = 2 * (len(raw) - _RUN_LOOKAHEAD_WORDS)
        starts = []
        while state < limit:
            starts.append(state)
            state += table[state]
        run_start = np.array(starts, dtype=np.int64)
        word = run_start >> 1
        buffered = run_start & 1
        runs = draw[word]
        ends = position + np.cumsum(runs)
        last = int(np.searchsorted(ends, nwords))
        done = last < len(runs)
        if done:
            word = word[: last + 1]
            buffered = buffered[: last + 1]
            runs = runs[: last + 1]
            runs[-1] -= int(ends[last]) - nwords

        halves = np.empty(2 * len(raw), dtype=np.uint64)
        halves[0::2] = raw & low
        halves[1::2] = raw >> shift
        # A run's first half is the buffered hi(raw[i - 1]) or the fresh
        # lo(raw[i + 1]); its in-region halves follow contiguously.
        first = np.where(buffered == 1, 2 * word - 1, 2 * word + 2)
        scaled = halves[first] * np.uint64(n_regions)
        if np.any((scaled & low) < reject_below):
            return None
        region = (scaled >> shift).astype(np.int64)
        count = int(runs.sum())
        run_base = np.cumsum(runs) - runs
        inside_first = 2 * word + 3 - buffered
        gather = np.repeat(inside_first - run_base, runs) + np.arange(count)
        inside = (halves[gather] * np.uint64(region_words)) >> shift
        offsets[position : position + count] = np.repeat(
            region * region_words, runs
        ) + inside.astype(np.int64)
        position += count
        if done:
            return offsets
        # Carry the next run's geometric word and the word before it,
        # whose high half may be buffered.
        keep = (state >> 1) - 1
        raw = raw[keep:]
        state -= 2 * keep


def make_stream(
    pattern: AccessPattern,
    nwords: int,
    base: int = 0,
    seed: int = 12345,
    index_run: int = DEFAULT_INDEX_RUN,
    offsets_by_seed: Optional[Dict[int, np.ndarray]] = None,
) -> AccessStream:
    """Generate the address stream for ``nwords`` accesses of ``pattern``.

    Fixed patterns (NI ports) have no memory addresses and raise; the
    engine handles those ends directly.

    ``offsets_by_seed``, when given, keeps the word offsets of indexed
    streams by seed: a caller whose ``nwords`` and ``index_run`` never
    change passes the same dictionary each time, and an indexed stream
    with a seed already in it reuses those offsets (read-only, and as
    32-bit ints when they fit, half the memory) instead of drawing them
    again.
    """
    if pattern.kind is PatternKind.FIXED:
        raise ValueError("fixed patterns address a port, not memory")
    if nwords <= 0:
        raise ValueError(f"need a positive word count, got {nwords}")

    if pattern.kind is PatternKind.CONTIGUOUS:
        offsets = np.arange(nwords, dtype=np.int64)
        return AccessStream(pattern, base + offsets * WORD_BYTES)

    if pattern.kind is PatternKind.STRIDED:
        stride = pattern.stride
        block = pattern.block
        points = (nwords + block - 1) // block
        starts = np.arange(points, dtype=np.int64) * stride
        offsets = (starts[:, None] + np.arange(block, dtype=np.int64)).ravel()
        offsets = offsets[:nwords]
        return AccessStream(pattern, base + offsets * WORD_BYTES)

    # Indexed: data addresses from the locality model, plus the index
    # array itself, read contiguously as 4-byte elements.
    offsets = None if offsets_by_seed is None else offsets_by_seed.get(seed)
    if offsets is None:
        offsets = _indexed_word_offsets(nwords, index_run, seed)
        if offsets_by_seed is not None:
            # Every offset is below max(4 * nwords, one region).
            if 4 * nwords < 2**31:
                offsets = offsets.astype(np.int32)
            offsets.setflags(write=False)
            offsets_by_seed[seed] = offsets
    addresses = np.multiply(offsets, WORD_BYTES, dtype=np.int64)
    addresses += base
    index_addresses = np.arange(nwords, dtype=np.int64) * 4
    span = int(offsets.max() + 1) * WORD_BYTES
    # Keep the index array in a disjoint region, offset by half a typical
    # DRAM page so it tends to land in its own bank on interleaved memory.
    index_base = base + span + (1 << 20) + 128
    return AccessStream(
        pattern, addresses, index_addresses=index_base + index_addresses
    )
