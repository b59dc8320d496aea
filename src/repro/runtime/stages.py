"""Chunked stage-pipeline execution of a communication operation.

The copy-transfer model assumes perfect overlap ("the usage of
processor and memory system is spread evenly ... in practice, this is
often obtained through pipelining", Section 4).  A real runtime
pipelines a transfer in finite chunks, and stages that share a
resource — the gather copy and the load-send both run on the sender's
processor — strictly alternate.  This module simulates exactly that:

* a :class:`Stage` has a payload rate (MB/s), the resource it occupies,
  and a fixed software overhead per chunk;
* :class:`StagePipeline` pushes each chunk through the stages in order;
  chunk *j* enters stage *i* when stage *i-1* has produced it and the
  stage's resource is free.

The result is always at or below the model's estimate: the harmonic
(shared-resource) and min (pipelined) rules emerge in the limit of
many chunks, and per-chunk overheads plus pipeline fill account for
the measured-vs-model gap the paper reports.

The chunk loop (``_run``, and its recording twin ``_run_recorded``) is
the definition.  A long untraced pipeline whose stages group into
*blocks*, maximal runs of consecutive stages on one resource with no
resource coming back later, is priced by a *regime scan* instead.
Within chunk *j* a block's first stage starts at ``P if P > A else A``:
``P`` is the block's own finish of chunk *j-1* (its resource frees),
``A`` the previous block's finish of chunk *j* (the chunk arrives); its
later stages follow back to back.  Over a run of chunks on which the
same side wins, the finishes take a few whole-array operations: one
``np.add.accumulate`` over the chunk-major durations seeded with ``P``
when the block is self-bound, ``A`` plus each stage's durations, one
stage at a time, when it is upstream-bound.  Each run is verified
against the values it just computed, and a new run starts at the first
chunk where the other side wins; a tie gives the same double either
way.  Busy time is a sequential accumulate along each stage's
durations.  The scan thus adds the same doubles in the same order as
the loop, and it never uses ``np.sum`` (pairwise along a contiguous
axis) or the builtin ``sum`` (compensated from Python 3.12), so it
matches the loop bit for bit.  Rates must be positive, and overheads
and startups finite and non-negative, which keeps NaN out of every
comparison.  The loop still prices recorded runs, pipelines whose
resources interleave (``cpu, net, cpu``), any block that would take
more than :data:`_SCAN_RUNS` runs, and pipelines below
:data:`_SCAN_CHUNKS` chunks, where NumPy's per-call cost outweighs the
Python steps it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Stage", "PipelineResult", "StagePipeline"]

#: Chunk count from which an untraced pipeline with consecutive
#: resources is scanned instead of looped.  A whole ``run`` on a
#: 3-stage, 3-resource pipeline, loop vs scan on a shared x86 host:
#: 31 vs 40 µs at 32 chunks, 40–44 vs 40–42 µs at 48, 53 vs 41 µs at
#: 64, 94 vs 43 µs at 128 and 848 vs 65 µs at 2 048; 1- and 2-block
#: pipelines break even at 32–48 chunks.
_SCAN_CHUNKS = 64

#: Runs one block may take before the scan hands the pipeline back to
#: the chunk loop; bounds the scan's cost where near-tied stages would
#: make the winning side alternate.
_SCAN_RUNS = 8


@dataclass(frozen=True)
class Stage:
    """One stage of a staged transfer.

    Attributes:
        name: Label for reporting ("gather", "network", ...).
        rate_mbps: Sustained payload rate of the stage in isolation.
        resource: The resource the stage occupies; stages with equal
            resource names serialize, others overlap.  Background
            hardware (DMA, deposit engine, network) gets its own name.
        chunk_overhead_ns: Fixed software cost per chunk (loop setup,
            descriptor writes, DMA kicks).
        startup_ns: One-time cost before the stage's first chunk.
    """

    name: str
    rate_mbps: float
    resource: str
    chunk_overhead_ns: float = 0.0
    startup_ns: float = 0.0

    def chunk_ns(self, chunk_bytes: int) -> float:
        return chunk_bytes / self.rate_mbps * 1000.0 + self.chunk_overhead_ns


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of pushing one message through a stage pipeline.

    ``stage_busy_ns`` is keyed by stage *label*: the stage's name when
    unique within the pipeline, else ``"name#index"`` so two stages
    that happen to share a name keep separate busy accounts (see
    :attr:`StagePipeline.labels`).

    ``chunks`` is the recorded occupancy of a ``run(..., record=True)``
    and empty otherwise: one ``(label, resource, start_ns, ns, args)``
    row per (chunk, stage) in execution order, clocked from the
    pipeline's start, whose ``args`` carry the ``chunk`` index, its
    ``bytes`` and the ``wait_ns`` it queued for a busy resource.
    """

    ns: float
    nbytes: int
    stage_busy_ns: Dict[str, float]
    chunks: Tuple[Tuple[str, str, float, float, Dict[str, Any]], ...] = ()

    @property
    def mbps(self) -> float:
        if self.ns <= 0:
            return float("inf")
        return self.nbytes / self.ns * 1000.0

    def bottleneck(self) -> str:
        """The stage that was busy longest."""
        return max(self.stage_busy_ns, key=self.stage_busy_ns.get)


class StagePipeline:
    """Simulates a staged transfer at chunk granularity.

    >>> stages = [Stage("send", 100.0, "cpu"), Stage("net", 50.0, "net")]
    >>> result = StagePipeline(stages).run(1 << 20, chunk_bytes=8192)
    >>> 45 < result.mbps < 50   # pipelined: the slow stage dominates
    True
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        for stage in stages:
            # Negated comparisons, so that NaN fails them too.
            if not stage.rate_mbps > 0:
                raise ValueError(
                    f"stage {stage.name!r} needs a positive rate, "
                    f"got {stage.rate_mbps!r}"
                )
            for field in ("chunk_overhead_ns", "startup_ns"):
                value = getattr(stage, field)
                if not 0.0 <= value < math.inf:
                    raise ValueError(
                        f"stage {stage.name!r} needs a finite, non-negative "
                        f"{field}, got {value!r}"
                    )
        self.stages = list(stages)
        # Reporting labels: the stage name when unique, "name#i" for
        # duplicates.  All *internal* accounting is by position, so two
        # same-named stages never merge busy time or share a startup
        # charge (they used to, silently).
        names = [stage.name for stage in self.stages]
        self.labels = [
            name if names.count(name) == 1 else f"{name}#{index}"
            for index, name in enumerate(names)
        ]
        # Resources by position: stage i occupies
        # ``self._resources[self._slots[i]]``.
        slot_of: Dict[str, int] = {}
        self._slots = [
            slot_of.setdefault(stage.resource, len(slot_of))
            for stage in self.stages
        ]
        self._resources = list(slot_of)
        # Stage spans ``[first, stop)`` of the blocks (consecutive
        # stages on one resource), or None when a resource comes back
        # after another: only the chunk loop prices that.
        edges = [
            position for position in range(1, len(self._slots))
            if self._slots[position] != self._slots[position - 1]
        ]
        blocks = list(zip([0] + edges, edges + [len(self._slots)]))
        self._blocks = blocks if len(blocks) == len(slot_of) else None

    def run(
        self, nbytes: int, chunk_bytes: int = 8192, record: bool = False
    ) -> PipelineResult:
        """Push ``nbytes`` through the pipeline in ``chunk_bytes`` chunks.

        With ``record`` every (chunk, stage) occupancy also comes back
        as a row on :attr:`PipelineResult.chunks` (the runtime turns
        those rows into stage spans when a tracer is installed).
        """
        for what, value in (("transfer", nbytes), ("chunk", chunk_bytes)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(
                    f"need an integer {what} size, got {value!r}"
                )
            if value <= 0:
                raise ValueError(f"need a positive {what} size, got {value}")

        full_chunks, tail = divmod(nbytes, chunk_bytes)
        blocks = self._blocks
        if (
            not record
            and blocks is not None
            and full_chunks + (1 if tail else 0) >= _SCAN_CHUNKS
        ):
            finish, busy = self._scan(blocks, full_chunks, tail, chunk_bytes)
            return PipelineResult(
                ns=finish,
                nbytes=nbytes,
                stage_busy_ns=dict(zip(self.labels, busy)),
            )

        sizes = [chunk_bytes] * full_chunks + ([tail] if tail else [])
        # A message has at most two chunk sizes (full and tail), so each
        # stage's chunk cost is computed once per size; the first chunk
        # also pays every stage's one-time startup.
        costs = {size: [stage.chunk_ns(size) for stage in self.stages]
                 for size in set(sizes)}
        durations = [costs[size] for size in sizes]
        durations[0] = [
            ns + stage.startup_ns for ns, stage in zip(durations[0], self.stages)
        ]

        busy = [0.0] * len(self.stages)
        # Two loops, one arithmetic: the hot path carries no per-chunk
        # recording branch, and both loops advance the clocks with the
        # same operations, so results match bit for bit either way.
        chunks: List[Tuple[str, str, float, float, Dict[str, Any]]] = []
        if record:
            finish = self._run_recorded(sizes, durations, busy, chunks)
        else:
            finish = self._run(durations, busy)

        return PipelineResult(
            ns=finish,
            nbytes=nbytes,
            stage_busy_ns=dict(zip(self.labels, busy)),
            chunks=tuple(chunks),
        )

    def _scan(
        self,
        blocks: Sequence[Tuple[int, int]],
        full_chunks: int,
        tail: int,
        chunk_bytes: int,
    ) -> Tuple[float, List[float]]:
        """Price the pipeline one block and one regime run at a time
        (see the module docstring); same doubles as :meth:`_run`."""
        stages = self.stages
        # Stage-major: row i holds stage i's duration of every chunk.
        durations = np.empty((len(stages), full_chunks + (1 if tail else 0)))
        durations.T[:] = [stage.chunk_ns(chunk_bytes) for stage in stages]
        if tail:
            durations[:, -1] = [stage.chunk_ns(tail) for stage in stages]
        durations[:, 0] += [stage.startup_ns for stage in stages]
        # Each block's finish per chunk is the next block's arrivals.
        arrivals = np.zeros(durations.shape[1])
        for first, stop in blocks:
            block = _block(durations[first:stop], arrivals)
            if block is None:
                busy = [0.0] * len(stages)
                return self._run(durations.T.tolist(), busy), busy
            arrivals = block[0]
        busy = np.add.accumulate(durations, axis=1)[:, -1].tolist()
        return float(arrivals[-1]), busy

    def _run(
        self, durations: Sequence[Sequence[float]], busy: List[float]
    ) -> float:
        slots = self._slots
        resource_free = [0.0] * len(self._resources)
        finish = 0.0
        # Chunk-major order: stages sharing a resource alternate between
        # consecutive chunks instead of hogging it for the whole message.
        for chunk in durations:
            chunk_ready = 0.0
            for position, slot in enumerate(slots):
                free = resource_free[slot]
                start = free if free > chunk_ready else chunk_ready
                duration = chunk[position]
                chunk_ready = start + duration
                resource_free[slot] = chunk_ready
                busy[position] += duration
            finish = chunk_ready
        return finish

    def _run_recorded(
        self,
        sizes: Sequence[int],
        durations: Sequence[Sequence[float]],
        busy: List[float],
        chunks: List[Tuple[str, str, float, float, Dict[str, Any]]],
    ) -> float:
        slots = self._slots
        resource_free = [0.0] * len(self._resources)
        finish = 0.0
        for chunk_index, (size, chunk) in enumerate(zip(sizes, durations)):
            chunk_ready = 0.0
            for position, slot in enumerate(slots):
                free = resource_free[slot]
                start = free if free > chunk_ready else chunk_ready
                duration = chunk[position]
                chunks.append(
                    (
                        self.labels[position],
                        self._resources[slot],
                        start,
                        duration,
                        {
                            "chunk": chunk_index,
                            "bytes": size,
                            "wait_ns": start - chunk_ready,
                        },
                    )
                )
                chunk_ready = start + duration
                resource_free[slot] = chunk_ready
                busy[position] += duration
            finish = chunk_ready
        return finish


def _block(
    durations: np.ndarray, upstream: np.ndarray
) -> Optional[Tuple[np.ndarray, int]]:
    """One block's last-stage finish per chunk, and the regime runs
    that took, or None once it would take more than :data:`_SCAN_RUNS`.

    ``durations`` holds the block's rows (one per stage), ``upstream``
    the previous block's finish per chunk (zeros for the first block).
    """
    width, n_chunks = durations.shape
    finish = np.empty(n_chunks)
    first = runs = 0
    ready = 0.0  # the block's finish of chunk ``first - 1``
    while first < n_chunks:
        runs += 1
        if runs > _SCAN_RUNS:
            return None
        later = upstream[first + 1:]
        if upstream[first] > ready:
            # Upstream-bound: each chunk starts when the previous block
            # hands it over, and its stages follow stage by stage; the
            # run ends where the resource frees later.
            done = durations[0, first:] + upstream[first:]
            for row in durations[1:, first:]:
                done += row
            ends = done[:-1] > later
        else:
            # Self-bound: each chunk starts when the resource frees, so
            # the finishes are one running sum over the chunk-major
            # durations; the run ends where a chunk arrives later.
            flat = durations[:, first:].T.flatten()
            flat[0] += ready
            done = np.add.accumulate(flat)[width - 1::width]
            ends = later > done[:-1]
        hits = np.flatnonzero(ends)
        stop = first + 1 + int(hits[0]) if hits.size else n_chunks
        finish[first:stop] = done[:stop - first]
        ready = finish[stop - 1]
        first = stop
    return finish, runs
