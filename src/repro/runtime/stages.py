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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["Stage", "PipelineResult", "StagePipeline"]


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
            if stage.rate_mbps <= 0:
                raise ValueError(f"stage {stage.name!r} has non-positive rate")
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

    def run(
        self, nbytes: int, chunk_bytes: int = 8192, record: bool = False
    ) -> PipelineResult:
        """Push ``nbytes`` through the pipeline in ``chunk_bytes`` chunks.

        With ``record`` every (chunk, stage) occupancy also comes back
        as a row on :attr:`PipelineResult.chunks` (the runtime turns
        those rows into stage spans when a tracer is installed).
        """
        if nbytes <= 0:
            raise ValueError(f"need a positive transfer size, got {nbytes}")
        if chunk_bytes <= 0:
            raise ValueError(f"need a positive chunk size, got {chunk_bytes}")

        full_chunks, tail = divmod(nbytes, chunk_bytes)
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

        busy: List[float] = [0.0] * len(self.stages)
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
