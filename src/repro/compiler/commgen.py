"""Communication-set generation: from array statements to ``xQy`` ops.

This is the compiler step of Section 2.1: given the distributions of
the operands, compute — for every (sender, receiver) pair — which
elements move, derive both sides' local access patterns, and emit the
communication operations the runtime (or the model) consumes.

Two generators cover the paper's workloads:

* :func:`redistribute_1d` — the general array assignment ``B = A``
  between any two distributions (block, cyclic, block-cyclic,
  irregular); patterns are *classified from the actual index sets*,
  so a block->cyclic redistribution really does come out strided.
* :func:`transpose_2d` — the 2-D transpose of Figure 9, where the
  compiler explicitly chooses between strided loads (``nQ1``) and
  strided stores (``1Qn``) by loop order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..contract import COMM_PLAN
from ..core.patterns import AccessPattern, CONTIGUOUS
from ..memsim.config import WORD_BYTES
from .classify import classify_offsets, effective_pattern
from .distributions import Distribution

__all__ = ["CommOp", "CommPlan", "redistribute_1d", "transpose_2d"]


@dataclass(frozen=True)
class CommOp:
    """One point-to-point communication operation ``xQy``.

    Attributes:
        src / dst: Node ids.
        x: Access pattern of the reads on the sender.
        y: Access pattern of the stores on the receiver.
        nwords: Payload words moved.
        src_offsets / dst_offsets: The concrete local element offsets
            on each side (when the generator computed them), in
            transfer order — what a runtime's gather/scatter loops
            would consume, and what :func:`repro.compiler.executor.execute_plan`
            uses to run the plan functionally.  Excluded from equality.
    """

    src: int
    dst: int
    x: AccessPattern
    y: AccessPattern
    nwords: int
    src_offsets: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )
    dst_offsets: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )

    @property
    def nbytes(self) -> int:
        return self.nwords * WORD_BYTES

    @property
    def notation(self) -> str:
        return f"{self.x.subscript}Q{self.y.subscript}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; concrete offsets are not serialized."""
        return {
            "src": self.src,
            "dst": self.dst,
            "x": self.x.subscript,
            "y": self.y.subscript,
            "nwords": self.nwords,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CommOp":
        try:
            return cls(
                src=int(payload["src"]),
                dst=int(payload["dst"]),
                x=AccessPattern.parse(str(payload["x"])),
                y=AccessPattern.parse(str(payload["y"])),
                nwords=int(payload["nwords"]),
            )
        except KeyError as exc:
            raise ValueError(f"CommOp payload missing key {exc}") from exc


@dataclass
class CommPlan:
    """The communication operations of one array statement.

    Attributes:
        ops: All point-to-point operations (local copies excluded).
        name: Label for reporting.
    """

    ops: List[CommOp]
    name: str = "plan"

    def flows(self) -> List[Tuple[int, int]]:
        return [(op.src, op.dst) for op in self.ops]

    @property
    def total_bytes(self) -> int:
        return sum(op.nbytes for op in self.ops)

    def messages_from(self, node: int) -> List[CommOp]:
        return [op for op in self.ops if op.src == node]

    def pattern_histogram(self) -> Dict[str, int]:
        """How many operations use each ``xQy`` shape."""
        histogram: Dict[str, int] = {}
        for op in self.ops:
            histogram[op.notation] = histogram.get(op.notation, 0) + 1
        return histogram

    def dominant_op(self) -> CommOp:
        """The most common operation shape, with average size.

        Uniform plans (transposes, shifts) have a single shape; for
        irregular plans this is the representative message the
        collective-step simulator runs.
        """
        if not self.ops:
            raise ValueError(f"plan {self.name!r} is empty")
        histogram = self.pattern_histogram()
        winner = max(histogram, key=histogram.get)
        matching = [op for op in self.ops if op.notation == winner]
        mean_words = int(round(np.mean([op.nwords for op in matching])))
        sample = matching[0]
        return CommOp(sample.src, sample.dst, sample.x, sample.y, max(1, mean_words))

    def __len__(self) -> int:
        return len(self.ops)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``repro-comm-plan/1``)."""
        return {
            "schema": COMM_PLAN,
            "name": self.name,
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CommPlan":
        schema = payload.get("schema", COMM_PLAN)
        if schema != COMM_PLAN:
            raise ValueError(f"unsupported plan schema {schema!r}")
        ops_payload = payload.get("ops")
        if not isinstance(ops_payload, list):
            raise ValueError("plan payload 'ops' is not a list")
        ops = [CommOp.from_dict(entry) for entry in ops_payload]
        return cls(ops, name=str(payload.get("name", "plan")))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CommPlan":
        """Load a plan serialized by :meth:`to_dict` from a JSON file."""
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: plan payload is not an object")
        return cls.from_dict(raw)


def redistribute_1d(
    src_dist: Distribution,
    dst_dist: Distribution,
    element_words: int = 1,
    name: str = "redistribute",
) -> CommPlan:
    """Communication plan for ``B = A`` under two distributions.

    Args:
        src_dist / dst_dist: Distributions of A and B over the same
            extent and node count.
        element_words: Words per element (2 for complex, 6 for 3-D
            tensors); multiplies payload and blocks the patterns.
        name: Plan label.
    """
    if src_dist.extent != dst_dist.extent:
        raise ValueError(
            f"extent mismatch: {src_dist.extent} vs {dst_dist.extent}"
        )
    if src_dist.n_nodes != dst_dist.n_nodes:
        raise ValueError(
            f"node-count mismatch: {src_dist.n_nodes} vs {dst_dist.n_nodes}"
        )

    ops: List[CommOp] = []
    for src in range(src_dist.n_nodes):
        mine = src_dist.local_indices(src)
        if len(mine) == 0:
            continue
        destinations = dst_dist.owners(mine)
        src_offsets_all = src_dist.local_offset(mine)
        dst_offsets_all = dst_dist.local_offset(mine)
        for dst in np.unique(destinations):
            dst = int(dst)
            if dst == src:
                continue  # local copy, no communication
            selected = destinations == dst
            src_offsets = src_offsets_all[selected]
            dst_offsets = dst_offsets_all[selected]
            x = _widen(classify_offsets(src_offsets), element_words)
            y = _widen(classify_offsets(dst_offsets), element_words)
            ops.append(
                CommOp(
                    src,
                    dst,
                    x,
                    y,
                    int(selected.sum()) * element_words,
                    src_offsets=src_offsets,
                    dst_offsets=dst_offsets,
                )
            )
    return CommPlan(ops, name=name)


def _widen(pattern: AccessPattern, element_words: int) -> AccessPattern:
    """Scale a pattern from elements to words."""
    if element_words == 1:
        return pattern
    if pattern.is_contiguous or pattern.is_indexed:
        return pattern
    stride = pattern.stride * element_words
    block = pattern.block * element_words
    return AccessPattern.strided(stride, block=block)


def transpose_2d(
    rows: int,
    cols: int,
    n_nodes: int,
    element_words: int = 1,
    loop_order: str = "row",
    name: str = "transpose",
) -> CommPlan:
    """Communication plan for a distributed 2-D transpose (Figure 9).

    The array is block-distributed by rows before and after the
    transpose, so every node exchanges a patch with every other node —
    an all-to-all personalized communication.  ``loop_order`` picks the
    implementation of each patch move:

    * ``"row"``: contiguous loads, strided stores — ``1Q(rows)``;
    * ``"col"``: strided loads, contiguous stores — ``(cols)Q1``.

    Args:
        rows / cols: Global array shape (elements).
        n_nodes: Partition size; must divide both rows and cols.
        element_words: Words per element (2 for the complex 2-D FFT).
        loop_order: ``"row"`` or ``"col"``.
    """
    if rows % n_nodes or cols % n_nodes:
        raise ValueError(
            f"{n_nodes} nodes must evenly divide rows={rows} and cols={cols}"
        )
    if loop_order not in ("row", "col"):
        raise ValueError(f"loop_order must be 'row' or 'col', got {loop_order!r}")

    my_rows = rows // n_nodes
    my_cols = cols // n_nodes
    patch_words = my_rows * my_cols * element_words
    # Word strides of local row-major storage on either side:
    src_row_stride = cols * element_words
    dst_row_stride = rows * element_words
    src_run = my_cols * element_words  # words per patch row on the sender
    dst_run = my_rows * element_words  # words per patch column on the receiver

    def blocked(stride: int, block: int) -> AccessPattern:
        if block >= stride:
            return CONTIGUOUS
        return effective_pattern(AccessPattern.strided(stride, block=block))

    if loop_order == "row":
        # Iterate the patch row-major: runs of src_run contiguous loads,
        # single-element (blocked by element_words) strided stores.
        x = blocked(src_row_stride, src_run)
        y = blocked(dst_row_stride, element_words)
    else:
        # Iterate column-major: strided loads, contiguous runs of stores.
        x = blocked(src_row_stride, element_words)
        y = blocked(dst_row_stride, dst_run)

    ops = [
        CommOp(src, dst, x, y, patch_words)
        for src in range(n_nodes)
        for dst in range(n_nodes)
        if src != dst
    ]
    return CommPlan(ops, name=name)
