"""Pseudo-code generation for communication operations.

The paper notes that on the T3D a chained implementation "must be done
at the (dis-)assembler level, and although this approach is too
tedious for a programmer, it may be appropriate for a compiler"
(Section 5.1.2).  This module emits the inner loops a compiler would
generate for each strategy, in a readable pseudo-assembly — useful for
documentation, teaching, and for checking that the operation builders
really correspond to implementable code.

The output is text, not executable code: the point is to make the
difference between the strategies concrete —

* buffer packing touches every element three times (gather loop, send
  loop, scatter loop, plus the symmetric receive side);
* a chained send touches it once, storing straight into the annex
  window, with the deposit engine doing the receive side in hardware.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..core.operations import (
    CommCapabilities,
    OperationStyle,
    buffer_packing,
    chained,
    chained_receiver,
)
from ..core.patterns import AccessPattern
from ..core.resources import NodeRole, ResourceUnit
from ..core.transfers import BasicTransfer, TransferKind

__all__ = ["emit_pseudocode"]


def _address(pattern: AccessPattern, base: str, index: str = "i") -> str:
    """The address expression of the ``index``-th element of a pattern."""
    if pattern.is_contiguous:
        return f"{base} + {index}*8"
    if pattern.is_indexed:
        return f"{base} + X[{index}]*8"
    if pattern.block == 1:
        return f"{base} + {index}*{pattern.stride * 8}"
    return (
        f"{base} + ({index}/{pattern.block})*{pattern.stride * 8}"
        f" + ({index}%{pattern.block})*8"
    )


def _loop(body: List[str]) -> List[str]:
    return ["for i = 0 .. n-1:", *(f"    {line}" for line in body)]


def _index_read(
    pattern: AccessPattern, note: str = "              ; index array read"
) -> List[str]:
    return [f"idx  <- load X[i]{note}"] if pattern.is_indexed else []


def _lines(
    transfer: BasicTransfer, packing: bool, y: AccessPattern, adp: bool
) -> List[str]:
    """The code one basic transfer of ``xQy`` becomes."""
    kind, engine = transfer.kind, transfer.engine
    read, write = transfer.read, transfer.write
    if kind is TransferKind.COPY and engine.role is NodeRole.SENDER:
        return ["; gather: read pattern, write contiguous buffer"] + _loop(
            _index_read(read) + [
                f"r1   <- load [{_address(read, 'src')}]",
                "store [buf + i*8] <- r1        ; pack into buffer",
            ]
        )
    if kind is TransferKind.COPY:
        return ["; scatter: read buffer, write pattern"] + _loop(
            _index_read(write) + [
                "r1   <- load [buf + i*8]       ; unpack from buffer",
                f"store [{_address(write, 'dst')}] <- r1",
            ]
        )
    if kind is TransferKind.FETCH_SEND:
        return [
            "dma_setup(src=buf, len=n*8)    ; fetch-send 1F0",
            "dma_start()                     ; kicked at page crossings",
        ]
    if kind is TransferKind.LOAD_SEND and packing:
        return ["; load-send 1S0: stream the buffer into the NI FIFO"] + _loop(
            [
                "r1   <- load [buf + i*8]",
                "store [NI_FIFO] <- r1          ; fixed port address",
            ]
        )
    if kind is TransferKind.LOAD_SEND:
        store = (
            f"store [{_address(y, 'ANNEX')}] <- r1"
            "  ; address rides with the data (Nadp)"
            if adp
            else "store [ANNEX + i*8] <- r1      ; block framing (Nd)"
        )
        return _loop(
            _index_read(read) + [f"r1   <- load [{_address(read, 'src')}]", store]
        )
    if kind is TransferKind.RECEIVE_DEPOSIT and packing:
        return ["; deposit engine drops the block into rbuf (0D1, no CPU)"]
    if kind is TransferKind.RECEIVE_DEPOSIT:
        return ["; deposit engine scatters address-data pairs (0Dy, no CPU)"]
    if engine.unit is ResourceUnit.COPROCESSOR:
        return ["; co-processor runs the receive-store loop (0Ry):"] + _loop(
            _index_read(write, "") + [
                "r1   <- load [NI_FIFO]",
                f"store [{_address(write, 'dst')}] <- r1",
            ]
        )
    return ["; receive-store 0R1: drain the NI FIFO"] + _loop(
        ["r1   <- load [NI_FIFO]", "store [rbuf + i*8] <- r1"]
    )


def emit_pseudocode(
    x: AccessPattern,
    y: AccessPattern,
    style: OperationStyle,
    caps: CommCapabilities,
) -> str:
    """Render the inner loops a compiler would emit for ``xQy``.

    The code walks the operation the model builds
    (:func:`~repro.core.operations.buffer_packing` or
    :func:`~repro.core.operations.chained`): each basic transfer
    becomes its loop or engine setup, sender side first.  A chained
    transfer with no background receiver still shows its sender, which
    does not depend on the receiver, and says the receiver is missing.
    """
    packing = style is OperationStyle.BUFFER_PACKING
    # A chained sender does not depend on the receiver: with none, take
    # it from the co-processor variant and say the receiver is missing.
    missing = not packing and chained_receiver(y, caps) is None
    if packing:
        lines = ["; === buffer-packing transfer ===", "; -- sender --"]
        expr = buffer_packing(x, y, caps)
    else:
        lines = [
            "; === chained transfer ===",
            "; -- sender: read home pattern, store into the remote window --",
        ]
        expr = chained(
            x, y, replace(caps, coprocessor_receive=True) if missing else caps
        )
    terms = list(expr.terms())
    adp = any(t.kind is TransferKind.NETWORK_ADP for t in terms)
    sides = {NodeRole.SENDER: [], NodeRole.RECEIVER: []}
    for transfer in terms:
        if not transfer.kind.is_network:
            sides[transfer.engine.role].extend(_lines(transfer, packing, y, adp))
    lines.extend(sides[NodeRole.SENDER])
    lines.append("; -- receiver --")
    if missing:
        lines.append("; (no background receiver: chained infeasible)")
    else:
        lines.extend(sides[NodeRole.RECEIVER])
    return "\n".join(lines)
