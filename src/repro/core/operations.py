"""Builders for the compiler-level communication operation ``xQy``.

``xQy`` is a local-memory to remote-memory copy with read pattern ``x``
on the sender and write pattern ``y`` on the receiver — the operation a
parallelizing compiler emits for an array assignment (Section 3.4).
The paper studies two implementation strategies:

**Buffer-packing** (Section 3.4, 5.1.1, 5.1.3)::

    xQy = xC1 o (1S0 || Nd || 0D1) o 1Cy

gather into a contiguous buffer, ship the block over the data-only
network, scatter at the receiver.  PVM-style libraries force the
gather/scatter copies even when both patterns are contiguous.

**Chained** (Section 5.1.2, 5.1.4)::

    1Q'1 = 1S0 || Nd   || 0D1
    xQ'y = xS0 || Nadp || 0Dy

the sender reads the elements in their home pattern and streams them
straight to the network; a deposit engine (or a dedicated co-processor)
performs the scatter in the background.  Non-contiguous remote stores
ship address-data pairs, halving the useful wire bandwidth.

Which concrete basic transfers appear (DMA fetch-send vs processor
load-send, deposit engine vs co-processor receive-store) depends on the
machine; :class:`CommCapabilities` captures the relevant hardware
features so the builders stay machine-independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from .composition import Expr, par, seq
from .errors import CompositionError
from .patterns import CONTIGUOUS, INDEXED, AccessPattern
from .resources import NodeRole
from .transfers import (
    BasicTransfer,
    copy,
    fetch_send,
    load_send,
    network_adp,
    network_data,
    receive_deposit,
    receive_store,
)

__all__ = [
    "DepositSupport",
    "CommCapabilities",
    "OperationStyle",
    "buffer_packing",
    "chained",
    "chained_receiver",
]


class DepositSupport(enum.Enum):
    """What write patterns the receiver's background engine can handle."""

    NONE = "none"
    CONTIGUOUS = "contiguous"
    ANY = "any"


@dataclass(frozen=True)
class CommCapabilities:
    """The hardware features that shape ``xQy`` implementations.

    Attributes:
        deposit: What the deposit engine supports.  The T3D annex
            processes address-data pairs for any pattern (``ANY``); the
            Paragon DMA handles only aligned contiguous blocks
            (``CONTIGUOUS``).
        dma_send: Whether a fetch-send ``1F0`` exists for contiguous
            sends (Paragon line-transfer unit: yes; T3D: no).
        coprocessor_receive: Whether a second processor can act as a
            deposit engine via ``0Ry`` (Paragon message co-processor).
        pack_even_contiguous: Whether the library forces gather/scatter
            copies for contiguous patterns too (PVM semantics).
        overlap_unpack: Whether the receiver's scatter copy can overlap
            the network stage (Paragon with the co-processor tending
            the DMA engines, Section 5.1.3).
    """

    deposit: DepositSupport = DepositSupport.NONE
    dma_send: bool = False
    coprocessor_receive: bool = False
    pack_even_contiguous: bool = True
    overlap_unpack: bool = False

    @property
    def chained_receiver_available(self) -> bool:
        """Whether a chained transfer has a receiver for every pattern."""
        return chained_receiver(INDEXED, self) is not None

    def without_deposit(self) -> "CommCapabilities":
        """These capabilities with the deposit engine out of service."""
        return replace(self, deposit=DepositSupport.NONE)


class OperationStyle(enum.Enum):
    """The two implementation strategies compared by the paper."""

    BUFFER_PACKING = "buffer-packing"
    CHAINED = "chained"


def buffer_packing(
    x: AccessPattern,
    y: AccessPattern,
    caps: CommCapabilities,
) -> Expr:
    """Build the buffer-packing implementation of ``xQy``.

    The gather copy is emitted unless ``x`` is contiguous and the
    library allows skipping it (``pack_even_contiguous=False``);
    likewise for the scatter copy and ``y``.
    """
    if x.is_fixed or y.is_fixed:
        raise CompositionError("xQy patterns must address memory, not a FIFO")
    # The contiguous block crosses the data-only network.
    sender = fetch_send(CONTIGUOUS) if caps.dma_send else load_send(CONTIGUOUS)
    if caps.deposit is DepositSupport.NONE:
        receiver = receive_store(CONTIGUOUS)
    else:
        receiver = receive_deposit(CONTIGUOUS)
    middle = par(sender, network_data(), receiver)
    parts = []
    if caps.pack_even_contiguous or not x.is_contiguous:
        parts.append(copy(x, CONTIGUOUS, role=NodeRole.SENDER))
    scatter = []
    if caps.pack_even_contiguous or not y.is_contiguous:
        scatter.append(copy(CONTIGUOUS, y, role=NodeRole.RECEIVER))
    if scatter and caps.overlap_unpack:
        parts.append(par(middle, *scatter))
    else:
        parts.extend((middle, *scatter))
    return parts[0] if len(parts) == 1 else seq(*parts)


def chained_receiver(
    y: AccessPattern, caps: CommCapabilities
) -> Optional[BasicTransfer]:
    """The background receiver a chained transfer writes ``y`` with.

    A deposit engine that handles ``y``, else the co-processor's
    receive-store; ``None`` when the machine has neither.  Every layer
    that needs the chained receiver (the runtime, the code generator,
    the plan verifier) reads it from here or from :func:`chained`.
    """
    if caps.deposit is DepositSupport.ANY or (
        caps.deposit is DepositSupport.CONTIGUOUS and y.is_contiguous
    ):
        return receive_deposit(y)
    if caps.coprocessor_receive:
        return receive_store(y, coprocessor=True)
    return None


def chained(
    x: AccessPattern,
    y: AccessPattern,
    caps: CommCapabilities,
) -> Expr:
    """Build the chained implementation ``xQ'y``.

    Requires a receiver that can scatter in the background: a
    general-pattern deposit engine or a co-processor receive-store.
    Contiguous-to-contiguous transfers ride the data-only network;
    anything else ships address-data pairs.
    """
    if x.is_fixed or y.is_fixed:
        raise CompositionError("xQy patterns must address memory, not a FIFO")
    contiguous = x.is_contiguous and y.is_contiguous
    network = network_data() if contiguous else network_adp()
    receiver = chained_receiver(y, caps)
    if receiver is None:
        raise CompositionError(
            f"no background receiver for write pattern {y}: chained "
            "transfers need a general deposit engine or a co-processor"
        )
    return par(load_send(x), network, receiver)
