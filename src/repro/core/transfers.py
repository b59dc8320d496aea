"""Basic transfers: the atoms of the copy-transfer model.

Section 3.2 of the paper defines seven basic transfers.  Five move data
within a node:

========  ==========================  =============================
notation  name                        executing unit
========  ==========================  =============================
``xCy``   local memory-to-memory copy processor (load/store loop)
``xS0``   load-send                   processor (stores to NI FIFO)
``xF0``   fetch-send                  DMA / fetch engine, background
``0Ry``   receive-store               processor (or co-processor)
``0Dy``   receive-deposit             deposit engine, background
========  ==========================  =============================

and two move data between nodes:

========  ==========================================================
``Nd``    data-only network transfer (block framed, no addresses)
``Nadp``  address-plus-data network transfer (address-data pairs)
========  ==========================================================

A :class:`BasicTransfer` is an immutable value: kind, read pattern,
write pattern, and the set of :class:`~repro.core.resources.Resource`
objects it occupies.  Resource sets drive the legality checks for
parallel composition and the shared-bandwidth constraints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Optional

from .errors import PatternError
from .patterns import FIXED, AccessPattern
from .resources import NodeRole, Resource, ResourceUnit, resources

__all__ = [
    "TransferKind",
    "BasicTransfer",
    "copy",
    "load_send",
    "fetch_send",
    "receive_store",
    "receive_deposit",
    "network_data",
    "network_adp",
]


class TransferKind(enum.Enum):
    """The seven basic transfer families, keyed by their paper letter."""

    COPY = "C"
    LOAD_SEND = "S"
    FETCH_SEND = "F"
    RECEIVE_STORE = "R"
    RECEIVE_DEPOSIT = "D"
    NETWORK_DATA = "Nd"
    NETWORK_ADP = "Nadp"

    @property
    def letter(self) -> str:
        return self.value

    @property
    def is_network(self) -> bool:
        return self in (TransferKind.NETWORK_DATA, TransferKind.NETWORK_ADP)

    @property
    def is_background(self) -> bool:
        """True for transfers done by dedicated hardware, not a processor."""
        return self in (
            TransferKind.FETCH_SEND,
            TransferKind.RECEIVE_DEPOSIT,
            TransferKind.NETWORK_DATA,
            TransferKind.NETWORK_ADP,
        )


@dataclass(frozen=True)
class BasicTransfer:
    """One basic transfer ``rTw`` with its resource footprint.

    Use the module-level factory functions (:func:`copy`,
    :func:`load_send`, ...) instead of the constructor; they fill in the
    correct fixed-end patterns and default resource sets.

    Attributes:
        kind: The transfer family.
        read: The read (left-subscript) access pattern.
        write: The write (right-subscript) access pattern.
        uses: Resources this transfer occupies while running.
    """

    kind: TransferKind
    read: AccessPattern
    write: AccessPattern
    uses: FrozenSet[Resource] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind.is_network:
            if not (self.read.is_fixed and self.write.is_fixed):
                raise PatternError(
                    "network transfers carry no memory patterns; both ends are fixed"
                )
        elif self.kind in (TransferKind.LOAD_SEND, TransferKind.FETCH_SEND):
            if not self.write.is_fixed:
                raise PatternError(
                    f"{self.kind.name} writes to a fixed NI port; "
                    f"got write pattern {self.write}"
                )
            if self.read.is_fixed:
                raise PatternError(f"{self.kind.name} must read from memory")
        elif self.kind in (TransferKind.RECEIVE_STORE, TransferKind.RECEIVE_DEPOSIT):
            if not self.read.is_fixed:
                raise PatternError(
                    f"{self.kind.name} reads from a fixed NI port; "
                    f"got read pattern {self.read}"
                )
            if self.write.is_fixed:
                raise PatternError(f"{self.kind.name} must write to memory")
        else:  # COPY
            if self.read.is_fixed or self.write.is_fixed:
                raise PatternError("local copies read and write memory patterns")

    @cached_property
    def engine(self) -> Optional[Resource]:
        """The exclusive unit that executes this transfer.

        A processor, co-processor, DMA or deposit engine on the
        transfer's node role; ``None`` for a network transfer.
        """
        return next((r for r in self.uses if r.is_exclusive), None)

    @property
    def notation(self) -> str:
        """Paper notation, e.g. ``1C64``, ``wS0``, ``Nadp``."""
        if self.kind.is_network:
            return self.kind.letter
        return f"{self.read.subscript}{self.kind.letter}{self.write.subscript}"

    def __str__(self) -> str:
        return self.notation

    # Convenience for building expressions with operators; the heavy
    # lifting lives in repro.core.composition (imported lazily to avoid
    # a module cycle).

    def _as_term(self):
        from .composition import Term

        return Term(self)

    def __rshift__(self, other):
        return self._as_term() >> other

    def __or__(self, other):
        return self._as_term() | other


# -- factory functions -------------------------------------------------------


def copy(
    read: AccessPattern,
    write: AccessPattern,
    role: NodeRole = NodeRole.LOCAL,
) -> BasicTransfer:
    """A local memory-to-memory copy ``xCy`` executed by the processor."""
    return BasicTransfer(
        TransferKind.COPY,
        read,
        write,
        resources(role, ResourceUnit.CPU, ResourceUnit.MEMORY, ResourceUnit.BUS),
    )


def load_send(read: AccessPattern) -> BasicTransfer:
    """A load-send ``xS0``: the processor copies memory into the NI FIFO."""
    return BasicTransfer(
        TransferKind.LOAD_SEND,
        read,
        FIXED,
        resources(
            NodeRole.SENDER,
            ResourceUnit.CPU,
            ResourceUnit.MEMORY,
            ResourceUnit.BUS,
            ResourceUnit.NI_PORT,
        ),
    )


def fetch_send(read: AccessPattern) -> BasicTransfer:
    """A fetch-send ``xF0``: a DMA/fetch engine feeds the NI in background."""
    return BasicTransfer(
        TransferKind.FETCH_SEND,
        read,
        FIXED,
        resources(
            NodeRole.SENDER,
            ResourceUnit.DMA,
            ResourceUnit.MEMORY,
            ResourceUnit.BUS,
            ResourceUnit.NI_PORT,
        ),
    )


def receive_store(write: AccessPattern, coprocessor: bool = False) -> BasicTransfer:
    """A receive-store ``0Ry``: a processor drains the NI into memory.

    With ``coprocessor=True`` the transfer runs on the node's second
    processor (the Paragon message co-processor used as a deposit engine
    in Section 5.1.4), leaving the main CPU free for parallel work.
    """
    unit = ResourceUnit.COPROCESSOR if coprocessor else ResourceUnit.CPU
    return BasicTransfer(
        TransferKind.RECEIVE_STORE,
        FIXED,
        write,
        resources(
            NodeRole.RECEIVER,
            unit,
            ResourceUnit.MEMORY,
            ResourceUnit.BUS,
            ResourceUnit.NI_PORT,
        ),
    )


def receive_deposit(write: AccessPattern) -> BasicTransfer:
    """A receive-deposit ``0Dy``: dedicated hardware stores incoming data."""
    return BasicTransfer(
        TransferKind.RECEIVE_DEPOSIT,
        FIXED,
        write,
        resources(
            NodeRole.RECEIVER,
            ResourceUnit.DEPOSIT,
            ResourceUnit.MEMORY,
            ResourceUnit.BUS,
            ResourceUnit.NI_PORT,
        ),
    )


def network_data() -> BasicTransfer:
    """A data-only network transfer ``Nd`` (block framing, no addresses)."""
    return BasicTransfer(
        TransferKind.NETWORK_DATA,
        FIXED,
        FIXED,
        frozenset({Resource(ResourceUnit.NETWORK, NodeRole.LOCAL)}),
    )


def network_adp() -> BasicTransfer:
    """An address-plus-data network transfer ``Nadp`` (address-data pairs)."""
    return BasicTransfer(
        TransferKind.NETWORK_ADP,
        FIXED,
        FIXED,
        frozenset({Resource(ResourceUnit.NETWORK, NodeRole.LOCAL)}),
    )
