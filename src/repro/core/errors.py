"""Exception hierarchy for the copy-transfer model.

All errors raised by :mod:`repro.core` derive from :class:`ModelError`, so
callers can catch one type to handle any model-level failure while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all copy-transfer model errors."""


class PatternError(ModelError):
    """An access pattern is malformed or used in an illegal position."""


class CompositionError(ModelError):
    """A composition violates the model's concatenation rules.

    Raised when sequential composition chains transfers whose access
    patterns do not match (the write pattern of one step must equal the
    read pattern of the next), or when parallel composition combines
    transfers that share an exclusive resource.
    """


class CalibrationError(ModelError):
    """A throughput table lookup failed or a table entry is invalid."""


class ConstraintError(ModelError):
    """A resource constraint is malformed (e.g. non-positive capacity)."""


class FaultError(ModelError):
    """An injected fault made an operation impossible.

    Raised when a fault plan leaves no legal way to proceed: a failed
    link partitions the topology, or a fault spec is malformed.
    Recoverable faults (deposit-engine loss with a packing fallback,
    fragment loss within the retry budget) never raise; they degrade.
    """


class TransferAbortedError(FaultError):
    """A transfer exhausted its retry budget and gave up.

    Carries the endpoints of the aborted transfer (when known) so
    higher layers — notably the load engine's circuit breakers — can
    attribute the abort to a specific (src, dst) link without parsing
    the message.  Anonymous transfers leave both as ``None``.
    ``ledger`` holds the transfer's ledger rows as far as it got, so a
    caller that memoizes the abort can replay its trace on a repeat.
    """

    def __init__(
        self,
        message: str,
        src: "int | None" = None,
        dst: "int | None" = None,
        ledger: tuple = (),
    ) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.ledger = ledger


class LoadError(ModelError):
    """The traffic engine was asked something impossible.

    Raised for malformed load profiles and overload-protection specs,
    percentile queries on an empty latency store, and invalid
    latency-curve sweeps.
    """
