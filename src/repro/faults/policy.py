"""Retry, timeout and backoff: what recovery costs.

The paper's transfers always succeed; a production runtime's do not.
When a fault plan injects fragment loss or corruption, the runtime
charges the recovery into the transfer as two new sequential phases:

* ``retry`` — busy time: retransmitted payload plus, for losses, the
  timeout the sender sat on before declaring the fragment dead
  (corruption is detected on receipt, so it pays no timeout);
* ``backoff`` — idle time: the exponential wait between attempts,
  capped at :attr:`RetryPolicy.backoff_cap_ns`.

Keeping recovery in named phases preserves the tracing invariant from
the observability layer: phase spans still sum exactly to the
transfer's end-to-end nanoseconds.

The decision of whether attempt ``a`` of unit ``u`` fails is a pure
hash of the fault plan's seed and the decision key — the same draw as
:meth:`~repro.faults.spec.FaultPlan.bernoulli`, taken from one
:func:`repro.contract.draws` stream per message key — so a recovery
charge is a deterministic function of ``(plan, transfer identity)``,
the replay guarantee the property suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple, TYPE_CHECKING

from ..contract import draws
from ..core.errors import FaultError, TransferAbortedError

if TYPE_CHECKING:
    from .spec import FaultPlan

__all__ = ["RetryPolicy", "RecoveryCharge", "recovery_charge"]

_GRANULARITIES = ("fragment", "message")


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime recovers from lost or corrupted units.

    Attributes:
        timeout_ns: How long the sender waits before declaring a
            transmitted unit lost.
        backoff_base_ns: Idle wait before the first retransmission.
        backoff_factor: Multiplier applied per further attempt.
        backoff_cap_ns: Ceiling on any single backoff wait.
        max_attempts: Transmissions per unit before the transfer is
            aborted with :class:`~repro.core.errors.TransferAbortedError`.
        granularity: ``"fragment"`` retries individual fragments;
            ``"message"`` retransmits the whole message when any
            fragment fails (simple protocols without selective repeat).
        retry_budget: Maximum fraction of in-flight work that may be
            retries, in ``[0, 1]``.  The runtime's per-transfer
            recovery ignores it (one transfer has no fleet view); the
            load engine consults it before scheduling a rejected or
            aborted request for another attempt, so retry storms
            cannot amplify an overload or hammer an open circuit
            breaker (see ``docs/LOAD.md``).
    """

    timeout_ns: float = 50_000.0
    backoff_base_ns: float = 10_000.0
    backoff_factor: float = 2.0
    backoff_cap_ns: float = 400_000.0
    max_attempts: int = 8
    granularity: str = "fragment"
    retry_budget: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout_ns < 0 or self.backoff_base_ns < 0:
            raise FaultError("timeout and backoff base cannot be negative")
        if self.backoff_factor < 1.0:
            raise FaultError(
                f"backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_cap_ns < self.backoff_base_ns:
            raise FaultError("backoff cap cannot undercut the base wait")
        if self.max_attempts < 1:
            raise FaultError(
                f"need at least one attempt, got {self.max_attempts}"
            )
        if self.granularity not in _GRANULARITIES:
            raise FaultError(
                f"granularity must be one of {_GRANULARITIES}, "
                f"got {self.granularity!r}"
            )
        if not 0.0 <= self.retry_budget <= 1.0:
            raise FaultError(
                f"retry budget must be in [0, 1], got {self.retry_budget}"
            )

    def backoff_ns(self, retry_index: int) -> float:
        """Idle wait before retransmission number ``retry_index`` (0-based)."""
        return min(
            self.backoff_cap_ns,
            self.backoff_base_ns * self.backoff_factor ** retry_index,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "timeout_ns": self.timeout_ns,
            "backoff_base_ns": self.backoff_base_ns,
            "backoff_factor": self.backoff_factor,
            "backoff_cap_ns": self.backoff_cap_ns,
            "max_attempts": self.max_attempts,
            "granularity": self.granularity,
            "retry_budget": self.retry_budget,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RetryPolicy":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise FaultError(f"malformed retry policy: {exc}") from exc


@dataclass(frozen=True)
class RecoveryCharge:
    """What fragment-level faults cost one transfer.

    Attributes:
        retry_ns: Busy recovery time (retransmissions + loss timeouts).
        backoff_ns: Idle backoff time between attempts.
        retries: Retransmissions performed.
        losses: Attempts that were lost on the wire.
        corruptions: Attempts that arrived corrupted.
    """

    retry_ns: float = 0.0
    backoff_ns: float = 0.0
    retries: int = 0
    losses: int = 0
    corruptions: int = 0

    @property
    def total_ns(self) -> float:
        return self.retry_ns + self.backoff_ns

    def __bool__(self) -> bool:
        return self.retries > 0


_NO_RECOVERY = RecoveryCharge()


def recovery_charge(
    plan: "FaultPlan",
    fragments: int,
    fragment_ns: float,
    message_ns: float,
    key: Tuple[Any, ...],
) -> RecoveryCharge:
    """Deterministically price the recovery of one message.

    The first transmission of every unit is already charged by the
    transfer's base phases; this adds only the extra attempts.  ``key``
    identifies the message (patterns, size, endpoints) so two distinct
    messages under the same plan draw independent — but reproducible —
    fault decisions.

    Raises:
        TransferAbortedError: A unit failed ``max_attempts`` times.
    """
    loss = plan.loss_probability()
    corrupt = plan.corrupt_probability()
    if loss <= 0.0 and corrupt <= 0.0:
        return _NO_RECOVERY

    policy = plan.retry
    if policy.granularity == "message":
        units, unit_ns = 1, message_ns
    else:
        units, unit_ns = max(1, fragments), fragment_ns

    # Every decision of this message draws from one stream: the
    # key is bound once, each draw adds (unit, attempt, kind).
    draw = draws(plan.seed, *key)
    retry_ns = 0.0
    backoff_ns = 0.0
    retries = losses = corruptions = 0
    for unit in range(units):
        for attempt in range(policy.max_attempts):
            lost = loss > 0.0 and draw(unit, attempt, "loss") < loss
            corrupted = (
                not lost and corrupt > 0.0
                and draw(unit, attempt, "corrupt") < corrupt
            )
            if not lost and not corrupted:
                break
            if lost:
                losses += 1
                retry_ns += policy.timeout_ns
            else:
                corruptions += 1
            if attempt + 1 >= policy.max_attempts:
                raise TransferAbortedError(
                    f"unit {unit} failed {policy.max_attempts} attempts "
                    f"(seed {plan.seed}): transfer aborted"
                )
            retries += 1
            retry_ns += unit_ns
            backoff_ns += policy.backoff_ns(attempt)
    if not retries:
        return _NO_RECOVERY
    return RecoveryCharge(
        retry_ns=retry_ns,
        backoff_ns=backoff_ns,
        retries=retries,
        losses=losses,
        corruptions=corruptions,
    )
