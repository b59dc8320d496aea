"""Overload protection for the traffic engine: admission control.

The paper's whole point is that communication performance collapses
when a memory-system resource saturates.  The load engine can drive a
node into that regime — an open-loop generator above the NIC's
calibrated capacity grows queues (and p99) without bound.  This module
is the part of the protection layer that decides, *before a request is
priced*, whether the system should take it at all:

* :class:`OverloadSpec` — the profile-level configuration: admission
  policy, station capacity, reject handling (drop vs seeded backoff
  retry), retry budget, circuit-breaker parameters and the declared
  p99 ceiling the latency-curve assertions hold the protected engine
  to;
* :class:`AdmissionPolicy` and its implementations — ``none``,
  ``bounded-queue`` (gate on the source NIC's backlog),
  ``token-bucket`` (seeded refill on simulated time) and ``adaptive``
  (AIMD on the observed p99, the gradient-descent shape of
  Netflix-style concurrency limiters).

Every decision is content-derived: backlog and token state evolve only
with simulated events, and the adaptive policy's probabilistic gate
draws from the pure-hash ``("admit",)`` stream of
:func:`repro.contract.draws`, bound once per policy — so a protected
run replays bit-identically, like everything else in ``repro.load``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..contract import draws
from ..core.errors import LoadError
from .queues import Station

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "OverloadSpec",
    "admission_by_name",
]

#: Admission policy names accepted by :attr:`OverloadSpec.admission`.
ADMISSION_POLICIES = ("none", "bounded-queue", "token-bucket", "adaptive")

_REJECT_MODES = ("drop", "backoff")


@dataclass(frozen=True)
class OverloadSpec:
    """Overload-protection configuration for one load profile.

    The default instance is a no-op (:meth:`is_noop`): admission
    ``none``, unbounded stations, breakers off.  A profile without a
    spec runs under it, so no spec and a no-op spec give the same
    run and the same report.

    Attributes:
        admission: One of :data:`ADMISSION_POLICIES`.
        queue_limit: ``bounded-queue``: maximum source-NIC backlog
            (queued + in service) admitted; at or beyond it new
            arrivals are rejected.
        station_capacity: Waiting-line bound installed on every
            station (0 = unbounded).  Rejections mid-route count
            against the station and the request's generator.
        token_rate_per_s: ``token-bucket``: sustained admitted request
            rate; tokens refill on simulated time.
        token_burst: ``token-bucket``: bucket depth (maximum burst
            admitted from a full bucket).
        target_p99_ns: ``adaptive``: the p99 the controller steers
            toward — multiplicative decrease of the admit fraction
            while the windowed p99 exceeds it, additive increase
            otherwise.
        p99_ceiling_ns: Declared bound on reported p99 (0 = none).
            Not enforced by the engine; the latency-curve knee report
            and the CI load job assert against it.
        reject_retry: ``"drop"`` (open-loop semantics: a rejected
            request is lost) or ``"backoff"`` (closed-loop semantics:
            the request re-arrives after a seeded exponential backoff,
            up to ``max_retries`` attempts, subject to the retry
            budget).
        retry_backoff_ns: Base backoff before the first re-arrival;
            doubles per attempt, with a pure-hash jitter in [0.5, 1.5).
        max_retries: Re-arrival attempts per rejected request.
        retry_budget: Maximum fraction of in-flight arrivals that may
            be retries, in [0, 1].  Composes with the fault plan's
            :attr:`~repro.faults.policy.RetryPolicy.retry_budget` (the
            stricter of the two wins) so reject-retries and
            abort-retries cannot storm an open breaker.
        breaker_threshold: Consecutive per-link failures that trip the
            breaker open (0 = breakers off).
        breaker_cooldown_ns: Simulated time an open breaker waits
            before letting half-open probes through.
        breaker_probes: Consecutive half-open probe successes required
            to close.
        breaker_derate_trip: Treat a link whose fault-plan derate is
            at or below this remaining-capacity fraction as failing
            (0 = ignore derates).
    """

    admission: str = "none"
    queue_limit: int = 64
    station_capacity: int = 0
    token_rate_per_s: float = 0.0
    token_burst: int = 32
    target_p99_ns: float = 0.0
    p99_ceiling_ns: float = 0.0
    reject_retry: str = "drop"
    retry_backoff_ns: float = 200_000.0
    max_retries: int = 3
    retry_budget: float = 1.0
    breaker_threshold: int = 0
    breaker_cooldown_ns: float = 5_000_000.0
    breaker_probes: int = 1
    breaker_derate_trip: float = 0.0

    def __post_init__(self) -> None:
        if self.admission not in ADMISSION_POLICIES:
            raise LoadError(
                f"unknown admission policy {self.admission!r}; "
                f"choose from {list(ADMISSION_POLICIES)}"
            )
        if self.queue_limit < 1:
            raise LoadError(
                f"queue limit must be >= 1, got {self.queue_limit}"
            )
        if self.station_capacity < 0:
            raise LoadError(
                "station capacity must be >= 0 (0 = unbounded), "
                f"got {self.station_capacity}"
            )
        if self.admission == "token-bucket" and self.token_rate_per_s <= 0.0:
            raise LoadError(
                "token-bucket admission needs token_rate_per_s > 0"
            )
        if self.token_rate_per_s < 0.0:
            raise LoadError("token rate cannot be negative")
        if self.token_burst < 1:
            raise LoadError(
                f"token burst must be >= 1, got {self.token_burst}"
            )
        if self.admission == "adaptive" and self.target_p99_ns <= 0.0:
            raise LoadError("adaptive admission needs target_p99_ns > 0")
        for name, value in (
            ("target_p99_ns", self.target_p99_ns),
            ("p99_ceiling_ns", self.p99_ceiling_ns),
            ("retry_backoff_ns", self.retry_backoff_ns),
            ("breaker_cooldown_ns", self.breaker_cooldown_ns),
            ("breaker_derate_trip", self.breaker_derate_trip),
        ):
            if value < 0.0:
                raise LoadError(f"{name} cannot be negative, got {value}")
        if self.reject_retry not in _REJECT_MODES:
            raise LoadError(
                f"reject_retry must be one of {_REJECT_MODES}, "
                f"got {self.reject_retry!r}"
            )
        if self.max_retries < 0:
            raise LoadError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0.0 <= self.retry_budget <= 1.0:
            raise LoadError(
                f"retry budget must be in [0, 1], got {self.retry_budget}"
            )
        if self.breaker_threshold < 0:
            raise LoadError(
                f"breaker threshold must be >= 0, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_probes < 1:
            raise LoadError(
                f"breaker probes must be >= 1, got {self.breaker_probes}"
            )
        if not 0.0 <= self.breaker_derate_trip <= 1.0:
            raise LoadError(
                "breaker derate trip must be in [0, 1], got "
                f"{self.breaker_derate_trip}"
            )

    def is_noop(self) -> bool:
        """True when this spec can never refuse or drop a request.

        Under a no-op spec — ``none`` admission, unbounded stations,
        no breakers — every arrival is admitted and served, exactly
        as with ``overload=None``.  Unless a template sets a deadline,
        the run is then unprotected: its report carries no
        ``overload`` section and a transfer aborted by the fault plan
        ends the run instead of counting as ``broken``.
        """
        return (
            self.admission == "none"
            and self.station_capacity == 0
            and self.breaker_threshold == 0
        )

    def breakers_enabled(self) -> bool:
        return self.breaker_threshold > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "admission": self.admission,
            "queue_limit": self.queue_limit,
            "station_capacity": self.station_capacity,
            "token_rate_per_s": self.token_rate_per_s,
            "token_burst": self.token_burst,
            "target_p99_ns": self.target_p99_ns,
            "p99_ceiling_ns": self.p99_ceiling_ns,
            "reject_retry": self.reject_retry,
            "retry_backoff_ns": self.retry_backoff_ns,
            "max_retries": self.max_retries,
            "retry_budget": self.retry_budget,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_ns": self.breaker_cooldown_ns,
            "breaker_probes": self.breaker_probes,
            "breaker_derate_trip": self.breaker_derate_trip,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OverloadSpec":
        try:
            return cls(**payload)
        except TypeError as exc:
            raise LoadError(f"malformed overload spec: {exc}") from exc


class AdmissionPolicy:
    """Base: decide whether one arrival enters the system.

    The engine calls :meth:`admit` once per arrival, *before* the
    request is priced or routed, with the source node's NIC station
    (a policy that gates on its backlog reads
    :meth:`~repro.load.queues.Station.backlog`) and the request's
    content-derived identity; and
    :meth:`observe` once per completion, feeding the closed loop the
    adaptive policy needs.  Both run on simulated time only.
    """

    name = "none"

    def __init__(self, spec: OverloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed

    def admit(
        self, now_ns: float, nic: Station, identity: Tuple[Any, ...]
    ) -> bool:
        return True

    def observe(self, now_ns: float, latency_ns: float) -> None:
        pass

    def describe(self) -> Dict[str, Any]:
        return {"policy": self.name}


class BoundedQueueAdmission(AdmissionPolicy):
    """Admit while the source NIC's backlog is under ``queue_limit``.

    The simplest useful gate: offered load beyond service capacity
    turns into rejections instead of unbounded queue growth, so queue
    wait — and therefore p99 — is bounded by roughly
    ``queue_limit x service time``.
    """

    name = "bounded-queue"

    def admit(self, now_ns, nic, identity) -> bool:
        return nic.backlog() < self.spec.queue_limit

    def describe(self) -> Dict[str, Any]:
        return {"policy": self.name, "queue_limit": self.spec.queue_limit}


class TokenBucketAdmission(AdmissionPolicy):
    """Admit while the bucket has a token; refill on simulated time.

    Tokens accrue at ``token_rate_per_s`` up to ``token_burst``.  The
    bucket state is a pure function of the admitted-arrival history,
    so replays are exact.
    """

    name = "token-bucket"

    def __init__(self, spec: OverloadSpec, seed: int) -> None:
        super().__init__(spec, seed)
        self._tokens = float(spec.token_burst)
        self._clock_ns = 0.0

    def admit(self, now_ns, nic, identity) -> bool:
        rate = self.spec.token_rate_per_s
        self._tokens = min(
            float(self.spec.token_burst),
            self._tokens + (now_ns - self._clock_ns) * rate / 1e9,
        )
        self._clock_ns = now_ns
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def describe(self) -> Dict[str, Any]:
        return {
            "policy": self.name,
            "token_rate_per_s": self.spec.token_rate_per_s,
            "token_burst": self.spec.token_burst,
        }


class AdaptiveAdmission(AdmissionPolicy):
    """AIMD on the observed p99: shed harder as the tail grows.

    Keeps a sliding window of completion latencies; every
    ``_PERIOD`` completions it compares the window's nearest-rank p99
    against ``target_p99_ns`` and applies the classic congestion-
    control move — multiplicative decrease (x0.7) of the admit
    fraction when over target, additive increase (+0.02) when under.
    Arrivals are gated by a pure-hash draw against the fraction, so
    the probabilistic shedding replays bit-identically.
    """

    name = "adaptive"

    _WINDOW = 128
    _PERIOD = 32
    _FLOOR = 0.05
    _DECREASE = 0.7
    _INCREASE = 0.02

    def __init__(self, spec: OverloadSpec, seed: int) -> None:
        super().__init__(spec, seed)
        self._fraction = 1.0
        self._window: List[float] = []
        self._observed = 0
        self._adjustments = 0
        self._gate = draws(seed, "admit")

    def admit(self, now_ns, nic, identity) -> bool:
        if self._fraction >= 1.0:
            return True
        return self._gate(*identity) < self._fraction

    def observe(self, now_ns: float, latency_ns: float) -> None:
        window = self._window
        window.append(latency_ns)
        if len(window) > self._WINDOW:
            del window[0]
        self._observed += 1
        if self._observed % self._PERIOD:
            return
        ordered = sorted(window)
        rank = max(0, min(len(ordered) - 1, round(0.99 * (len(ordered) - 1))))
        self._adjustments += 1
        if ordered[rank] > self.spec.target_p99_ns:
            self._fraction = max(self._FLOOR, self._fraction * self._DECREASE)
        else:
            self._fraction = min(1.0, self._fraction + self._INCREASE)

    def describe(self) -> Dict[str, Any]:
        return {
            "policy": self.name,
            "target_p99_ns": self.spec.target_p99_ns,
            "final_fraction": self._fraction,
            "adjustments": self._adjustments,
        }


_POLICIES = {
    "none": AdmissionPolicy,
    "bounded-queue": BoundedQueueAdmission,
    "token-bucket": TokenBucketAdmission,
    "adaptive": AdaptiveAdmission,
}


def admission_by_name(spec: OverloadSpec, seed: int) -> AdmissionPolicy:
    """Instantiate the spec's admission policy (validated by the spec)."""
    return _POLICIES[spec.admission](spec, seed)
