"""Open/closed-loop traffic generation with per-node queueing.

The paper prices one transfer at a time; this package asks the next
question — what happens to latency when thousands of clients keep the
machine busy?  A seeded, replay-deterministic discrete-event engine
(:class:`LoadEngine`) drives request generators (:class:`OpenLoopSpec`
Poisson/bursty arrivals, :class:`ClosedLoopSpec` think-time clients)
through per-node NIC / deposit-engine / co-processor queueing
stations whose service times come from the calibrated runtime, and
reports p50/p99/p999 latency plus per-station utilization.

Past saturation the engine can also *protect itself*: an
:class:`OverloadSpec` on the profile turns on admission control,
bounded stations, request deadlines with load shedding, and per-link
circuit breakers (:mod:`repro.load.overload`,
:mod:`repro.load.breaker`) — all on the same seeded, bit-identical
replay discipline.

See ``docs/LOAD.md`` for the full tour and
``python -m repro load --help`` for the CLI.
"""

from .breaker import BreakerBoard, CircuitBreaker
from .dispatch import POLICIES, DispatchPolicy, policy_by_name
from .engine import LoadEngine, LoadResult
from .latency import LatencyStore
from .overload import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    OverloadSpec,
    admission_by_name,
)
from .queues import Station
from ..contract import (
    LOAD_OVERLOAD as OVERLOAD_SCHEMA,
    LOAD_REPORT as SCHEMA,
    canonical_json,
    digest,
    validate_load_report,
)
from .workload import (
    PROFILES,
    ClosedLoopSpec,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    profile_by_name,
    uniform,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "BreakerBoard",
    "CircuitBreaker",
    "ClosedLoopSpec",
    "DispatchPolicy",
    "LatencyStore",
    "LoadEngine",
    "LoadProfile",
    "LoadResult",
    "OVERLOAD_SCHEMA",
    "OpenLoopSpec",
    "OverloadSpec",
    "POLICIES",
    "PROFILES",
    "RequestTemplate",
    "SCHEMA",
    "Station",
    "admission_by_name",
    "canonical_json",
    "digest",
    "policy_by_name",
    "profile_by_name",
    "uniform",
    "validate_load_report",
]
