"""Fault injection and degraded-mode communication.

The copy-transfer algebra assumes every basic transfer runs at its
calibrated rate.  This package drops that assumption under controlled,
reproducible conditions:

* :class:`FaultPlan` — a seeded description of link derates/failures,
  slow nodes, deposit-engine unavailability and fragment loss or
  corruption on the wire;
* :class:`RetryPolicy` — timeout, exponential backoff with a cap, and
  a retry budget; recovery is charged into the transfer as ``retry``
  and ``backoff`` phases, keeping the phase-sum tracing invariant;
* :class:`DegradedResult` — the legible record of a graceful fallback
  (chained -> buffer-packing when the deposit engine is gone);
* :class:`FaultyTopology` — routing that detours around failed links
  and congestion that weights derated ones.

Install a plan for a region of code with :func:`injecting` (the same
context-variable pattern as :func:`repro.trace.tracing`) or pass it to
:class:`~repro.runtime.engine.CommRuntime` explicitly.  An empty or
absent plan is guaranteed bit-identical to the fault-free path.
"""

from .degrade import DegradedResult
from .network import FaultyTopology, degraded_congestion, reroute_report
from .policy import RecoveryCharge, RetryPolicy, recovery_charge
from ..contract import validate_faults_report
from .spec import (
    DepositFault,
    FaultPlan,
    FragmentFault,
    LinkFault,
    NodeFault,
    current_fault_plan,
    injecting,
)

__all__ = [
    "DegradedResult",
    "DepositFault",
    "FaultPlan",
    "FaultyTopology",
    "FragmentFault",
    "LinkFault",
    "NodeFault",
    "RecoveryCharge",
    "RetryPolicy",
    "current_fault_plan",
    "degraded_congestion",
    "injecting",
    "recovery_charge",
    "reroute_report",
    "validate_faults_report",
]
