"""The fault-coverage pass: is every fault class survivable here?

The fault layer (:mod:`repro.faults`) can inject four classes of
trouble — link derates/failures, node slowdowns, deposit-engine loss,
fragment corruption — and the runtime has a degraded mode for each
*under the right configuration*.  This pass proves, per plan
configuration, which classes are covered and why the uncovered ones
are not, so a schedule that silently depends on (say) retransmission
being enabled gets a CT215 diagnostic instead of a runtime abort.

The registry maps fault-class names (as exported by
``repro.faults.spec.__all__``) to predicates over a
:class:`CoverageContext`.  A predicate returns ``None`` for "covered"
or a human-readable reason string for "uncovered".  A fault class
*without* a registered predicate is automatically uncovered ("no
registered coverage check") — adding a fifth fault class to the spec
without teaching the verifier about it is itself a coverage gap, and
the pass reports it as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...core.operations import CommCapabilities, DepositSupport
from ...faults import spec as fault_spec
from ...faults.policy import RetryPolicy

__all__ = [
    "CoverageContext",
    "CoverageEntry",
    "FAULT_COVERAGE",
    "coverage_check",
    "fault_class_names",
    "fault_coverage",
]


@dataclass(frozen=True)
class CoverageContext:
    """The plan configuration the coverage predicates judge."""

    capabilities: Optional[CommCapabilities] = None
    style: Optional[str] = None
    machine: Optional[str] = None
    retry_policy: Optional[RetryPolicy] = None


@dataclass(frozen=True)
class CoverageEntry:
    """One fault class's verdict."""

    fault_class: str
    covered: bool
    reason: Optional[str] = None  # why it is *not* covered


CoverageCheck = Callable[[CoverageContext], Optional[str]]

#: fault-class name -> predicate (None: covered; str: uncovered reason).
FAULT_COVERAGE: Dict[str, CoverageCheck] = {}


def coverage_check(fault_class: str) -> Callable[[CoverageCheck], CoverageCheck]:
    """Register a coverage predicate for one fault class."""

    def register(check: CoverageCheck) -> CoverageCheck:
        FAULT_COVERAGE[fault_class] = check
        return check

    return register


def fault_class_names() -> Tuple[str, ...]:
    """Every injectable fault class, straight from the spec module."""
    return tuple(
        name for name in fault_spec.__all__ if name.endswith("Fault")
    )


@coverage_check("LinkFault")
def _link_fault(ctx: CoverageContext) -> Optional[str]:
    # Derated links scale stage rates; failed links reroute through
    # the faulty topology's surviving paths.  Always survivable.
    return None


@coverage_check("NodeFault")
def _node_fault(ctx: CoverageContext) -> Optional[str]:
    # Node slowdowns scale every stage pinned to the node; the
    # schedule completes at degraded throughput.  Always survivable.
    return None


@coverage_check("DepositFault")
def _deposit_fault(ctx: CoverageContext) -> Optional[str]:
    caps = ctx.capabilities
    if caps is None or caps.deposit is DepositSupport.NONE:
        # Nothing to lose: no plan on this machine uses a deposit
        # engine, so its failure cannot strand a transfer.
        return None
    if ctx.style != "chained":
        # Buffer packing falls back to a processor-driven receive
        # (deposit_ok=False) and keeps the same semantics.
        return None
    if caps.chained_receiver_available:
        # The chained style can rebuild on the co-processor (or the
        # general engine path degrades rather than disappears).
        return None
    return (
        "chained receives need the deposit engine and this machine has "
        "no co-processor to fall back to"
    )


@coverage_check("FragmentFault")
def _fragment_fault(ctx: CoverageContext) -> Optional[str]:
    policy = ctx.retry_policy or RetryPolicy()
    if policy.max_attempts <= 1:
        return (
            "retry policy allows a single attempt; one corrupted "
            "fragment aborts the transfer"
        )
    return None


def fault_coverage(ctx: CoverageContext) -> List[CoverageEntry]:
    """Judge every fault class against one plan configuration."""
    entries: List[CoverageEntry] = []
    for name in fault_class_names():
        check = FAULT_COVERAGE.get(name)
        if check is None:
            entries.append(
                CoverageEntry(
                    fault_class=name,
                    covered=False,
                    reason="no registered coverage check",
                )
            )
            continue
        reason = check(ctx)
        entries.append(
            CoverageEntry(
                fault_class=name, covered=reason is None, reason=reason
            )
        )
    return entries
