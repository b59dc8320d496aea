"""The end-to-end communication runtime (simulated "live" measurements).

Where :mod:`repro.core` predicts throughput from composition rules,
this engine *executes* a transfer the way the machines' runtimes did
and reports what a wall-clock measurement would see:

* **software phases** (gather / system-buffer / scatter copies) are
  staged at message granularity — a packing library packs the whole
  message before the first byte leaves the node;
* the **hardware middle** (load-send or DMA, wire, deposit/receive)
  streams chunk by chunk through FIFOs, so within it the slowest unit
  paces the rest;
* chained transfers are a single hardware-paced phase.

Sequential phases reproduce the model's harmonic rule; within-phase
streaming reproduces the min rule.  On top the runtime charges what
the model deliberately ignores: library per-message/per-fragment
costs, pipeline fill, duplex memory contention, and machine quirks
(the Paragon's unusable pipelined loads, bus arbitration).  A single
documented ``runtime_efficiency`` scalar stands in for the residual
unmodeled costs (cache invalidation, synchronization, timer reads)
that make real measurements land 10-20% under the model (Figures 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.composition import Expr, Par, Seq
from ..core.errors import (
    CalibrationError,
    CompositionError,
    ModelError,
    TransferAbortedError,
)
from ..core.operations import OperationStyle, buffer_packing, chained, chained_receiver
from ..core.patterns import CONTIGUOUS, AccessPattern
from ..core.resources import NodeRole, ResourceUnit
from ..core.transfers import BasicTransfer, TransferKind, copy
from ..faults.degrade import DegradedResult
from ..faults.policy import recovery_charge
from ..faults.spec import FaultPlan, current_fault_plan
from ..machines.base import Machine
from ..memsim.config import WORD_BYTES
from ..trace.tracer import Tracer, current_tracer
from .libraries import LibraryProfile, lowlevel_profile
from .stages import Stage, StagePipeline

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic
    from ..core.calibration import ThroughputTable
    from .collectives import CollectiveRound

__all__ = ["MeasuredTransfer", "CommRuntime", "CPU_CHUNK_OVERHEAD_NS", "measure_q"]

#: Fixed software cost a processor pays per pipeline chunk (loop setup,
#: flow control).  Background engines (DMA, deposit, network) pace
#: themselves and pay nothing per chunk.
CPU_CHUNK_OVERHEAD_NS = 1500.0

_FIXED = AccessPattern.fixed()

#: The system-buffer copies a buffered library adds on each side.
_SYSBUF_SEND = copy(CONTIGUOUS, CONTIGUOUS, role=NodeRole.SENDER)
_SYSBUF_RECEIVE = copy(CONTIGUOUS, CONTIGUOUS, role=NodeRole.RECEIVER)

#: Stage names of a pipelined phase's transfers, by resource.
_TRANSFER_STAGES = {
    "sender_cpu": "send",
    "sender_dma": "send-dma",
    "network": "network",
    "receiver_deposit": "receive-deposit",
    "receiver_cpu": "receive",
    "receiver_coproc": "receive-coproc",
}
_STAGE_NAMES = {
    "transfer": _TRANSFER_STAGES,
    "chained": {**_TRANSFER_STAGES, "receiver_deposit": "deposit"},
}


def _resource(transfer: BasicTransfer) -> str:
    """The runtime resource a transfer occupies: its unit on its node."""
    engine = transfer.engine
    if engine is None:
        return "network"
    unit = engine.unit
    name = "coproc" if unit is ResourceUnit.COPROCESSOR else unit.value
    return f"{engine.role.value}_{name}"

#: The one fault that forces a fallback path (see ``DegradedResult``).
_DEPOSIT_FAULT = "deposit-engine-unavailable"


@dataclass(frozen=True)
class MeasuredTransfer:
    """What the runtime measured for one point-to-point transfer.

    Attributes:
        mbps: End-to-end payload throughput.
        ns: Wall-clock time including library overheads.
        phase_ns: Time spent in each sequential phase, by name.
        memory_capped: Whether the duplex memory cap bound the result.
        diagnostics: Static-analyzer findings for the executed
            composition, populated when the transfer was requested with
            ``analyze=True``.
        degraded: The graceful-degradation record when an injected
            fault forced a fallback (chained -> buffer-packing);
            ``None`` on the nominal path.
        retries: Fragment/message retransmissions charged by the
            fault plan's retry policy.
        ledger: The transfer's ledger rows in the order they were
            charged — what a tracer received for this transfer, so a
            caller that reuses the result can replay its trace.  Chunk
            rows are present only when the transfer ran traced.
    """

    mbps: float
    ns: float
    nbytes: int
    style: OperationStyle
    library: str
    congestion: float
    phase_ns: Tuple[Tuple[str, float], ...]
    resource_busy_ns: Tuple[Tuple[str, float], ...] = ()
    memory_capped: bool = False
    diagnostics: Tuple["Diagnostic", ...] = ()
    degraded: Optional[DegradedResult] = None
    retries: int = 0
    ledger: Tuple["_Row", ...] = field(default=(), compare=False, repr=False)

    def bottleneck_busy_ns(self) -> float:
        """Busy time of the most-loaded resource for this message.

        When a node streams such messages back to back, the steady-state
        cost per message is this figure, not the full end-to-end
        latency: background engines and the wire overlap with the next
        message.  A node has one processor, so its send-side and
        receive-side software costs land on the same resource and add
        up.  A profile with no busy time (a fully hardware-paced
        transfer) falls back to the end-to-end time, never 0 ns.
        """
        busy = dict(self.resource_busy_ns)
        cpu = busy.pop("sender_cpu", 0.0) + busy.pop("receiver_cpu", 0.0)
        bottleneck = max([cpu, *busy.values()])
        return bottleneck if bottleneck > 0.0 else self.ns

    def __str__(self) -> str:
        return (
            f"{self.library} {self.style.value} {self.nbytes} B: "
            f"{self.mbps:.1f} MB/s"
        )


@dataclass(frozen=True)
class _Phase:
    """A sequential phase: stages pipelined at ``chunk_bytes`` grain."""

    name: str
    stages: Tuple[Stage, ...]
    chunk_bytes: int


def _rescaled(
    phases: List[_Phase], rate: Callable[[Stage], float]
) -> List[_Phase]:
    """``phases`` with every stage's rate replaced by ``rate(stage)``."""
    return [
        _Phase(
            phase.name,
            tuple(
                Stage(s.name, rate(s), s.resource, s.chunk_overhead_ns,
                      s.startup_ns)
                for s in phase.stages
            ),
            phase.chunk_bytes,
        )
        for phase in phases
    ]


#: Ledger tracks that carry a metric instead of a span: the row's
#: ``ns`` field holds the counter increment or the observed value.
_COUNT = "count"
_OBSERVE = "observe"
#: Span category per logical track; every other track is a resource.
_CATEGORY = {"phase": "phase", "faults": "fault"}
#: Phase-track rows charged on top of the executed phases, so left out
#: of ``MeasuredTransfer.phase_ns``.
_CHARGES = frozenset({"library-overhead", "efficiency-derate", "duplex-memory-cap"})
_NO_ARGS: Mapping[str, Any] = MappingProxyType({})


#: One ledger row: ``(name, track, start_ns, ns, args, busy, chunks)``.
#: A span of ``ns`` at ``start_ns`` on ``track`` with span ``args`` —
#: or, on the :data:`_COUNT` / :data:`_OBSERVE` tracks, a metric.
#: ``busy`` is the ``(resource, ns)`` time the row keeps resources busy;
#: ``chunks`` is a pipeline phase's recorded chunk occupancy
#: (:attr:`~repro.runtime.stages.PipelineResult.chunks`), clocked from
#: the phase's start.  Plain tuples: a transfer writes ten of them.
_Row = Tuple[Any, ...]


class _Ledger(List[_Row]):
    """A transfer's ordered rows, with the running end of its phases.

    ``clock`` is the sum of every phase row charged so far, added in
    row order: the raw end-to-end time before the residual.
    """

    clock = 0.0

    def phase(
        self,
        name: str,
        ns: float,
        args: Mapping[str, Any],
        busy: Tuple = (),
        chunks: Tuple = (),
    ) -> None:
        """Charge a phase at the end of the ones before it."""
        self.append((name, "phase", self.clock, ns, args, busy, chunks))
        self.clock += ns

    def span(
        self, name: str, track: str, start_ns: float, ns: float, args: Mapping
    ) -> None:
        """Record a span that charges nothing to the clock."""
        self.append((name, track, start_ns, ns, args, (), ()))

    def count(self, name: str, value: float = 1.0) -> None:
        self.append((name, _COUNT, 0.0, value, _NO_ARGS, (), ()))

    def observe(self, name: str, value: float) -> None:
        self.append((name, _OBSERVE, 0.0, value, _NO_ARGS, (), ()))

    def phase_ns(self) -> Tuple[Tuple[str, float], ...]:
        """Executed phases and fault recovery, by name, in order."""
        return tuple(
            (row[0], row[3]) for row in self
            if row[1] == "phase" and row[0] not in _CHARGES
        )

    def resource_busy_ns(self) -> Tuple[Tuple[str, float], ...]:
        busy: Dict[str, float] = {}
        for row in self:
            for resource, ns in row[5]:
                busy[resource] = busy.get(resource, 0.0) + ns
        return tuple(sorted(busy.items()))


def _emit(tracer: Tracer, ledger: Sequence[_Row]) -> None:
    """Write a transfer's ledger to ``tracer``: the runtime's only tracing.

    A hit in the runtime's transfer memo and a collective's round memo
    replay a kept ledger (:attr:`MeasuredTransfer.ledger`) through it
    as well.

    Metric rows become counter increments and histogram observations.
    A pipeline phase writes its chunk rows first, as ``phase:stage``
    spans on their resource tracks shifted onto the transfer's clock
    (each resource wait observed), then its own span.  A zero-length
    row (a library with no software cost, a residual that came out
    non-positive) draws no span.
    """
    for name, track, start_ns, ns, args, __, chunks in ledger:
        if track == _COUNT:
            tracer.count(name, ns)
        elif track == _OBSERVE:
            tracer.observe(name, ns)
        elif ns > 0.0:
            for label, resource, at_ns, chunk_ns, chunk_args in chunks:
                tracer.span(
                    f"{name}:{label}", resource, start_ns + at_ns, chunk_ns,
                    "stage", **chunk_args,
                )
                if chunk_args["wait_ns"] > 0.0:
                    tracer.observe(
                        "pipeline.resource_wait_ns", chunk_args["wait_ns"]
                    )
            tracer.span(
                name, track, start_ns, ns, _CATEGORY.get(track, "stage"),
                **args,
            )


class CommRuntime:
    """Executes communication operations on one machine.

    Args:
        machine: The machine to run on.
        library: Software profile; defaults to the fastest low-level
            library (libsm.a / SUNMOS libnx).
        rates: ``"simulated"`` (default) takes stage rates from the
            memory-system simulator — the full bottom-up path — while
            ``"paper"`` uses the published calibration.
        table: An explicit calibration table overriding ``rates``.
            Batch executors (the sweep engine) derive one table per
            machine and hand it to every runtime they build instead of
            re-deriving it per construction; passing the table the
            ``rates`` source would have produced changes nothing else.
        congestion: Default network congestion for transfers that
            don't specify one (defaults to the machine's typical
            value, the paper's bold Table 4 column).
        faults: A standing :class:`~repro.faults.spec.FaultPlan` for
            every transfer this runtime executes.  When ``None``, the
            context-installed plan (:func:`repro.faults.injecting`)
            applies, if any.

    A runtime prices each distinct transfer once: :meth:`transfer`
    keeps its results, :meth:`_expr` each model expression it lowers,
    :meth:`~repro.runtime.collective.CommunicationStep.signature` keeps
    each step pattern's flow facts here, keyed on the pattern's id
    (:meth:`_pattern`), and
    :func:`~repro.runtime.collectives.run_collective` each collective's
    lowered rounds with each round's key.  The memos are pure functions
    of their keys, given the machine, library and table the runtime was
    built with, and die with the runtime, so a fresh runtime is a cold
    one.
    """

    def __init__(
        self,
        machine: Machine,
        library: Optional[LibraryProfile] = None,
        rates: str = "simulated",
        congestion: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        table: Optional["ThroughputTable"] = None,
    ) -> None:
        self.machine = machine
        self.library = library or lowlevel_profile()
        self.faults = faults
        # Faults-off fast exit: an explicit-but-empty plan behaves
        # nominally, so the emptiness test is paid once here, not on
        # every transfer.  ``None`` means "consult the context plan".
        self._standing_plan: Optional[FaultPlan] = (
            faults if faults is not None and not faults.is_empty() else None
        )
        if table is not None:
            self.table = table
        elif rates == "simulated":
            self.table = machine.simulated_table()
        elif rates == "paper":
            self.table = machine.paper_table()
        else:
            raise ValueError(f"unknown rate source {rates!r}")
        self.default_congestion = (
            congestion
            if congestion is not None
            else machine.network.default_congestion
        )
        self._transfers: Dict[Tuple, MeasuredTransfer] = {}
        self._flow_facts: Dict[
            Tuple, Tuple[float, int, Optional[int], Optional[int]]
        ] = {}
        self._lowerings: Dict[
            Tuple,
            Tuple[Tuple["CollectiveRound", ...], Tuple[Tuple[int, int], ...]],
        ] = {}
        self._patterns: Dict[Tuple[Tuple[int, int], ...], int] = {}
        self._exprs: Dict[Tuple, Expr] = {}

    def _pattern(self, flows: Tuple[Tuple[int, int], ...]) -> int:
        """This runtime's id for the flow pattern ``flows``: equal
        patterns get the same id, so a memo keyed on it hashes one int
        instead of every flow."""
        return self._patterns.setdefault(flows, len(self._patterns))

    # -- rate lookups -----------------------------------------------------

    def _network_rate(self, adp: bool, congestion: float) -> float:
        from ..netsim.network import FramingMode

        model = self.machine.network_model()
        mode = FramingMode.ADDRESS_DATA_PAIRS if adp else FramingMode.DATA_ONLY
        return model.rate(mode, congestion=congestion)

    def _send_rate(self, read: AccessPattern) -> float:
        scale = self.machine.quirks.send_rate_scale
        return self.table.lookup_kind(TransferKind.LOAD_SEND, read, _FIXED) * scale

    def _receive_store_rate(self, write: AccessPattern) -> float:
        """Processor receive rate, even where the machine never uses one.

        Machines whose receives always ride the deposit engine (the
        T3D) have no calibrated ``R`` entry; a processor receive-store
        is a load-from-network/store loop, so the copy rate into the
        same pattern is the honest stand-in when a fault forces one.
        """
        try:
            return self.table.lookup_kind(TransferKind.RECEIVE_STORE, _FIXED, write)
        except CalibrationError:
            return self.table.lookup_kind(TransferKind.COPY, CONTIGUOUS, write)

    # -- phase construction ---------------------------------------------------

    def _expr(
        self,
        x: AccessPattern,
        y: AccessPattern,
        style: OperationStyle,
        deposit_ok: bool = True,
    ) -> Expr:
        """The model's ``xQy`` for what this runtime executes.

        The library decides whether contiguous data is packed; the
        scatter never overlaps the wire, as every library unpacks at
        message granularity; a deposit fault takes the engine away.
        Kept per pattern pair, style and deposit state.
        """
        key = (x, y, style, deposit_ok)
        kept = self._exprs.get(key)
        if kept is not None:
            return kept
        caps = replace(
            self.machine.capabilities,
            pack_even_contiguous=self.library.pack_even_contiguous,
            overlap_unpack=False,
        )
        if not deposit_ok:
            caps = caps.without_deposit()
        if style is OperationStyle.BUFFER_PACKING:
            expr = buffer_packing(x, y, caps)
        elif not self.library.supports_chained:
            raise CompositionError(
                f"library {self.library.name!r} has no chained/put-get path"
            )
        elif chained_receiver(y, caps) is None:
            raise CompositionError(
                f"machine {self.machine.name!r} has no background receiver "
                f"for pattern {y}"
            )
        else:
            expr = chained(x, y, caps)
        self._exprs[key] = expr
        return expr

    def _stage(
        self, name: str, transfer: BasicTransfer, congestion: float
    ) -> Stage:
        """One basic transfer as a stage on the unit that executes it."""
        kind = transfer.kind
        resource = _resource(transfer)
        if kind.is_network:
            adp = kind is TransferKind.NETWORK_ADP
            return Stage(name, self._network_rate(adp, congestion), resource)
        if kind is TransferKind.LOAD_SEND:
            rate = self._send_rate(transfer.read)
        elif kind is TransferKind.RECEIVE_STORE:
            rate = self._receive_store_rate(transfer.write)
        else:
            rate = self.table.lookup_kind(kind, transfer.read, transfer.write)
        if kind is TransferKind.FETCH_SEND:
            startup = self.machine.node.dma.setup_ns
            return Stage(name, rate, resource, startup_ns=startup)
        if kind.is_background:
            return Stage(name, rate, resource)
        return Stage(name, rate, resource, CPU_CHUNK_OVERHEAD_NS)

    def _lower(
        self,
        expr: Expr,
        style: OperationStyle,
        nbytes: int,
        congestion: float,
    ) -> List[_Phase]:
        """The phases that execute ``expr``.

        ``∘`` gives successive phases: the ``‖`` group streams at the
        pipeline grain, and the copies on each side of it group into
        ``pack`` / ``unpack`` at fragment grain.  A buffer-packing
        library's system-buffer copies (``1C1``) close the sender's
        copies and open the receiver's.
        """
        lib = self.library
        fragment = min(nbytes, lib.fragment_bytes)
        stream_chunk = min(
            self.machine.quirks.pipeline_chunk_words * WORD_BYTES, fragment
        )
        packing = style is OperationStyle.BUFFER_PACKING
        middle_name = "transfer" if packing else "chained"
        names = _STAGE_NAMES[middle_name]
        pack: List[Stage] = []
        unpack: List[Stage] = []
        middle: Tuple[Stage, ...] = ()
        for part in expr.parts if isinstance(expr, Seq) else (expr,):
            if isinstance(part, Par):
                middle = tuple(
                    self._stage(names[_resource(t)], t, congestion)
                    for t in part.terms()
                )
            elif part.transfer.engine.role is NodeRole.SENDER:
                pack.append(self._stage("gather", part.transfer, congestion))
            else:
                unpack.append(self._stage("scatter", part.transfer, congestion))
        if packing and lib.system_buffer_copies >= 1:
            pack.append(self._stage("sysbuf-send", _SYSBUF_SEND, congestion))
        if packing and lib.system_buffer_copies >= 2:
            unpack.insert(
                0, self._stage("sysbuf-receive", _SYSBUF_RECEIVE, congestion)
            )
        phases = [_Phase("pack", tuple(pack), fragment)] if pack else []
        phases.append(_Phase(middle_name, middle, stream_chunk))
        if unpack:
            phases.append(_Phase("unpack", tuple(unpack), fragment))
        return phases

    def phases(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle = OperationStyle.CHAINED,
        congestion: Optional[float] = None,
        deposit_ok: bool = True,
        duplex: bool = False,
    ) -> List[_Phase]:
        """The stage pipeline a transfer would execute, without running it.

        This is the planner :meth:`transfer` runs, and the static view
        the plan verifier lowers into its IR: the model's expression
        lowered, no measurement, fault charging or degradation applied.
        ``duplex`` slows every memory-touching stage by the machine's
        bus-interleave quirk.  Raises :class:`CompositionError` exactly
        when :meth:`transfer` would.
        """
        if nbytes <= 0:
            raise ValueError(f"need a positive transfer size, got {nbytes}")
        if congestion is None:
            congestion = self.default_congestion
        style = OperationStyle(style)
        expr = self._expr(x, y, style, deposit_ok)
        phases = self._lower(expr, style, nbytes, congestion)
        scale = self.machine.quirks.bus_interleave_scale
        if duplex and scale != 1.0:
            phases = _rescaled(
                phases,
                lambda s: s.rate_mbps if s.resource == "network"
                else s.rate_mbps / scale,
            )
        return phases

    # -- execution ----------------------------------------------------------------

    def transfer(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle = OperationStyle.CHAINED,
        congestion: Optional[float] = None,
        duplex: bool = False,
        analyze: bool = False,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> MeasuredTransfer:
        """Measure one point-to-point ``xQy`` transfer of ``nbytes``.

        Args:
            x / y: Source and destination access patterns.
            nbytes: Payload size in bytes, an integer; anything else
                raises :class:`ModelError`.
            style: Buffer-packing or chained.
            congestion: Network congestion this transfer experiences;
                defaults to the machine's typical value.
            duplex: Whether the node simultaneously sends and receives
                (all-to-all, shifts): memory-touching stages slow by
                the bus-interleave quirk and the duplex memory cap
                applies.
            analyze: Run the static linter over the model-level
                composition this transfer executes and attach its
                diagnostics to the result.
            src / dst: Node ids of the endpoints.  Only consulted by an
                active fault plan (per-node slowdowns, per-link
                derates, per-node deposit faults); anonymous transfers
                see only the plan's global faults.

        When a fault plan is active (runtime ``faults=`` argument or
        :func:`repro.faults.injecting`) and it marks the deposit engine
        unavailable, a chained transfer degrades to buffer-packing
        instead of raising; the result's ``degraded`` field names the
        fault, the fallback and the throughput delta.  Fragment faults
        charge ``retry``/``backoff`` phases per the plan's
        :class:`~repro.faults.policy.RetryPolicy`.

        With a tracer installed the transfer's ledger is emitted once
        it is complete, or as far as it got when the transfer aborts.

        A completed transfer is kept, keyed on every input after the
        defaults resolve, and a repeat returns the kept result,
        re-emitting its ledger when traced.  Whether a tracer is
        installed is part of the key: an untraced ledger has no chunk
        rows to replay.  An aborted transfer is never kept, so it
        raises (and traces its abort) on every call.
        """
        if not isinstance(nbytes, Integral):
            raise ModelError(
                f"transfer nbytes must be an integer byte count, got {nbytes!r}"
            )
        if congestion is None:
            congestion = self.default_congestion
        style = OperationStyle(style)
        # Fast exit before any per-phase fault bookkeeping: an explicit
        # plan (even an empty one) shadows the context plan, and an
        # empty plan in either position resolves to "no faults" here,
        # once, so _execute never consults a plan that injects nothing.
        if self.faults is not None:
            plan = self._standing_plan
        else:
            plan = current_fault_plan()
            if plan is not None and plan.is_empty():
                plan = None
        tracer = current_tracer()
        record = tracer is not None
        # The payload's and congestion's types are keyed too: 2 == 2.0,
        # and the result carries both as given.
        key = (
            x, y, nbytes, type(nbytes), style, congestion, type(congestion),
            duplex, analyze, plan, src, dst, record,
        )
        kept = self._transfers.get(key)
        if kept is not None:
            if tracer is not None:
                _emit(tracer, kept.ledger)
            return kept
        ledger = _Ledger()
        try:
            result = self._execute(
                x, y, nbytes, style, congestion, duplex, analyze, plan,
                src, dst, ledger, record,
            )
        finally:
            if tracer is not None:
                _emit(tracer, ledger)
        self._transfers[key] = result
        return result

    def _execute(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle,
        congestion: float,
        duplex: bool,
        analyze: bool,
        plan: Optional[FaultPlan],
        src: Optional[int],
        dst: Optional[int],
        ledger: _Ledger,
        record: bool,
    ) -> MeasuredTransfer:
        """Run one transfer, writing every charge to ``ledger`` in order.

        The result's ``ns``, ``phase_ns`` and ``resource_busy_ns`` come
        from the ledger's rows; ``record`` asks the pipelines for their
        chunk occupancy, which only the trace needs.
        """
        requested = style
        deposit_ok = plan.deposit_available(dst) if plan is not None else True
        # The path a deposit-engine fault forced, if any.
        fallback: Optional[str] = None
        try:
            phases = self.phases(
                x, y, nbytes, style, congestion, deposit_ok, duplex
            )
        except CompositionError:
            if (
                style is OperationStyle.BUFFER_PACKING
                or deposit_ok
                or not self.machine.capabilities.chained_receiver_available
            ):
                raise
            # Graceful degradation, the centrepiece: the fault took
            # the only background receiver, so re-plan the transfer
            # as buffer-packing instead of crashing.
            style = OperationStyle.BUFFER_PACKING
            phases = self.phases(
                x, y, nbytes, style, congestion, deposit_ok, duplex
            )
            fallback = "buffer-packing"
        if fallback is None and not deposit_ok and any(
            t.kind is TransferKind.RECEIVE_DEPOSIT
            for t in self._expr(x, y, style).terms()
        ):
            # Same style, but the fault moved the receive off the
            # deposit engine the nominal plan would have used.
            packing = style is OperationStyle.BUFFER_PACKING
            fallback = "receive-store" if packing else "coprocessor-receive"

        if plan is not None:
            phases = self._apply_fault_derates(phases, plan, src, dst, ledger)

        for phase in phases:
            pipeline = StagePipeline(phase.stages)
            result = pipeline.run(nbytes, phase.chunk_bytes, record)
            names = [stage.name for stage in phase.stages]
            resources = [stage.resource for stage in phase.stages]
            ledger.phase(
                phase.name,
                result.ns,
                {"chunk_bytes": phase.chunk_bytes, "stages": names},
                tuple(zip(resources, result.stage_busy_ns.values())),
                result.chunks,
            )

        library = self.library
        fragments = library.fragments(nbytes)
        library_ns = library.overhead_ns(nbytes)
        library_start = ledger.clock
        # Protocol costs keep the sender's processor busy.
        ledger.phase(
            "library-overhead",
            library_ns,
            {
                "library": library.name,
                "per_message_ns": library.per_message_ns,
                "fragments": fragments,
            },
            (("sender_cpu", library_ns),),
        )
        ledger.span(
            "library-overhead",
            "sender_cpu",
            library_start,
            library_ns,
            {"library": library.name},
        )

        retries = 0
        if plan is not None and plan.has_wire_faults():
            executed = ledger.phase_ns()
            hardware_ns = sum(
                ns for name, ns in executed if name in ("transfer", "chained")
            ) or sum(ns for __, ns in executed)
            try:
                recovery = recovery_charge(
                    plan,
                    fragments=fragments,
                    fragment_ns=hardware_ns / max(1, fragments),
                    message_ns=hardware_ns,
                    key=(str(x), str(y), nbytes, style.value, src, dst),
                )
            except TransferAbortedError as exc:
                # Signal the abort with its endpoints so link-level
                # consumers (the load engine's circuit breakers) can
                # attribute it without parsing the message, and with
                # its rows so a memoized abort traces as a re-run.
                exc.src, exc.dst = src, dst
                ledger.count("faults.aborts")
                exc.ledger = tuple(ledger)
                raise
            if recovery:
                retries = recovery.retries
                outcome = {
                    "retries": recovery.retries,
                    "losses": recovery.losses,
                    "corruptions": recovery.corruptions,
                }
                # Retransmissions re-occupy the sender; backoff is idle.
                if recovery.retry_ns > 0.0:
                    ledger.phase(
                        "retry",
                        recovery.retry_ns,
                        outcome,
                        (("sender_cpu", recovery.retry_ns),),
                    )
                if recovery.backoff_ns > 0.0:
                    ledger.phase("backoff", recovery.backoff_ns, outcome)
                ledger.count("faults.retries", recovery.retries)
                ledger.count("faults.fragment_losses", recovery.losses)
                ledger.count(
                    "faults.fragment_corruptions", recovery.corruptions
                )
                ledger.observe("faults.recovery_ns", recovery.total_ns)

        raw_ns = ledger.clock
        mbps = nbytes / raw_ns * 1000.0
        mbps *= self.machine.quirks.runtime_efficiency

        capped = False
        if duplex:
            cap = (
                self.table.lookup_kind(TransferKind.COPY, CONTIGUOUS, CONTIGUOUS)
                / self.machine.quirks.duplex_penalty
            )
            if mbps > cap:
                mbps = cap
                capped = True
        total_ns = nbytes / mbps * 1000.0

        ledger.count("runtime.transfers")
        ledger.count("runtime.fragments", fragments)
        if capped:
            ledger.count("runtime.duplex_caps")
        # The residual the model deliberately leaves unexplained
        # (runtime_efficiency derate, duplex memory cap): its own phase
        # row, so the phase spans always sum to the reported ns.
        ledger.span(
            "duplex-memory-cap" if capped else "efficiency-derate",
            "phase",
            raw_ns,
            total_ns - raw_ns,
            {
                "efficiency": self.machine.quirks.runtime_efficiency,
                "memory_capped": capped,
            },
        )

        degraded: Optional[DegradedResult] = None
        if fallback is not None:
            degraded = DegradedResult(
                fault=_DEPOSIT_FAULT,
                requested=requested.value,
                fallback=fallback,
                nominal_mbps=self._nominal_mbps(
                    x, y, nbytes, requested, congestion, duplex
                ),
                degraded_mbps=mbps,
            )
            ledger.count("faults.degraded")
            ledger.span(
                f"degraded:{fallback}",
                "faults",
                0.0,
                total_ns,
                {
                    "fault": _DEPOSIT_FAULT,
                    "requested": requested.value,
                    "fallback": fallback,
                },
            )
        if plan is not None:
            ledger.count("faults.transfers_under_plan")

        return MeasuredTransfer(
            mbps=mbps,
            ns=total_ns,
            nbytes=nbytes,
            style=style,
            library=library.name,
            congestion=congestion,
            phase_ns=ledger.phase_ns(),
            resource_busy_ns=ledger.resource_busy_ns(),
            memory_capped=capped,
            diagnostics=(
                self._analyze(self._expr(x, y, style, deposit_ok), duplex)
                if analyze else ()
            ),
            degraded=degraded,
            retries=retries,
            ledger=tuple(ledger),
        )

    def _nominal_mbps(
        self,
        x: AccessPattern,
        y: AccessPattern,
        nbytes: int,
        style: OperationStyle,
        congestion: float,
        duplex: bool,
    ) -> float:
        """Fault-free throughput of the requested path, for the record.

        Its ledger is thrown away, so the comparison never reaches the
        active trace.
        """
        try:
            nominal = self._execute(
                x, y, nbytes, style, congestion, duplex,
                False, None, None, None, _Ledger(), False,
            )
        except CompositionError:
            return 0.0
        return nominal.mbps

    def _apply_fault_derates(
        self,
        phases: List[_Phase],
        plan: FaultPlan,
        src: Optional[int],
        dst: Optional[int],
        ledger: _Ledger,
    ) -> List[_Phase]:
        """Scale stage rates by the plan's node and link faults.

        Sender-side resources slow by the sender node's slowdown,
        receiver-side by the receiver's; the network stage slows by the
        worst link derate along the route (the global derate when the
        transfer is anonymous or the machine's default partition does
        not contain the endpoints).
        """
        sender_scale = plan.node_slowdown(src)
        receiver_scale = plan.node_slowdown(dst)
        network_derate = self._route_derate(plan, src, dst)
        if sender_scale != 1.0 or receiver_scale != 1.0:
            ledger.count("faults.node_slowdowns")
        if network_derate != 1.0:
            ledger.count("faults.link_derates")
        sender, receiver = 1.0 / sender_scale, 1.0 / receiver_scale
        return _rescaled(
            phases,
            lambda s: s.rate_mbps * (
                network_derate if s.resource == "network"
                else sender if s.resource.startswith("sender")
                else receiver
            ),
        )

    def _route_derate(
        self, plan: FaultPlan, src: Optional[int], dst: Optional[int]
    ) -> float:
        """Worst link derate this transfer's route crosses."""
        if src is None or dst is None or src == dst:
            return plan.global_link_derate()
        if not any(fault.src is not None for fault in plan.links):
            return plan.global_link_derate()
        topology = self.machine.topology()
        if src >= topology.n_nodes or dst >= topology.n_nodes:
            return plan.global_link_derate()
        route = plan.wrap_topology(topology).route(src, dst)
        return plan.route_derate(route)

    def _analyze(self, expr: Expr, duplex: bool) -> Tuple["Diagnostic", ...]:
        """Lint the model-level composition one runtime transfer ran."""
        from ..analysis import analyze as run_linter
        from ..core.constraints import duplex_memory_constraint

        constraints = (duplex_memory_constraint(),) if duplex else ()
        return tuple(
            run_linter(
                expr,
                table=self.table,
                capabilities=self.machine.capabilities,
                constraints=constraints,
            )
        )

    def sweep_message_sizes(
        self,
        sizes: Sequence[int],
        x: AccessPattern = CONTIGUOUS,
        y: AccessPattern = CONTIGUOUS,
        style: OperationStyle = OperationStyle.BUFFER_PACKING,
        congestion: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """Throughput-vs-message-size curve (the Figure 1 experiment)."""
        return [
            (size, self.transfer(x, y, size, style, congestion=congestion).mbps)
            for size in sizes
        ]


def measure_q(
    machine: Machine,
    x: AccessPattern,
    y: AccessPattern,
    nbytes: int,
    style: OperationStyle,
    congestion: Optional[float] = None,
    analyze: bool = False,
) -> MeasuredTransfer:
    """Measure ``xQy`` under the paper's measurement conventions.

    Buffer-packing runs the hand-coded packing implementation (copies
    always performed); chained runs over the low-level put/get path.
    Nodes send and receive simultaneously unless the machine's
    measurements were taken simplex (the Paragon's were).
    """
    from .libraries import packing_profile

    if style is OperationStyle.BUFFER_PACKING:
        library = packing_profile()
    else:
        library = lowlevel_profile()
    runtime = CommRuntime(machine, library=library)
    duplex = not machine.quirks.measures_simplex
    return runtime.transfer(
        x, y, nbytes, style=style, congestion=congestion, duplex=duplex,
        analyze=analyze,
    )
