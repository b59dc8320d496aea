"""The machine abstraction: node + network + capabilities.

A :class:`Machine` bundles everything the library knows about one
parallel computer: the memory-system parameters (for the simulator),
the network parameters, the communication capabilities (for the
operation builders), the published calibration numbers from the paper
(for validation), and runtime quirks that degrade end-to-end
measurements relative to the model's optimism.

Adding a machine means writing one module like
:mod:`repro.machines.t3d` — the simulators and the model are generic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from ..core.calibration import ThroughputTable
from ..core.model import CopyTransferModel
from ..core.operations import CommCapabilities
from ..memsim.config import NodeConfig
from ..memsim.node import DEFAULT_MEASURE_WORDS, NodeMemorySystem
from ..netsim.network import NetworkConfig, NetworkModel
from ..netsim.topology import Topology

__all__ = ["RuntimeQuirks", "Machine"]


@dataclass(frozen=True)
class RuntimeQuirks:
    """End-to-end measurement degradations the model does not see.

    The paper's Paragon measurements "deviate significantly from our
    conceptual model" for listed reasons (Section 5.1.4); these knobs
    let the runtime simulator reproduce that deviation.

    Attributes:
        send_rate_scale: Multiplier on processor send rates in live
            runs (Paragon: pipelined loads unusable on A-step NI parts,
            a 30-40% loss -> ~0.65).
        duplex_penalty: Multiplier applied when a node sends and
            receives simultaneously; 1.0 if the hardware handles it.
        bus_interleave_scale: DRAM occupancy multiplier while the
            processor and a second master interleave single-word
            accesses (Paragon: up to 2.0; a small factor on the T3D
            for annex deposits stealing memory cycles).
        pipeline_chunk_words: Granularity at which the runtime
            pipelines the hardware stages of a transfer.
        runtime_efficiency: Residual measured/ideal ratio covering the
            costs neither the model nor the pipeline charges (cache
            invalidation at synchronization points, timer reads,
            descriptor management).  Figures 7/8 show live measurements
            landing 10-20% under the model's optimism.
    """

    send_rate_scale: float = 1.0
    duplex_penalty: float = 1.0
    bus_interleave_scale: float = 1.0
    pipeline_chunk_words: int = 64
    runtime_efficiency: float = 0.85
    #: The paper's Paragon measurements did not run sending and
    #: receiving simultaneously at each node (Section 5.1.4); measured
    #: comparisons for such machines are taken simplex.
    measures_simplex: bool = False


@dataclass
class Machine:
    """One parallel computer, ready to be modelled, simulated and measured.

    Attributes:
        name: Display name ("Cray T3D").
        node: Memory-system parameters for :mod:`repro.memsim`.
        network: Bandwidth parameters for :mod:`repro.netsim`.
        topology_factory: Builds the interconnect topology for a
            partition of ``n`` nodes.
        capabilities: Features available to the ``xQy`` builders.
        published: The paper's measured basic-transfer throughputs
            (Tables 1-3) *excluding* network entries.
        published_network: The paper's Table 4: framing mode ->
            congestion -> MB/s.
        quirks: End-to-end measurement degradations.
        index_run: Indexed-stream locality used for this machine's
            measurements (see :mod:`repro.memsim.streams`).
    """

    name: str
    node: NodeConfig
    network: NetworkConfig
    topology_factory: Callable[[int], Topology]
    capabilities: CommCapabilities
    published: ThroughputTable
    published_network: Dict[str, Dict[int, float]] = field(default_factory=dict)
    quirks: RuntimeQuirks = field(default_factory=RuntimeQuirks)
    index_run: int = 2
    _topologies: Dict[int, Topology] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- simulators ----------------------------------------------------------

    def node_memory(
        self,
        nwords: int = DEFAULT_MEASURE_WORDS,
        occupancy_scale: float = 1.0,
    ) -> NodeMemorySystem:
        """A measurement harness over this machine's memory system."""
        return NodeMemorySystem(
            self.node,
            nwords=nwords,
            index_run=self.index_run,
            occupancy_scale=occupancy_scale,
        )

    def topology(self, n_nodes: int = 64) -> Topology:
        """The interconnect of an ``n_nodes`` partition.

        Built once per size and kept on this machine: collectives ask
        for the same partition step after step.  A copy made by
        :meth:`with_overrides` starts with no topologies, so a replaced
        ``topology_factory`` takes effect.
        """
        topology = self._topologies.get(n_nodes)
        if topology is None:
            topology = self._topologies[n_nodes] = self.topology_factory(
                n_nodes
            )
        return topology

    def network_model(self, n_nodes: int = 64) -> NetworkModel:
        """The bandwidth model attached to a partition's topology."""
        return NetworkModel(self.network, topology=self.topology(n_nodes))

    # -- calibration tables ----------------------------------------------------

    def paper_table(self, congestion: Optional[int] = None) -> ThroughputTable:
        """The published calibration: Tables 1-3 plus Table 4 network rates.

        Args:
            congestion: Which Table 4 column to use for the network
                entries; defaults to the machine's typical congestion
                (the paper's bold values).
        """
        from ..core.transfers import TransferKind

        if congestion is None:
            congestion = self.network.default_congestion
        table = ThroughputTable(f"{self.name} (paper, congestion {congestion})")
        table.merge(self.published)
        for mode, kind in (
            ("data", TransferKind.NETWORK_DATA),
            ("adp", TransferKind.NETWORK_ADP),
        ):
            by_congestion = self.published_network.get(mode, {})
            if congestion in by_congestion:
                table.set(kind, "0", "0", by_congestion[congestion])
        return table

    def simulated_table(
        self,
        congestion: Optional[int] = None,
        nwords: int = DEFAULT_MEASURE_WORDS,
        strides: Tuple[int, ...] = (2, 4, 8, 16, 32, 64),
        use_cache: bool = True,
    ) -> ThroughputTable:
        """Calibration derived by running the simulators (Section 4).

        Repeat calls are served from the calibration cache
        (:mod:`repro.caching`); ``use_cache=False`` remeasures.
        """
        from .measure import measure_table

        return measure_table(
            self,
            congestion=congestion,
            nwords=nwords,
            strides=strides,
            use_cache=use_cache,
        )

    # -- models -------------------------------------------------------------------

    def model(
        self,
        source: str = "paper",
        congestion: Optional[int] = None,
        constraints: Tuple = (),
    ) -> CopyTransferModel:
        """A :class:`CopyTransferModel` for this machine.

        Args:
            source: ``"paper"`` uses the published calibration,
                ``"simulated"`` derives it from the simulators.
            congestion: Network operating point (defaults to typical).
            constraints: Standing resource constraints.
        """
        if source == "paper":
            table = self.paper_table(congestion=congestion)
        elif source == "simulated":
            table = self.simulated_table(congestion=congestion)
        else:
            raise ValueError(f"unknown calibration source {source!r}")
        return CopyTransferModel(
            table=table,
            capabilities=self.capabilities,
            constraints=tuple(constraints),
            name=self.name,
        )

    def with_overrides(self, **changes) -> "Machine":
        """A copy of this machine with some fields replaced.

        Useful for ablations: ``t3d().with_overrides(node=replace(...))``.
        """
        return replace(self, **changes)


def replace_node(machine: Machine, **node_changes) -> Machine:
    """Shorthand for ablations that tweak the node config."""
    return machine.with_overrides(node=replace(machine.node, **node_changes))
