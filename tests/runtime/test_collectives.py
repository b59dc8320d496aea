"""Collective operations: round lowering, execution, hierarchy."""

import json
import math
import re
from contextlib import nullcontext

import pytest

from repro.core.errors import (
    CompositionError,
    ModelError,
    TransferAbortedError,
)
from repro.core.patterns import AccessPattern
from repro.faults import FaultPlan, injecting
from repro.machines import MACHINE_FACTORIES, cluster, machine_by_key, t3d, xe
from repro.runtime.collective import CommunicationStep
from repro.runtime.collectives import (
    ALGORITHMS,
    COLLECTIVE_OPS,
    collective_rounds,
    run_collective,
)
from repro.runtime.engine import CommRuntime
from repro.trace import chrome_trace, tracing


def _runtime(factory):
    return CommRuntime(factory(), rates="paper")


class TestRoundLowering:
    @pytest.mark.parametrize("nodes", [2, 3, 5, 8, 16, 17])
    @pytest.mark.parametrize("op", COLLECTIVE_OPS)
    def test_flows_stay_in_partition(self, op, nodes):
        for algorithm in ALGORITHMS[op]:
            for rnd in collective_rounds(op, algorithm, nodes, 4096):
                assert rnd.bytes_per_flow > 0
                for src, dst in rnd.flows:
                    assert 0 <= src < nodes
                    assert 0 <= dst < nodes
                    assert src != dst

    @pytest.mark.parametrize("nodes", [2, 4, 8, 32])
    def test_round_counts_power_of_two(self, nodes):
        log = nodes.bit_length() - 1
        assert len(collective_rounds(
            "broadcast", "binomial-tree", nodes, 1024)) == log
        assert len(collective_rounds(
            "broadcast", "ring", nodes, 1024)) == 2 * (nodes - 1)
        assert len(collective_rounds(
            "allreduce", "recursive-doubling", nodes, 1024)) == log
        assert len(collective_rounds(
            "alltoall", "pairwise-exchange", nodes, 1024)) == nodes - 1
        assert len(collective_rounds(
            "alltoall", "bruck", nodes, 1024)) == log

    def test_recursive_doubling_non_power_of_two_folds(self):
        # 6 nodes: fold round + 2 exchange rounds + unfold round.
        rounds = collective_rounds("allreduce", "recursive-doubling", 6, 512)
        assert len(rounds) == 4
        assert rounds[0].flows == ((4, 0), (5, 1))
        assert rounds[-1].flows == ((0, 4), (1, 5))

    def test_ring_moves_nth_payloads(self):
        rounds = collective_rounds("broadcast", "ring", 8, 8000)
        assert all(rnd.bytes_per_flow == 1000 for rnd in rounds)

    def test_binomial_tree_reaches_everyone(self):
        nodes = 16
        reached = {0}
        for rnd in collective_rounds("broadcast", "binomial-tree", nodes, 64):
            for src, dst in rnd.flows:
                assert src in reached, "tree sender must already hold data"
                reached.add(dst)
        assert reached == set(range(nodes))

    def test_validation(self):
        with pytest.raises(ModelError):
            collective_rounds("reduce", "ring", 8, 64)
        with pytest.raises(ModelError):
            collective_rounds("broadcast", "bruck", 8, 64)
        with pytest.raises(ModelError):
            collective_rounds("broadcast", "ring", 1, 64)
        with pytest.raises(ModelError):
            collective_rounds("broadcast", "ring", 8, 0)


class TestRunCollective:
    def test_phase_sum_invariant_exact(self):
        runtime = _runtime(cluster)
        result = run_collective(runtime, "allreduce", "ring", 8, 65536)
        parts = (
            result.intra_gather_ns
            + math.fsum(result.round_ns)
            + result.intra_scatter_ns
        )
        assert result.total_ns == parts
        assert result.per_node_mbps == 65536 / result.total_ns * 1000.0

    def test_deterministic(self):
        runtime = _runtime(xe)
        first = run_collective(runtime, "alltoall", "bruck", 16, 32768)
        second = run_collective(runtime, "alltoall", "bruck", 16, 32768)
        assert first.total_ns == second.total_ns
        assert first.round_ns == second.round_ns

    def test_flat_machines_never_hierarchical(self):
        runtime = _runtime(t3d)
        result = run_collective(
            runtime, "broadcast", "binomial-tree", 8, 4096,
            hierarchical=True,
        )
        assert not result.hierarchical
        assert result.intra_gather_ns == 0.0
        assert result.nic_contention == 1.0

    def test_cluster_defaults_to_hierarchical(self):
        runtime = _runtime(cluster)
        result = run_collective(runtime, "broadcast", "binomial-tree", 8, 4096)
        assert result.hierarchical
        assert result.intra_gather_ns > 0.0
        assert result.intra_scatter_ns == result.intra_gather_ns
        assert result.nic_contention == 1.0

    def test_cluster_flat_pays_nic_contention(self):
        runtime = _runtime(cluster)
        machine = runtime.machine
        flat = run_collective(
            runtime, "broadcast", "binomial-tree", 8, 4096,
            hierarchical=False,
        )
        assert not flat.hierarchical
        assert flat.nic_contention == machine.nic_contention(
            machine.cores_per_node
        )
        assert flat.nic_contention > 1.0
        assert flat.intra_gather_ns == 0.0

    def test_contention_scales_rounds(self):
        runtime = _runtime(cluster)
        flat = run_collective(
            runtime, "allreduce", "ring", 8, 65536, hierarchical=False
        )
        factor = flat.nic_contention
        for charged, step in zip(flat.round_ns, flat.rounds):
            assert charged == step.step_ns * factor


def _unmemoized(runtime, op, algorithm, nodes, nbytes):
    """Every round run as its own step, each on a fresh runtime."""
    one = AccessPattern.parse("1")
    return tuple(
        CommunicationStep(
            CommRuntime(
                runtime.machine, faults=runtime.faults, table=runtime.table
            ),
            current.flows, one, one, current.bytes_per_flow,
        ).run()
        for current in collective_rounds(op, algorithm, nodes, nbytes)
    )


class TestRoundMemo:
    """Pricing each distinct round once changes no result."""

    @pytest.mark.parametrize("hierarchical", [None, False])
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("key", sorted(MACHINE_FACTORIES))
    def test_matches_running_every_round(self, key, seed, hierarchical):
        machine = machine_by_key(key)
        plan = FaultPlan.chaos(seed) if seed is not None else None
        runtime = CommRuntime(
            machine, faults=plan, table=machine.paper_table()
        )
        for op, algorithms in ALGORITHMS.items():
            for algorithm in algorithms:
                for nodes in (5, 8):
                    try:
                        result = run_collective(
                            runtime, op, algorithm, nodes, 65536,
                            hierarchical=hierarchical,
                        )
                    except (CompositionError, TransferAbortedError) as exc:
                        # A plan can leave a machine no receive path:
                        # then the first round fails either way.
                        with pytest.raises(type(exc), match=re.escape(
                            str(exc)
                        )):
                            _unmemoized(runtime, op, algorithm, nodes, 65536)
                        continue
                    rounds = _unmemoized(runtime, op, algorithm, nodes, 65536)
                    round_ns = tuple(
                        step.step_ns * result.nic_contention for step in rounds
                    )
                    assert len(result.rounds) == len(
                        collective_rounds(op, algorithm, nodes, 65536)
                    )
                    assert result.rounds == rounds
                    assert result.round_ns == round_ns
                    assert result.total_ns == (
                        result.intra_gather_ns
                        + math.fsum(round_ns)
                        + result.intra_scatter_ns
                    )

    def test_ring_reaches_the_runtime_once(self, monkeypatch):
        calls = []
        transfer = CommRuntime.transfer

        def counted(self, *args, **kwargs):
            calls.append(args)
            return transfer(self, *args, **kwargs)

        monkeypatch.setattr(CommRuntime, "transfer", counted)
        result = run_collective(_runtime(xe), "allreduce", "ring", 64, 65536)
        assert len(result.rounds) == 2 * 63
        assert len(calls) == 1


def test_a_repeat_collective_keys_its_rounds_without_hashing_flows(
    monkeypatch,
):
    """The lowering keeps each round's flow-pattern id, so a repeat
    call looks its rounds up without interning a flow tuple again."""
    runtime = CommRuntime(t3d(), rates="paper")
    first = run_collective(runtime, "allreduce", "ring", 64, 4096)
    interned = []

    def counted(self, flows):
        interned.append(flows)
        return pattern(self, flows)

    pattern = CommRuntime._pattern
    monkeypatch.setattr(CommRuntime, "_pattern", counted)
    assert run_collective(runtime, "allreduce", "ring", 64, 4096) == first
    assert interned == []


class TestRuntimeMemo:
    """A runtime prices each distinct step once, across collectives."""

    def test_cold_collective_sweep_prices_each_step_once(self, monkeypatch):
        from repro.sweep import collectives_spec, run_sweep
        from repro.sweep.worker import reset_memos

        calls = {"execute": 0, "congestion": 0}
        execute = CommRuntime._execute
        congestion = CommunicationStep._congestion

        def counted_execute(self, *args, **kwargs):
            calls["execute"] += 1
            return execute(self, *args, **kwargs)

        def counted_congestion(self, *args, **kwargs):
            calls["congestion"] += 1
            return congestion(self, *args, **kwargs)

        monkeypatch.setattr(CommRuntime, "_execute", counted_execute)
        monkeypatch.setattr(
            CommunicationStep, "_congestion", counted_congestion
        )
        reset_memos()
        run_sweep(collectives_spec(nodes=(64,)))
        # 148 distinct flow patterns per runtime, 30 distinct transfers.
        assert calls == {"execute": 30, "congestion": 148}

    def test_cold_collective_sweep_lowers_each_collective_once(
        self, monkeypatch
    ):
        """The lowered rounds are kept on the runtime: a cold sweep
        builds each pairwise exchange once per runtime, although the
        selector and the cells run it again and again."""
        import repro.runtime.collectives as collectives_module
        from repro.sweep import collectives_spec, run_sweep
        from repro.sweep.worker import reset_memos

        builds = []
        key = ("alltoall", "pairwise-exchange")
        build = collectives_module._BUILDERS[key]

        def counted(nodes, nbytes):
            builds.append((nodes, nbytes))
            return build(nodes, nbytes)

        monkeypatch.setitem(collectives_module._BUILDERS, key, counted)
        reset_memos()
        spec = collectives_spec(nodes=(64,))
        run_sweep(spec)
        # One runtime per machine, one build per size on each.
        expected = sorted(
            (64, size) for size in spec.sizes for __ in spec.machines
        )
        assert sorted(builds) == expected

    def test_invalid_collectives_raise_on_every_call(self):
        runtime = CommRuntime(t3d(), rates="paper")
        for __ in range(2):
            with pytest.raises(ModelError, match="needs >= 2 nodes"):
                run_collective(runtime, "broadcast", "ring", 1, 4096)
            with pytest.raises(ModelError, match="nbytes > 0"):
                run_collective(runtime, "broadcast", "ring", 8, 0)
            with pytest.raises(ModelError, match="unknown collective"):
                run_collective(runtime, "scan", "ring", 8, 4096)

    @pytest.mark.parametrize("key", ["t3d", "xe", "cluster"])
    def test_one_runtime_prices_every_collective_as_fresh(self, key):
        """Every algorithm in turn, nominal, under a plan and nominal
        again: the kept flow facts and transfers never leak across
        patterns of one size or across plans."""
        machine = machine_by_key(key)
        shared = CommRuntime(machine, table=machine.paper_table())

        def price(runtime, op, algorithm, plan):
            try:
                with injecting(plan) if plan else nullcontext():
                    return run_collective(runtime, op, algorithm, 8, 65536)
            except (CompositionError, TransferAbortedError) as exc:
                return type(exc), str(exc)

        for plan in (None, FaultPlan.chaos(7), None):
            for op, algorithms in ALGORITHMS.items():
                for algorithm in algorithms:
                    fresh = CommRuntime(machine, table=machine.paper_table())
                    assert price(shared, op, algorithm, plan) == price(
                        fresh, op, algorithm, plan
                    )

    @pytest.mark.parametrize("seed", [None, 7])
    def test_traced_collectives_in_a_row_trace_as_fresh(self, seed):
        def traced(runtime, op, algorithm):
            with tracing() as tracer:
                run_collective(runtime, op, algorithm, 8, 65536)
            samples = [(c.name, c.value, c.at_ns) for c in tracer.counters()]
            return json.dumps(
                [chrome_trace(tracer), samples], sort_keys=True
            )

        def runtime():
            machine = machine_by_key("xe")
            plan = FaultPlan.chaos(seed) if seed is not None else None
            return CommRuntime(
                machine, faults=plan, table=machine.paper_table()
            )

        shared = runtime()
        for op, algorithm in (("allreduce", "ring"), ("broadcast", "ring")):
            assert traced(shared, op, algorithm) == traced(
                runtime(), op, algorithm
            )
