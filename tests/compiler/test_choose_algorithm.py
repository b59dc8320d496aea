"""Model-driven collective-algorithm selection (the crossover tests).

The selector must reproduce the regime structure the model implies:
latency-bound small messages pick the few-round family, bandwidth-bound
large messages pick the few-byte family, and the pick is never worse
than any alternative under the selector's own cost model.
"""

import pytest

from repro.compiler.advisor import choose_algorithm
from repro.core.errors import ModelError
from repro.machines.registry import MACHINE_FACTORIES
from repro.runtime.collectives import ALGORITHMS, COLLECTIVE_OPS
from repro.runtime.engine import CommRuntime

SMALL = 1024
LARGE = 1 << 22
NODES = 16

#: op -> (few-round winner at SMALL, few-byte winner at LARGE).
CROSSOVER = {
    "broadcast": ("binomial-tree", "ring"),
    "allreduce": ("recursive-doubling", "ring"),
    "alltoall": ("bruck", "pairwise-exchange"),
}

MACHINES = ("t3d", "cluster", "xe")


def _machine(key):
    return MACHINE_FACTORIES[key]()


class TestCrossover:
    @pytest.mark.parametrize("key", MACHINES)
    @pytest.mark.parametrize("op", COLLECTIVE_OPS)
    def test_small_messages_pick_few_round_family(self, key, op):
        advice = choose_algorithm(op, _machine(key), SMALL, NODES)
        assert advice.algorithm == CROSSOVER[op][0]

    @pytest.mark.parametrize("key", MACHINES)
    @pytest.mark.parametrize("op", COLLECTIVE_OPS)
    def test_large_messages_pick_few_byte_family(self, key, op):
        advice = choose_algorithm(op, _machine(key), LARGE, NODES)
        assert advice.algorithm == CROSSOVER[op][1]

    @pytest.mark.parametrize("key", MACHINES)
    @pytest.mark.parametrize("op", COLLECTIVE_OPS)
    @pytest.mark.parametrize("nbytes", [SMALL, 65536, LARGE])
    def test_selected_never_worse_than_alternatives(self, key, op, nbytes):
        advice = choose_algorithm(op, _machine(key), nbytes, NODES)
        assert set(advice.per_algorithm) == set(ALGORITHMS[op])
        assert advice.predicted_ns == advice.per_algorithm[advice.algorithm]
        assert advice.predicted_ns == min(advice.per_algorithm.values())

    def test_cluster_goes_hierarchical(self):
        advice = choose_algorithm(
            "broadcast", _machine("cluster"), LARGE, NODES
        )
        assert advice.hierarchical

    def test_flat_machines_stay_flat(self):
        advice = choose_algorithm("broadcast", _machine("t3d"), LARGE, NODES)
        assert not advice.hierarchical

    def test_unknown_op_rejected(self):
        with pytest.raises(ModelError):
            choose_algorithm("reduce", _machine("t3d"), SMALL, NODES)


class TestGivenRuntime:
    """Pricing on a caller's runtime changes no advice."""

    @pytest.mark.parametrize("key", sorted(MACHINE_FACTORIES))
    def test_matches_a_fresh_runtime(self, key):
        machine = _machine(key)
        runtime = CommRuntime(machine, rates="paper")
        for op in COLLECTIVE_OPS:
            for nbytes in (SMALL, LARGE):
                assert choose_algorithm(
                    op, machine, nbytes, NODES, runtime=runtime
                ) == choose_algorithm(op, machine, nbytes, NODES)

    def test_runtime_on_another_machine_rejected(self):
        runtime = CommRuntime(_machine("xe"), rates="paper")
        with pytest.raises(ValueError, match="another machine"):
            choose_algorithm(
                "broadcast", _machine("t3d"), SMALL, NODES, runtime=runtime
            )
