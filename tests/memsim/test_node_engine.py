"""Engine choice and result memoization in NodeMemorySystem.

Each kernel runs on the fast path when its streams qualify and falls
back to the scalar oracle otherwise.  The ``scalar_oracle`` fixture
(``tests/conftest.py``) forces the fallback for a whole block, so the
fast path and a harness fallback can both be held to the oracle.
"""

import pytest

from repro.core.patterns import CONTIGUOUS, INDEXED, strided
from repro.machines import t3d
from repro.memsim import node as node_module
from repro.memsim.config import CacheConfig, NodeConfig
from repro.memsim.node import NodeMemorySystem


@pytest.fixture
def stream_calls(monkeypatch):
    """Count the streams NodeMemorySystem builds."""
    calls = []
    make_stream = node_module.make_stream

    def counting(*args, **kwargs):
        calls.append(args[0])
        return make_stream(*args, **kwargs)

    monkeypatch.setattr(node_module, "make_stream", counting)
    return calls


@pytest.fixture
def node_config():
    return t3d().node


def _small(config, **kwargs):
    return NodeMemorySystem(config, nwords=2048, **kwargs)


class TestEngineSelection:
    def test_auto_uses_fast_path_for_supported_config(self, node_config):
        node = _small(node_config)
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "fast"

    def test_scalar_engine_forces_the_oracle(
        self, node_config, scalar_oracle
    ):
        node = _small(node_config)
        with scalar_oracle() as oracle:
            node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "scalar"
        assert oracle.kernels == node.fastpath_fallbacks == 1

    def test_engines_agree(self, node_config, scalar_oracle):
        fast = _small(node_config)
        scalar = _small(node_config)
        a = fast.measure_copy(CONTIGUOUS, strided(8))
        assert fast.last_engine == "fast"
        with scalar_oracle() as oracle:
            b = scalar.measure_copy(CONTIGUOUS, strided(8))
        assert oracle.kernels == 1
        assert a == pytest.approx(b, rel=1e-9)

    def test_auto_falls_back_outside_the_envelope(self):
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        node.measure_copy(CONTIGUOUS, CONTIGUOUS)
        assert node.last_engine == "scalar"

    def test_auto_fallback_is_counted(self):
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        assert node.fastpath_fallbacks == 0
        node.measure_copy(CONTIGUOUS, CONTIGUOUS)
        assert node.fastpath_fallbacks == 1
        # A memoized repeat must not recount.
        node.measure_copy(CONTIGUOUS, CONTIGUOUS)
        assert node.fastpath_fallbacks == 1
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.fastpath_fallbacks == 2

    def test_auto_fallback_emits_trace_counter(self):
        from repro.trace import tracing

        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        with tracing() as tracer:
            node.measure_copy(CONTIGUOUS, CONTIGUOUS)
        counters = tracer.metrics.counters()
        assert counters.get("memsim.fastpath_unsupported") == 1
        assert counters.get("memsim.engine.scalar") == 1

    def test_auto_fallback_matches_scalar_engine_exactly(
        self, scalar_oracle
    ):
        """A kernel the fast path rejects gives exactly what the oracle
        gives for the same kernel."""
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        auto = _small(config)
        scalar = _small(config)
        pairs = (
            (CONTIGUOUS, CONTIGUOUS),
            (CONTIGUOUS, strided(8)),
            (strided(16), CONTIGUOUS),
        )
        fallbacks = [auto.measure_copy(read, write) for read, write in pairs]
        fallbacks.append(auto.measure_load_send(strided(8)))
        fallbacks.append(auto.measure_receive_store(strided(8)))
        assert auto.fastpath_fallbacks == len(fallbacks)
        with scalar_oracle() as oracle:
            oracles = [
                scalar.measure_copy(read, write) for read, write in pairs
            ]
            oracles.append(scalar.measure_load_send(strided(8)))
            oracles.append(scalar.measure_receive_store(strided(8)))
        assert oracle.kernels == len(oracles)
        assert fallbacks == oracles

    def test_supported_config_never_counts_fallbacks(self, node_config):
        node = _small(node_config)
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "fast"
        assert node.fastpath_fallbacks == 0


class TestMemoization:
    def test_repeat_measurement_is_a_dict_lookup(self, node_config):
        node = _small(node_config)
        first = node.copy_result(CONTIGUOUS, strided(8))
        node.last_engine = None
        second = node.copy_result(CONTIGUOUS, strided(8))
        assert second is first
        assert node.last_engine is None  # no engine ran

    def test_memo_hit_builds_no_streams(self, node_config, stream_calls):
        node = _small(node_config)
        first = node.copy_result(INDEXED, strided(8))
        assert len(stream_calls) == 2
        second = node.copy_result(INDEXED, strided(8))
        assert second is first
        assert len(stream_calls) == 2  # the hit generated nothing
        node.load_send_result(INDEXED)
        node.receive_store_result(INDEXED)
        assert len(stream_calls) == 4
        node.load_send_result(INDEXED)
        node.receive_store_result(INDEXED)
        assert len(stream_calls) == 4

    def test_auto_fallback_builds_streams_once(self, stream_calls):
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        node.copy_result(CONTIGUOUS, strided(8))
        assert node.last_engine == "scalar"
        assert node.fastpath_fallbacks == 1
        assert len(stream_calls) == 2  # not rebuilt for the oracle

    def test_clear_cache_remeasures(self, node_config):
        node = _small(node_config)
        first = node.copy_result(CONTIGUOUS, strided(8))
        node.clear_cache()
        second = node.copy_result(CONTIGUOUS, strided(8))
        assert second is not first
        assert second.ns == first.ns

    def test_auto_fallback_shares_scalar_memo(self, monkeypatch):
        """A fallback's oracle result is memoized like a fast one: a
        repeat neither re-attempts the fast path nor runs the oracle."""
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        fallback = node.copy_result(CONTIGUOUS, CONTIGUOUS)
        assert node.last_engine == "scalar"
        node.last_engine = None
        attempts = []
        fast_engine = node_module.FastEngine

        def counting(*args, **kwargs):
            attempts.append(args)
            return fast_engine(*args, **kwargs)

        monkeypatch.setattr(node_module, "FastEngine", counting)
        assert node.copy_result(CONTIGUOUS, CONTIGUOUS) is fallback
        assert node.last_engine is None
        assert attempts == []
        assert node.fastpath_fallbacks == 1

    def test_clear_cache_forgets_fast_rejections(self):
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        node.copy_result(CONTIGUOUS, CONTIGUOUS)
        assert node.fastpath_fallbacks == 1
        node.clear_cache()
        node.copy_result(CONTIGUOUS, CONTIGUOUS)
        assert node.fastpath_fallbacks == 2  # re-attempted, re-counted
