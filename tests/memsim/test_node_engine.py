"""Engine selection and result memoization in NodeMemorySystem."""

import pytest

from repro.core.patterns import CONTIGUOUS, INDEXED, strided
from repro.machines import t3d
from repro.memsim import node as node_module
from repro.memsim.config import CacheConfig, NodeConfig
from repro.memsim.fastpath import FastpathUnsupported
from repro.memsim.node import ENGINE_ENV, NodeMemorySystem


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)


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
    def test_invalid_engine_rejected(self, node_config):
        with pytest.raises(ValueError):
            _small(node_config, engine="turbo")

    def test_auto_uses_fast_path_for_supported_config(self, node_config):
        node = _small(node_config)
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "fast"

    def test_scalar_engine_forces_the_oracle(self, node_config):
        node = _small(node_config, engine="scalar")
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "scalar"

    def test_engines_agree(self, node_config):
        fast = _small(node_config, engine="fast")
        scalar = _small(node_config, engine="scalar")
        a = fast.measure_copy(CONTIGUOUS, strided(8))
        b = scalar.measure_copy(CONTIGUOUS, strided(8))
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

    def test_auto_fallback_matches_scalar_engine_exactly(self):
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        auto = _small(config)
        scalar = _small(config, engine="scalar")
        for read, write in (
            (CONTIGUOUS, CONTIGUOUS),
            (CONTIGUOUS, strided(8)),
            (strided(16), CONTIGUOUS),
        ):
            assert auto.measure_copy(read, write) == scalar.measure_copy(
                read, write
            )
            assert auto.last_engine == "scalar"
        assert auto.measure_load_send(strided(8)) == scalar.measure_load_send(
            strided(8)
        )
        assert auto.measure_receive_store(
            strided(8)
        ) == scalar.measure_receive_store(strided(8))

    def test_supported_config_never_counts_fallbacks(self, node_config):
        node = _small(node_config)
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "fast"
        assert node.fastpath_fallbacks == 0

    def test_fast_mode_raises_outside_the_envelope(self):
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config, engine="fast")
        with pytest.raises(FastpathUnsupported):
            node.measure_copy(CONTIGUOUS, CONTIGUOUS)

    def test_env_var_overrides_instance_engine(
        self, node_config, monkeypatch
    ):
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        node = _small(node_config, engine="fast")
        node.measure_copy(CONTIGUOUS, strided(8))
        assert node.last_engine == "scalar"

    def test_bogus_env_var_rejected(self, node_config, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp")
        node = _small(node_config)
        with pytest.raises(ValueError):
            node.measure_copy(CONTIGUOUS, CONTIGUOUS)


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

    def test_memoization_is_engine_aware(self, node_config, monkeypatch):
        node = _small(node_config)
        fast = node.copy_result(CONTIGUOUS, strided(8))
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        scalar = node.copy_result(CONTIGUOUS, strided(8))
        assert scalar is not fast
        assert node.last_engine == "scalar"

    def test_memo_keys_on_engine_actually_used(
        self, node_config, monkeypatch
    ):
        """Toggling REPRO_MEMSIM_ENGINE must serve the memo of the
        engine that produced the value, never re-simulate it under a
        different requested mode (regression: the memo used to key on
        the requested mode, so auto-produced results were invisible to
        fast/scalar mode and vice versa)."""
        node = _small(node_config)
        auto = node.copy_result(CONTIGUOUS, strided(8))  # auto -> fast
        assert node.last_engine == "fast"
        node.last_engine = None
        monkeypatch.setenv(ENGINE_ENV, "fast")
        forced = node.copy_result(CONTIGUOUS, strided(8))
        assert forced is auto  # shared entry: no re-simulation
        assert node.last_engine is None  # served from the memo
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        scalar = node.copy_result(CONTIGUOUS, strided(8))
        assert scalar is not auto  # scalar never computed this value
        assert node.last_engine == "scalar"
        node.last_engine = None
        monkeypatch.delenv(ENGINE_ENV)
        again = node.copy_result(CONTIGUOUS, strided(8))  # auto again
        assert again is auto
        assert node.last_engine is None

    def test_auto_fallback_shares_scalar_memo(self, monkeypatch):
        """On a fast-unsupported config, auto's fallback result and a
        forced-scalar query are one memo entry in both directions."""
        config = NodeConfig(
            cache=CacheConfig(write_policy="back", associativity=4)
        )
        node = _small(config)
        fallback = node.copy_result(CONTIGUOUS, CONTIGUOUS)
        assert node.last_engine == "scalar"
        node.last_engine = None
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        forced = node.copy_result(CONTIGUOUS, CONTIGUOUS)
        assert forced is fallback
        assert node.last_engine is None

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
