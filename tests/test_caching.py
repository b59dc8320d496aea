"""Tests for the calibration cache (repro.caching)."""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.caching import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    CalibrationCache,
    content_key,
    default_cache,
)
from repro.core.calibration import ThroughputTable
from repro.core.transfers import TransferKind
from repro.machines import t3d
from repro.machines.measure import (
    DEFAULT_STRIDES,
    _KIND_BY_LETTER,
    _table_key,
    calibration_entries,
    measure_table,
    measurement_cache_key,
)
from repro.memsim.config import DRAMConfig, NodeConfig


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))


def _table(mbps: float = 100.0) -> ThroughputTable:
    table = ThroughputTable("test")
    table.set(TransferKind.COPY, "1", "1", mbps)
    return table


class TestContentKey:
    def test_stable_across_calls(self):
        node = NodeConfig()
        assert content_key("x", node, 42) == content_key("x", node, 42)

    def test_sensitive_to_dataclass_fields(self):
        base = NodeConfig()
        slower = NodeConfig(dram=DRAMConfig(read_miss_ns=999.0))
        assert content_key(base) != content_key(slower)

    def test_sensitive_to_every_part(self):
        assert content_key("a", 1) != content_key("a", 2)
        assert content_key("a", 1) != content_key("b", 1)


class TestMemoryLayer:
    def test_round_trip(self):
        cache = CalibrationCache(use_disk=False)
        cache.store("k", _table())
        assert cache.lookup("k") is not None
        assert cache.memory_hits == 1

    def test_miss_returns_none(self):
        cache = CalibrationCache(use_disk=False)
        assert cache.lookup("absent") is None
        assert cache.misses == 1

    def test_lru_evicts_oldest(self):
        cache = CalibrationCache(max_entries=2, use_disk=False)
        cache.store("a", _table(1.0))
        cache.store("b", _table(2.0))
        cache.lookup("a")  # refresh "a"; "b" is now the oldest
        cache.store("c", _table(3.0))
        assert len(cache) == 2
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None

    def test_clear_empties_memory(self):
        cache = CalibrationCache(use_disk=False)
        cache.store("a", _table())
        cache.clear()
        assert len(cache) == 0


class TestDiskLayer:
    def test_round_trip_through_fresh_cache(self, tmp_path):
        directory = str(tmp_path / "disk")
        writer = CalibrationCache(directory=directory)
        writer.store("k", _table(123.0))
        reader = CalibrationCache(directory=directory)
        table = reader.lookup("k")
        assert table is not None
        assert table.get(TransferKind.COPY, "1", "1") == 123.0
        assert reader.disk_hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        path = directory / "tables" / "bad.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.lookup("bad") is None
        assert cache.corrupt == 1

    @pytest.mark.parametrize(
        "content", ['{"truncat', "", '{"schema": "wrong-format"}', "[1,2,3]"]
    )
    def test_damaged_entries_never_raise(self, tmp_path, content):
        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        path = directory / "tables" / "k.json"
        path.parent.mkdir(parents=True)
        path.write_text(content)
        assert cache.lookup("k") is None
        assert cache.corrupt == 1
        assert cache.misses == 1

    def test_corrupt_entry_emits_trace_counter(self, tmp_path):
        from repro.trace import tracing

        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        path = directory / "tables" / "bad.json"
        path.parent.mkdir(parents=True)
        path.write_text("garbage")
        with tracing() as tracer:
            cache.lookup("bad")
        assert tracer.metrics.counters().get("cache.corrupt") == 1

    def test_missing_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        cache = CalibrationCache(directory=str(tmp_path / "disk"))
        assert cache.lookup("absent") is None
        assert cache.corrupt == 0
        assert cache.misses == 1

    def test_corrupt_entry_is_rewritten_on_store(self, tmp_path):
        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        path = directory / "tables" / "k.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.lookup("k") is None
        cache.store("k", _table(55.0))
        fresh = CalibrationCache(directory=str(directory))
        table = fresh.lookup("k")
        assert table is not None
        assert table.get(TransferKind.COPY, "1", "1") == 55.0

    def test_unreadable_entry_is_a_counted_miss(self, tmp_path):
        import os

        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        cache.store("k", _table())
        path = cache._path("k")
        os.chmod(path, 0o000)
        try:
            fresh = CalibrationCache(directory=str(directory))
            if os.access(path, os.R_OK):  # running as root: chmod is moot
                pytest.skip("permissions not enforced for this user")
            assert fresh.lookup("k") is None
            assert fresh.corrupt == 1
        finally:
            os.chmod(path, 0o644)

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        import os

        directory = tmp_path / "disk"
        directory.mkdir()
        os.chmod(directory, 0o555)
        try:
            cache = CalibrationCache(directory=str(directory))
            cache.store("k", _table(77.0))  # must not raise
            table = cache.lookup("k")
            assert table is not None
            assert table.get(TransferKind.COPY, "1", "1") == 77.0
        finally:
            os.chmod(directory, 0o755)

    def test_store_writes_valid_json(self, tmp_path):
        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        cache.store("k", _table())
        (path,) = (directory / "tables").glob("*.json")
        json.loads(path.read_text())  # must parse

    def test_clear_disk_removes_files(self, tmp_path):
        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        cache.store("k", _table())
        cache.clear(disk=True)
        assert not list((directory / "tables").glob("*.json"))

    def test_memory_only_cache_never_touches_disk(self, tmp_path):
        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory), use_disk=False)
        cache.store("k", _table())
        assert not directory.exists()


class TestDisableSwitch:
    @pytest.mark.parametrize("value", ["off", "0", "no", "false", "OFF"])
    def test_env_var_disables_both_layers(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_ENV, value)
        cache = CalibrationCache(use_disk=False)
        cache.store("k", _table())
        assert len(cache) == 0
        assert cache.lookup("k") is None


def _read_every_third_entry(part: int) -> None:
    """A worker process: read one third of a T3D table's grid, so each
    measured entry rewrites the shared disk file."""
    machine = t3d()
    table = measure_table(machine, nwords=512)
    for index, (letter, read, write) in enumerate(calibration_entries(machine)):
        if index % 3 == part:
            table.get(_KIND_BY_LETTER[letter], _table_key(read), _table_key(write))


class TestMeasureTableIntegration:
    def test_use_cache_false_bypasses_the_default_cache(self):
        machine = t3d()
        default_cache().clear()
        a = measure_table(machine, nwords=2048, use_cache=False)
        assert len(default_cache()) == 0
        b = measure_table(machine, nwords=2048, use_cache=False)
        assert a is not b  # remeasured, not served from cache
        assert a.to_dict() == b.to_dict()

    def test_cache_key_tracks_the_engine_selection(self, monkeypatch):
        machine = t3d()
        auto = measurement_cache_key(machine, 4, 2048, (8,))
        monkeypatch.setenv("REPRO_MEMSIM_ENGINE", "scalar")
        scalar = measurement_cache_key(machine, 4, 2048, (8,))
        assert auto != scalar

    def test_cache_key_tracks_node_parameters(self):
        machine = t3d()
        slower = machine.with_overrides(
            node=NodeConfig(dram=DRAMConfig(read_miss_ns=999.0))
        )
        assert measurement_cache_key(
            machine, 4, 2048, (8,)
        ) != measurement_cache_key(slower, 4, 2048, (8,))

    def test_workers_sharing_the_disk_file_never_store_a_wrong_value(self):
        """Three processes (more than this host's cores) fill one table
        and rewrite its file concurrently.  A lost update may drop
        entries from the file, but every entry it holds is the value a
        single process measures, and a reader measures the rest."""
        machine = t3d()
        expected = measure_table(machine, nwords=512, use_cache=False).to_dict()
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=3, mp_context=context) as pool:
            futures = [
                pool.submit(_read_every_third_entry, part) for part in range(3)
            ]
            for future in futures:
                future.result(timeout=120)
        key = measurement_cache_key(
            machine, machine.network.default_congestion, 512, DEFAULT_STRIDES
        )
        path = CalibrationCache()._path(key)
        stored = json.loads(path.read_text())["entries"]
        assert stored
        assert all(expected[name] == rate for name, rate in stored.items())
        default_cache().clear()
        assert measure_table(machine, nwords=512).to_dict() == expected
