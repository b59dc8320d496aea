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
from repro.core.serialization import table_to_dict
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
from repro.memsim.node import DEFAULT_MEASURE_WORDS


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
    worker rewrites the shared disk file when it exits."""
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


def _read_the_copy_entries() -> None:
    """A spawned process: read a T3D table's copy entries, then exit
    without running a sweep."""
    machine = t3d()
    table = measure_table(machine, nwords=512)
    for letter, read, write in calibration_entries(machine):
        if letter == "C":
            table.get(_KIND_BY_LETTER[letter], _table_key(read), _table_key(write))


def _entry(table: ThroughputTable, mbps: float) -> ThroughputTable:
    table.set(TransferKind.COPY, "1", 8, mbps)
    return table


class TestCoalescedPublish:
    """A table's file is written when the table is made and then once
    per flush: at the end of a sweep run, on ``clear``, on LRU eviction
    and at process exit."""

    @staticmethod
    def _cold_figure7():
        from repro.bench.experiments import figure7
        from repro.sweep.worker import reset_memos

        default_cache().clear()
        reset_memos()
        return figure7()

    def test_a_cold_sweep_writes_each_file_at_creation_and_at_its_end(
        self, monkeypatch
    ):
        writes = []
        write = CalibrationCache._write

        def counted(self, path, table):
            writes.append(path)
            return write(self, path, table)

        default_cache().flush()  # what earlier tests left dirty
        monkeypatch.setattr(CalibrationCache, "_write", counted)
        self._cold_figure7()
        assert writes
        assert all(writes.count(path) <= 2 for path in writes)

    def test_the_file_holds_the_table_once_the_sweep_returns(self):
        self._cold_figure7()
        machine = t3d()
        key = measurement_cache_key(
            machine,
            machine.network.default_congestion,
            DEFAULT_MEASURE_WORDS,
            DEFAULT_STRIDES,
        )
        table = default_cache().lookup(key)
        assert table is not None and len(table.to_dict(measure=False)) > 0
        assert default_cache()._path(key).read_text() == json.dumps(
            table_to_dict(table, measure=False), sort_keys=True
        )

    def test_publish_waits_for_a_flush(self, tmp_path):
        cache = CalibrationCache(directory=str(tmp_path))
        table = _table()
        cache.store("k", table)
        cache.publish("k", _entry(table, 50.0))
        assert "1C8" not in cache._path("k").read_text()
        cache.flush()
        assert "1C8" in cache._path("k").read_text()

    def test_clear_flushes(self, tmp_path):
        cache = CalibrationCache(directory=str(tmp_path))
        table = _table()
        cache.store("k", table)
        cache.publish("k", _entry(table, 50.0))
        cache.clear()
        assert CalibrationCache(directory=str(tmp_path)).lookup("k").get(
            TransferKind.COPY, "1", 8
        ) == 50.0

    def test_eviction_flushes_the_evicted_table(self, tmp_path):
        cache = CalibrationCache(max_entries=1, directory=str(tmp_path))
        table = _table()
        cache.store("a", table)
        cache.publish("a", _entry(table, 50.0))
        cache.store("b", _table())
        assert "a" not in cache._memory
        assert cache.lookup("a").get(TransferKind.COPY, "1", 8) == 50.0

    def test_a_dirty_table_goes_where_it_was_published(
        self, monkeypatch, tmp_path
    ):
        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.setenv(CACHE_DIR_ENV, str(first))
        cache = CalibrationCache()
        table = _table()
        cache.store("k", table)
        cache.publish("k", _entry(table, 50.0))
        monkeypatch.setenv(CACHE_DIR_ENV, str(second))
        cache.flush()
        assert "1C8" in (first / "tables" / "k.json").read_text()
        assert not second.exists()

    def test_a_flush_never_brings_back_a_removed_directory(self, tmp_path):
        import shutil

        directory = tmp_path / "disk"
        cache = CalibrationCache(directory=str(directory))
        table = _table()
        cache.store("k", table)
        cache.publish("k", _entry(table, 50.0))
        shutil.rmtree(directory)
        cache.flush()
        assert not directory.exists()

    def test_a_process_leaves_what_it_read_on_disk_at_exit(self):
        machine = t3d()
        context = multiprocessing.get_context("spawn")
        process = context.Process(target=_read_the_copy_entries)
        process.start()
        process.join(timeout=120)
        assert process.exitcode == 0
        key = measurement_cache_key(
            machine, machine.network.default_congestion, 512, DEFAULT_STRIDES
        )
        stored = json.loads(CalibrationCache()._path(key).read_text())["entries"]
        copies = [
            entry for entry in calibration_entries(machine) if entry[0] == "C"
        ]
        assert len(stored) == len(copies)
        expected = measure_table(machine, nwords=512, use_cache=False).to_dict()
        assert all(expected[name] == rate for name, rate in stored.items())
