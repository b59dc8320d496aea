"""The measurement cache key covers everything the table depends on.

Sweep workers share the on-disk calibration cache; the key is the only
thing standing between a worker and somebody else's stale table.  Two
regressions pinned here: the machine's *capabilities* participate (they
decide which receive entries get measured — before they did, a
capability-only ablation collided with its base machine), and
``MEASURE_VERSION`` participates (so a bumped measurement procedure
orphans old disk entries instead of serving them).
"""

from dataclasses import replace

import pytest

from repro.core.operations import DepositSupport
from repro.core.transfers import TransferKind
from repro.machines import measure as measure_module
from repro.machines.measure import (
    DEFAULT_STRIDES,
    calibration_entries,
    measure_table,
    measurement_cache_key,
)


def _key(machine, **kwargs):
    defaults = dict(
        congestion=machine.network.default_congestion,
        nwords=4096,
        strides=DEFAULT_STRIDES,
    )
    defaults.update(kwargs)
    return measurement_cache_key(machine, **defaults)


class TestCacheKeyInputs:
    def test_key_is_stable(self, t3d_machine):
        assert _key(t3d_machine) == _key(t3d_machine)

    def test_machines_do_not_collide(self, t3d_machine, paragon_machine):
        assert _key(t3d_machine) != _key(paragon_machine)

    def test_capabilities_change_invalidates_key(self, t3d_machine):
        ablated = t3d_machine.with_overrides(
            capabilities=replace(
                t3d_machine.capabilities, deposit=DepositSupport.NONE
            )
        )
        assert _key(ablated) != _key(t3d_machine)

    def test_version_bump_invalidates_key(self, t3d_machine, monkeypatch):
        before = _key(t3d_machine)
        monkeypatch.setattr(
            measure_module,
            "MEASURE_VERSION",
            measure_module.MEASURE_VERSION + "-test-bump",
        )
        assert _key(t3d_machine) != before

    def test_engine_selection_invalidates_key(self, t3d_machine, monkeypatch):
        from repro.memsim.node import ENGINE_ENV

        monkeypatch.delenv(ENGINE_ENV, raising=False)
        auto = _key(t3d_machine)
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        assert _key(t3d_machine) != auto

    def test_stream_parameters_invalidate_key(self, t3d_machine):
        assert _key(t3d_machine, nwords=8192) != _key(t3d_machine)
        assert _key(t3d_machine, strides=(2, 4)) != _key(t3d_machine)
        assert _key(t3d_machine, congestion=7) != _key(t3d_machine)


class TestSweepCalibrationAgreement:
    """``repro sweep --grid calibration`` and ``calibrate`` measure the
    same grid through different paths: the sweep fans entries out as
    cells (batched per worker), ``measure_table`` loops over them in
    one process.  Every swept rate must equal the table's entry."""

    def test_pooled_sweep_rates_equal_measured_table(self, t3d_machine):
        from repro.sweep import calibration_spec, run_sweep

        spec = replace(calibration_spec("t3d"), nwords=2048)
        result = run_sweep(spec, workers=2)
        table = measure_table(t3d_machine, nwords=2048, use_cache=False)
        measured = table.to_dict()
        swept = {}
        for cell, row in zip(result.cells, result.rows):
            letter = cell.style
            key = letter if letter.startswith("N") else f"{cell.x}{letter}{cell.y}"
            swept[key] = row["mbps"]
        assert swept == measured


class TestCapabilityAblationTables:
    """The end-to-end consequence: an ablated machine measures a
    *different grid*, so conflating the keys would hand it wrong
    entries from the cache."""

    def test_ablated_machine_measures_fewer_entries(self, t3d_machine):
        ablated = t3d_machine.with_overrides(
            capabilities=replace(
                t3d_machine.capabilities, deposit=DepositSupport.NONE
            )
        )
        full = calibration_entries(t3d_machine)
        reduced = calibration_entries(ablated)
        assert len(reduced) < len(full)
        assert all(letter != "D" for letter, __, __ in reduced)

    def test_cached_tables_not_conflated(self, t3d_machine):
        ablated = t3d_machine.with_overrides(
            capabilities=replace(
                t3d_machine.capabilities, deposit=DepositSupport.NONE
            )
        )
        base_table = measure_table(t3d_machine, nwords=4096)
        ablated_table = measure_table(ablated, nwords=4096)
        assert base_table is not ablated_table
        assert base_table.get(TransferKind.RECEIVE_DEPOSIT, "0", "1") > 0
        assert ablated_table.get(TransferKind.RECEIVE_DEPOSIT, "0", "1") is None


class TestEnginePinnedAtCreation:
    """A table measures an entry when it is first read, which may be
    long after ``measure_table`` returned.  Its cache key names the
    ``REPRO_MEMSIM_ENGINE`` selection at creation, so every entry must
    be measured under that selection, whatever the variable says when
    the entry is read.  On t3d and xe the scalar oracle and the fast
    path differ in the last ulp for about a third of the entries, so a
    table measured under the wrong engine shows."""

    NWORDS = 2048
    _eager = {}

    @classmethod
    def _eager_table(cls, machine_key, engine, monkeypatch):
        """Every entry measured at once under ``engine``, keyed as
        ``to_dict`` keys them."""
        from repro.machines import machine_by_key
        from repro.machines.measure import measure_entries
        from repro.memsim.node import ENGINE_ENV

        if (machine_key, engine) not in cls._eager:
            machine = machine_by_key(machine_key)
            monkeypatch.setenv(ENGINE_ENV, engine)
            entries = calibration_entries(machine)
            rates = measure_entries(
                machine, machine.node_memory(nwords=cls.NWORDS), entries
            )
            cls._eager[machine_key, engine] = {
                letter if letter.startswith("N") else f"{read}{letter}{write}": rate
                for (letter, read, write), rate in zip(entries, rates)
            }
        return cls._eager[machine_key, engine]

    @pytest.mark.parametrize("machine_key", ["t3d", "xe"])
    @pytest.mark.parametrize("made", ["scalar", "fast"])
    @pytest.mark.parametrize("read", ["other", "auto", None])
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_reads_measure_under_the_creation_engine(
        self, machine_key, made, read, use_cache, monkeypatch, tmp_path
    ):
        from repro.caching import CACHE_DIR_ENV, default_cache
        from repro.machines import machine_by_key
        from repro.memsim.node import ENGINE_ENV

        other = "fast" if made == "scalar" else "scalar"
        expected = self._eager_table(machine_key, made, monkeypatch)
        assert expected != self._eager_table(machine_key, other, monkeypatch)

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        default_cache().clear()
        monkeypatch.setenv(ENGINE_ENV, made)
        table = measure_table(
            machine_by_key(machine_key), nwords=self.NWORDS, use_cache=use_cache
        )
        if read is None:
            monkeypatch.delenv(ENGINE_ENV)
        else:
            monkeypatch.setenv(ENGINE_ENV, other if read == "other" else read)
        assert table.get(TransferKind.COPY, "1", 8) == expected["1C8"]
        assert table.to_dict() == expected
        default_cache().clear()
