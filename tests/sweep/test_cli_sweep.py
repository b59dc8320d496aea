"""The ``python -m repro sweep`` command, including the acceptance
criterion: ``--workers 4`` output is bit-identical to ``--workers 1``."""

import json

import pytest

from repro.__main__ import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main

FAST_SPEC_PAYLOAD = {
    "kind": "transfer",
    "machines": ["t3d", "paragon"],
    "pairs": [["1", "1"], ["1", "64"]],
    "styles": ["buffer-packing", "chained"],
    "sizes": [8192],
    "rates": "paper",
}


def _spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FAST_SPEC_PAYLOAD))
    return str(path)


def _run_json(capsys, *argv):
    code = main(["sweep", "--json", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    return json.loads(captured.out)


class TestSweepCommand:
    def test_workers_4_bit_identical_to_workers_1(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        one = _run_json(capsys, "--spec", spec, "--workers", "1")
        four = _run_json(
            capsys, "--spec", spec, "--workers", "4", "--shard-size", "1"
        )
        assert one == four
        assert one["digest"] == four["digest"]

    def test_shuffle_seed_cannot_change_results(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        plain = _run_json(capsys, "--spec", spec, "--workers", "2")
        shuffled = _run_json(
            capsys, "--spec", spec, "--workers", "2",
            "--shuffle-seed", "1234",
        )
        assert plain == shuffled

    def test_json_payload_shape(self, tmp_path, capsys):
        payload = _run_json(capsys, "--spec", _spec_file(tmp_path))
        assert payload["schema"] == "repro-sweep-result/1"
        assert len(payload["results"]) == 8
        assert all("mbps" in row for row in payload["results"])

    def test_out_writes_canonical_json(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        out = tmp_path / "result.json"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-sweep-result/1"
        capsys.readouterr()

    def test_human_output_lists_cells(self, tmp_path, capsys):
        assert main(["sweep", "--spec", _spec_file(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "swept 8 cells" in out
        assert "t3d:1Q64:chained:8192" in out
        assert "digest" in out

    def test_seeds_add_a_fault_axis(self, tmp_path, capsys):
        payload = _run_json(
            capsys, "--spec", _spec_file(tmp_path), "--seeds", "3", "7"
        )
        assert len(payload["results"]) == 8 * 3  # nominal + 2 seeds
        assert any(
            row["id"].endswith(":seed7") for row in payload["results"]
        )

    def test_seeds_rejected_for_calibration_grid(self, capsys):
        code = main(
            ["sweep", "--grid", "calibration", "--seeds", "3"]
        )
        assert code == EXIT_FAILURE
        assert "transfer" in capsys.readouterr().err

    def test_bad_spec_file_is_operational_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"machines": ["t3e"]}))
        assert main(["sweep", "--spec", str(path)]) == EXIT_FAILURE
        assert "unknown machine" in capsys.readouterr().err

    def test_missing_spec_file_is_operational_failure(self, capsys):
        assert main(["sweep", "--spec", "/no/such/spec.json"]) == EXIT_FAILURE
        capsys.readouterr()

    def test_unknown_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", "figure9"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_worker_crash_is_one_line_error(self, tmp_path, monkeypatch, capfd):
        """A crashing worker initializer must exit 1 with the standard
        ``error:`` line — no raw multiprocessing traceback on stderr."""
        from repro.sweep import worker as worker_module

        def boom():
            raise RuntimeError("deliberate init crash")

        monkeypatch.setattr(worker_module, "reset_memos", boom)
        code = main(["sweep", "--spec", _spec_file(tmp_path), "--workers", "2"])
        out, err = capfd.readouterr()
        assert code == EXIT_FAILURE
        error_lines = [
            line for line in err.splitlines() if line.startswith("error: ")
        ]
        assert len(error_lines) == 1
        assert "deliberate init crash" in error_lines[0]
        assert "Traceback" not in err
        assert "Traceback" not in out


class TestFaultsSeedsCommand:
    def test_seed_population_report(self, capsys):
        code = main([
            "faults", "--seeds", "3", "11", "--bytes", "8192", "--json",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(captured.out)
        assert payload["schema"] == "repro-faults-sweep/1"
        assert [row["seed"] for row in payload["seeds"]] == [3, 11]
        assert payload["nominal"]["mbps"] > 0
        for row in payload["seeds"]:
            assert row["mbps"] <= payload["nominal"]["mbps"]
            assert "throughput_pct" in row["delta"]

    def test_duplicate_seeds_rejected(self, capsys):
        code = main([
            "faults", "--seeds", "5", "5", "3", "--bytes", "8192", "--json",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_FAILURE
        assert captured.err.startswith("error: ")
        assert "duplicate" in captured.err

    def test_seeds_with_step_rejected(self, capsys):
        code = main([
            "faults", "--seeds", "3", "--step", "shift",
        ])
        assert code == EXIT_FAILURE
        assert "--step" in capsys.readouterr().err

    def test_human_report(self, capsys):
        code = main(["faults", "--seeds", "3", "--bytes", "8192"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "nominal:" in captured.out
        assert "seed     3:" in captured.out
