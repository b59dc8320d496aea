"""The ``python -m repro load`` subcommand and seeds validation."""

import json

import pytest

from repro.__main__ import main
from repro.load import validate_load_report


class TestLoadCommand:
    def test_human_output(self, capsys):
        assert main(["load", "--seed", "7", "--duration", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p99" in out and "p999" in out
        assert "events/s" in out
        assert "digest" in out

    def test_json_payload_validates(self, capsys):
        assert main([
            "load", "--seed", "7", "--duration", "0.005", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        digest = payload.pop("digest")
        assert len(digest) == 64
        assert validate_load_report(payload) == []

    def test_json_replays_bit_identically(self, capsys):
        argv = ["load", "--seed", "7", "--duration", "0.005", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 0
        again = capsys.readouterr().out
        assert first == again

    def test_chaos_seed_composes_faults(self, capsys):
        argv = ["load", "--seed", "7", "--duration", "0.005", "--json"]
        assert main(argv) == 0
        healthy = json.loads(capsys.readouterr().out)
        assert main(argv + ["--chaos-seed", "7"]) == 0
        chaotic = json.loads(capsys.readouterr().out)
        assert healthy["faults"] is None
        assert chaotic["faults"]["seed"] == 7
        assert (
            chaotic["latency_ns"]["p99"] > healthy["latency_ns"]["p99"]
        )

    def test_profile_and_machine_overrides(self, capsys):
        assert main([
            "load", "--profile", "closed", "--machine", "paragon",
            "--nodes", "4", "--duration", "0.005", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "paragon"
        assert payload["profile"]["nodes"] == 4

    def test_json_payload_checks_its_own_schema(self, capsys, monkeypatch):
        from repro.load import LoadResult

        emit = LoadResult.to_dict

        def corrupted(self):
            payload = emit(self)
            payload["offered"] = -1
            return payload

        monkeypatch.setattr(LoadResult, "to_dict", corrupted)
        assert main([
            "load", "--seed", "7", "--duration", "0.005", "--json",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: load report fails its own")
        assert len(captured.err.strip().splitlines()) == 1
        assert "offered" in captured.err

    def test_unknown_profile_is_one_line_error(self, capsys):
        assert main(["load", "--profile", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_nonpositive_duration_is_one_line_error(self, capsys):
        assert main(["load", "--duration", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ["--duration", "inf"],
        ["--duration", "nan"],
        ["--rate-x", "inf"],
        ["--rate-x", "nan"],
        ["--latency-curve", "1,inf"],
        ["--latency-curve", "nan"],
        ["--duration", "inf", "--latency-curve", "1,2"],
    ])
    def test_non_finite_input_is_one_line_error(self, flags, capsys):
        assert main(["load", "--duration", "0.005", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "finite" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_too_few_nodes_is_one_line_error(self, capsys):
        assert main(["load", "--nodes", "1", "--duration", "0.005"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_plan_is_one_line_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        assert main([
            "load", "--duration", "0.005", "--plan", str(plan),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_missing_plan_file_is_one_line_error(self, capsys, tmp_path):
        assert main([
            "load", "--duration", "0.005",
            "--plan", str(tmp_path / "absent.json"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_aborted_transfer_is_one_line_error(self, capsys, tmp_path):
        from repro.faults import FaultPlan, FragmentFault, RetryPolicy

        lossy = tmp_path / "lossy.json"
        lossy.write_text(json.dumps(FaultPlan(
            seed=3,
            fragments=(FragmentFault(loss=0.9),),
            retry=RetryPolicy(max_attempts=2, retry_budget=0.5),
        ).to_dict()))
        assert main([
            "load", "--seed", "7", "--duration", "0.02",
            "--plan", str(lossy),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestOverloadFlags:
    def test_protected_report_carries_overload_section(self, capsys):
        assert main([
            "load", "--seed", "7", "--duration", "0.005",
            "--rate-x", "3.2", "--admission", "bounded-queue",
            "--queue-limit", "16", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("digest")
        assert validate_load_report(payload) == []
        section = payload["overload"]
        assert section["spec"]["admission"] == "bounded-queue"
        assert section["totals"]["rejected"] > 0

    def test_invalid_spec_combination_is_one_line_error(self, capsys):
        # token-bucket admission without a rate is a spec error.
        assert main([
            "load", "--duration", "0.005", "--admission", "token-bucket",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_human_output_mentions_protection(self, capsys):
        assert main([
            "load", "--seed", "7", "--duration", "0.005",
            "--rate-x", "3.2", "--admission", "bounded-queue",
            "--queue-limit", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "overload" in out


class TestLatencyCurve:
    def test_curve_json_replays_across_workers(self, capsys):
        argv = [
            "load", "--seed", "7", "--duration", "0.005",
            "--latency-curve", "0.5,1,2", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--workers", "3"]) == 0
        assert first == capsys.readouterr().out
        payload = json.loads(first)
        assert payload["schema"] == "repro-load-curve/1"
        assert [p["multiplier"] for p in payload["points"]] == [0.5, 1.0, 2.0]

    def test_curve_human_output_tabulates_points(self, capsys):
        assert main([
            "load", "--seed", "7", "--duration", "0.005",
            "--latency-curve", "1,2",
        ]) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "digest" in out

    def test_bad_curve_multipliers_are_one_line_errors(self, capsys):
        for flags in (["--latency-curve", "abc"],
                      ["--latency-curve", "2,1"],
                      ["--latency-curve", "0"]):
            assert main(["load", "--duration", "0.005"] + flags) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert len(err.strip().splitlines()) == 1


class TestSeedsValidation:
    def test_faults_rejects_duplicate_seeds(self, capsys):
        assert main(["faults", "--seeds", "3", "4", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "duplicate" in err
        assert len(err.strip().splitlines()) == 1

    def test_faults_rejects_negative_seeds(self, capsys):
        assert main(["faults", "--seeds", "-2", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "-2" in err

    def test_sweep_rejects_duplicate_seeds(self, capsys):
        assert main([
            "sweep", "--grid", "figure7", "--seeds", "5", "5",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "duplicate" in err

    def test_sweep_rejects_negative_seeds(self, capsys):
        assert main([
            "sweep", "--grid", "figure7", "--seeds", "-1",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_valid_seed_population_still_runs(self, capsys):
        assert main([
            "faults", "--seeds", "3", "4", "--bytes", "8192", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["seed"] for row in payload["seeds"]] == [3, 4]
