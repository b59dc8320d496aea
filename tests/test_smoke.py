"""The CLI smoke driver (scripts/smoke.py): its checks and its runner.

Each row check is fed a minimal payload that breaks exactly one of its
assertions and must fail with that assertion's reason; the runner must
name a row whose exit code or replay bytes are wrong.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "smoke.py"


def _load_smoke():
    spec = importlib.util.spec_from_file_location("smoke", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


smoke = _load_smoke()
ROWS = {row.name: row for row in smoke.ROWS}


def _fails(row, payload, reason):
    with pytest.raises(smoke.SmokeFailure, match=reason):
        ROWS[row].check(payload)


def _overload(rejected=5, shed=0, p99=1.0e6):
    return {
        "overload": {"totals": {"rejected": rejected, "shed": shed},
                     "spec": {"p99_ceiling_ns": 25_000_000.0}},
        "latency_ns": {"p99": p99},
    }


def _verify(rule="CT211", lo=30.0, hi=40.0, covered=True):
    return {"results": [{
        "diagnostics": [{"rule": rule}],
        "bounds": [{"phase": "total", "mbps_lo": lo, "mbps_hi": hi}],
        "estimate_mbps": 38.0,
        "coverage": {"LinkFault": {"covered": True},
                     "NodeFault": {"covered": covered}},
    }]}


def _collectives(small="binomial-tree", hierarchical=True):
    rows = []
    for machine in ("cluster", "xe"):
        for size, algorithm in (("1024", small), ("1048576", "ring")):
            rows.append({
                "id": f"{machine}:broadcast:auto:{size}x16", "op": "broadcast",
                "algorithm": algorithm, "nodes": 16, "ns": 1.0, "mbps": 1.0,
            })
    rows.append({
        "id": "cluster:allreduce:ring:1024x16:seed7", "op": "allreduce",
        "algorithm": "ring", "nodes": 16, "ns": 1.0, "mbps": 1.0,
        "hierarchical": hierarchical,
    })
    return {"results": rows}


class TestRowChecks:
    def test_the_minimal_payloads_pass(self):
        ROWS["load/overload"].check(_overload())
        ROWS["verify/racy"].check(_verify())
        ROWS["collectives/seed7"].check(_collectives())

    def test_overload_must_engage_protection(self):
        _fails("load/overload", _overload(rejected=0, shed=0),
               "protection never engaged")

    def test_overload_p99_must_stay_under_the_ceiling(self):
        _fails("load/overload", _overload(p99=25_000_001.0),
               "exceeds the declared ceiling 25000.0us")

    def test_steady_load_must_complete_requests(self):
        _fails("load/steady", {"latency_ns": {"count": 0}, "completed": 0},
               "completed zero requests")

    def test_curve_needs_four_points(self):
        points = [{"rejected": 1, "shed": 0}] * 3
        _fails("load/curve", {"points": points, "knee_multiplier": None},
               "expected 4 curve points, got 3")

    def test_curve_top_point_must_engage_protection(self):
        points = [{"rejected": 1}] * 3 + [{"rejected": 0, "shed": 0}]
        _fails("load/curve", {"points": points, "knee_multiplier": None},
               "4x point never engaged protection")

    def test_chaos_must_force_the_packing_fallback(self):
        payload = {"degraded": {"fallback": None, "mbps": 1.0},
                   "delta": {"throughput_pct": 20.0}}
        _fails("faults/seed7", payload, "did not force the packing fallback")

    def test_chaos_must_lose_throughput(self):
        payload = {"degraded": {"fallback": {"fallback": "buffer-packing"},
                                "mbps": 1.0},
                   "delta": {"throughput_pct": 0.0}}
        _fails("faults/seed7", payload, "lost no throughput")

    def test_racy_plan_must_report_ct211(self):
        _fails("verify/racy", _verify(rule="CT212"), "no CT211")

    def test_bounds_must_bracket_the_estimate(self):
        _fails("verify/racy", _verify(hi=37.0), "do not bracket 38.0 MB/s")

    def test_every_fault_class_must_be_covered(self):
        _fails("verify/racy", _verify(covered=False),
               r"uncovered fault classes: \['NodeFault'\]")

    def test_trace_phases_must_sum_to_the_transfer(self):
        meta = {"phase_sum_ns": 1.001e6, "transfer_ns": 1.0e6}
        _fails("trace/t3d-chained", {"metadata": meta, "traceEvents": []},
               "phase spans sum to")

    def test_small_broadcast_must_pick_the_binomial_tree(self):
        _fails("collectives/seed7", _collectives(small="ring"),
               "cluster: 1024 B broadcast picked ring, not binomial-tree")

    def test_a_cluster_cell_must_run_hierarchy_aware(self):
        _fails("collectives/seed7", _collectives(hierarchical=False),
               "no cluster cell ran hierarchy-aware")


class TestRunner:
    @pytest.fixture(autouse=True)
    def _out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(smoke, "OUT", tmp_path)

    def test_reports_an_unexpected_exit_code(self, capsys):
        row = smoke.Row("lint/wrong-exit", ("lint", "64C1 o 2C1"), exit=0)
        assert smoke.run([row]) == 1
        line = capsys.readouterr().out.strip()
        assert line.startswith("lint/wrong-exit")
        assert "exited 1, expected 0" in line

    def test_reports_a_replay_that_differs(self, capsys):
        row = smoke.Row("lint/replay", ("lint", "64C1 o 2C1"), exit=1,
                        replay=("--json",))
        assert smoke.run([row]) == 1
        line = capsys.readouterr().out.strip()
        assert line.startswith("lint/replay")
        assert "is not byte-identical" in line

    def test_names_only_known_subsystems(self, capsys):
        assert smoke.main(["nosuch"]) == 2
        assert "unknown subsystem ['nosuch']" in capsys.readouterr().err


def test_rows_reach_schema_tags_through_the_contract():
    assert not re.search(r"repro-[a-z]+(?:-[a-z]+)*/[0-9]+",
                         _SCRIPT.read_text(encoding="utf-8"))
