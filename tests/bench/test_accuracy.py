"""Tests for the model-accuracy assessment (repro.bench.accuracy)."""

import pytest

from repro.bench.accuracy import AccuracyCase, AccuracyReport, model_accuracy
from repro.core.operations import OperationStyle


def make_case(model, measured, operation="1Q1", style=OperationStyle.CHAINED):
    return AccuracyCase(
        operation=operation, style=style, model_mbps=model, measured_mbps=measured
    )


class TestReportStatistics:
    def test_ratio(self):
        assert make_case(40.0, 30.0).ratio == pytest.approx(0.75)

    def test_mean_and_worst(self):
        report = AccuracyReport(
            machine="x",
            cases=(make_case(10, 9), make_case(10, 5), make_case(10, 10)),
            ranking_agreements=3,
            ranking_total=3,
        )
        assert report.mean_ratio == pytest.approx(0.8)
        assert report.worst_overprediction == pytest.approx(0.5)
        assert report.overshoot_cases == 0
        assert report.ranking_accuracy == 1.0

    def test_overshoot_counted(self):
        report = AccuracyReport(
            machine="x",
            cases=(make_case(10, 12),),
            ranking_agreements=1,
            ranking_total=1,
        )
        assert report.overshoot_cases == 1

    def test_render(self):
        report = AccuracyReport(
            machine="Cray T3D",
            cases=(make_case(10, 8),),
            ranking_agreements=1,
            ranking_total=1,
        )
        text = report.render()
        assert "Cray T3D" in text
        assert "0.80" in text


class TestAssessment:
    def test_small_assessment_runs(self, t3d_machine):
        report = model_accuracy(t3d_machine, nbytes=32 * 1024)
        assert len(report.cases) == 32  # 4x4 grid x 2 styles
        assert report.ranking_total == 16
        assert 0 < report.mean_ratio <= 1.05

    def test_model_upper_bounds_measurements(self, t3d_machine):
        report = model_accuracy(t3d_machine, nbytes=32 * 1024)
        assert report.overshoot_cases <= 1

    def test_rankings_consistent(self, t3d_machine):
        report = model_accuracy(t3d_machine, nbytes=32 * 1024)
        assert report.ranking_accuracy == 1.0

    def test_infeasible_style_is_skipped_and_reported(self):
        from repro.machines.registry import MACHINE_FACTORIES

        machine = MACHINE_FACTORIES["t3d-contiguous-deposits"]()
        report = model_accuracy(machine, nbytes=32 * 1024)
        assert report.skipped, "strided deposits cannot be chained here"
        skipped_ops = {operation for operation, __, __ in report.skipped}
        assert all(reason for __, __, reason in report.skipped)
        # Every grid cell is either measured or skipped, never both.
        measured = {(case.operation, case.style) for case in report.cases}
        skipped = {(operation, style) for operation, style, __ in report.skipped}
        assert not measured & skipped
        assert len(measured) + len(skipped) == 32
        # A pair missing a style cannot be ranked.
        assert report.ranking_total == 16 - len(skipped_ops)
        text = report.render()
        assert f"skipped {len(report.skipped)} infeasible cells" in text
        assert all(operation in text for operation in skipped_ops)
