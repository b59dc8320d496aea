"""Schema validator tests for the verify and lint report payloads."""

import copy

import pytest

from repro.analysis import validate_lint_report, validate_verify_report
from repro.analysis.verify.examples import example_payload
from repro.analysis.verify import SCHEMA


@pytest.fixture()
def racy_payload():
    return example_payload("t3d", "racy")


class TestVerifyReportAccepts:
    @pytest.mark.parametrize("example", ["clean", "racy", "deadlock"])
    @pytest.mark.parametrize("machine", ["t3d", "paragon"])
    def test_example_payloads_validate(self, machine, example):
        payload = example_payload(machine, example)
        assert validate_verify_report(payload) == []
        assert payload["schema"] == SCHEMA
        assert payload["ok"] is (example == "clean")

    def test_counts_tally_the_diagnostics(self, racy_payload):
        total = sum(racy_payload["counts"].values())
        listed = sum(
            len(result["diagnostics"])
            for result in racy_payload["results"]
        )
        assert total == listed
        assert racy_payload["counts"].get("CT211") == 2


class TestVerifyReportRejects:
    def _errors(self, mutate, payload):
        tampered = copy.deepcopy(payload)
        mutate(tampered)
        return validate_verify_report(tampered)

    def test_not_a_dict(self):
        assert validate_verify_report([]) != []

    def test_wrong_schema_id(self, racy_payload):
        errors = self._errors(
            lambda p: p.update(schema="repro-verify-report/999"),
            racy_payload,
        )
        assert errors and any("schema" in e for e in errors)

    def test_non_bool_ok(self, racy_payload):
        assert self._errors(
            lambda p: p.update(ok="false"), racy_payload
        )

    def test_ok_must_match_the_results(self, racy_payload):
        assert self._errors(
            lambda p: p.update(ok=True), racy_payload
        )

    def test_malformed_counts(self, racy_payload):
        assert self._errors(
            lambda p: p.update(counts={"CT211": "two"}), racy_payload
        )

    def test_missing_result_key(self, racy_payload):
        assert self._errors(
            lambda p: p["results"][0].pop("estimate_mbps"), racy_payload
        )

    def test_unexpected_result_key(self, racy_payload):
        assert self._errors(
            lambda p: p["results"][0].update(extra=1), racy_payload
        )

    def test_inverted_bounds(self, racy_payload):
        def invert(payload):
            row = payload["results"][0]["bounds"][0]
            row["mbps_lo"], row["mbps_hi"] = (
                row["mbps_hi"] + 1.0,
                row["mbps_lo"],
            )

        assert self._errors(invert, racy_payload)

    def test_uncovered_class_needs_a_reason(self, racy_payload):
        def drop_reason(payload):
            coverage = payload["results"][0]["coverage"]
            name = sorted(coverage)[0]
            coverage[name] = {"covered": False, "reason": None}

        assert self._errors(drop_reason, racy_payload)


class TestLintReport:
    def _payload(self):
        from repro.analysis import analyze, has_errors, parse_expr

        expr = parse_expr("64C1 o 2C1")
        diagnostics = analyze(expr)
        return {
            "schema": "repro-lint-report/1",
            "results": [
                {
                    "notation": expr.notation(),
                    "diagnostics": [d.to_dict() for d in diagnostics],
                }
            ],
            "counts": {
                severity: sum(
                    1
                    for d in diagnostics
                    if d.severity.value == severity
                )
                for severity in ("error", "warning", "advice")
            },
            "ok": not has_errors(diagnostics),
        }

    def test_lint_payload_validates(self):
        payload = self._payload()
        assert validate_lint_report(payload) == []
        assert payload["schema"] == "repro-lint-report/1"
        assert payload["ok"] is False  # CT101 is an error

    def test_lint_counts_cross_check(self):
        payload = self._payload()
        tampered = copy.deepcopy(payload)
        tampered["counts"]["error"] += 1
        assert validate_lint_report(tampered)

    def test_lint_rejects_foreign_schema(self):
        payload = self._payload()
        payload["schema"] = "repro-verify-report/1"
        assert validate_lint_report(payload)
