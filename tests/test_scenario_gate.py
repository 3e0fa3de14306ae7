"""The CI scenario-sweep gate: per-scenario recall/ReID-budget
thresholds against the committed ``scenario_matrix.json`` baseline,
definition-drift detection, and the acceptance tamper test (a synthetic
10% single-scenario regression must fail the gate)."""

import json
from pathlib import Path

import pytest

from repro.experiments.__main__ import main
from repro.experiments.scenarios import (
    gate_matrix,
    load_matrix,
)

BASELINE_PATH = (
    Path(__file__).parent.parent
    / "benchmarks"
    / "results"
    / "scenario_matrix.json"
)


def _gate_files(current_path, baseline_path) -> list[str]:
    return gate_matrix(load_matrix(current_path), load_matrix(baseline_path))


def _document(**overrides) -> dict:
    record = dict(
        scenario_id="abc123def456",
        recall=0.80,
        reid_budget=1000,
    )
    record.update(overrides)
    return {
        "schema": 1,
        "mode": "smoke",
        "seed": 0,
        "scenarios": {"s": record},
    }


class TestGateMatrix:
    def test_identical_documents_pass(self):
        assert gate_matrix(_document(), _document()) == []

    def test_recall_within_tolerance_passes(self):
        assert gate_matrix(_document(recall=0.77), _document()) == []

    def test_recall_regression_fails(self):
        failures = gate_matrix(_document(recall=0.72), _document())
        assert len(failures) == 1
        assert "s: recall regressed" in failures[0]

    def test_budget_growth_within_tolerance_passes(self):
        assert gate_matrix(_document(reid_budget=1040), _document()) == []

    def test_budget_regression_fails(self):
        failures = gate_matrix(_document(reid_budget=1100), _document())
        assert len(failures) == 1
        assert "s: reid_budget regressed" in failures[0]

    def test_missing_scenario_fails(self):
        current = _document()
        current["scenarios"] = {}
        failures = gate_matrix(current, _document())
        assert failures == ["s: present in baseline but missing from this run"]

    def test_new_scenario_passes(self):
        current = _document()
        current["scenarios"]["brand-new"] = dict(
            scenario_id="0123456789ab", recall=0.1, reid_budget=10**6
        )
        assert gate_matrix(current, _document()) == []

    def test_definition_drift_fails_without_comparing_metrics(self):
        # The id moved AND the metrics tanked: only drift is reported —
        # comparing metrics across definitions would be meaningless.
        current = _document(
            scenario_id="feedfacefeed", recall=0.0, reid_budget=10**6
        )
        failures = gate_matrix(current, _document())
        assert len(failures) == 1
        assert "definition drift" in failures[0]
        assert "refresh the baseline" in failures[0]

    def test_mode_mismatch_fails_the_whole_comparison(self):
        current = _document()
        current["mode"] = "full"
        failures = gate_matrix(current, _document())
        assert len(failures) == 1
        assert "mode mismatch" in failures[0]

    def test_seed_mismatch_fails_the_whole_comparison(self):
        current = _document()
        current["seed"] = 99
        failures = gate_matrix(current, _document())
        assert "seed mismatch" in failures[0]

    def test_tolerance_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            gate_matrix(_document(), _document(), tolerance=1.5)

    def test_zero_tolerance_is_exact(self):
        nudged = _document(recall=0.80 - 1e-9)
        assert gate_matrix(nudged, _document(), tolerance=0.0) != []


class TestGateAgainstCommittedBaseline:
    """The acceptance tamper test, against the real committed matrix."""

    def test_committed_baseline_gates_itself(self):
        assert _gate_files(BASELINE_PATH, BASELINE_PATH) == []

    def _tampered(
        self, tmp_path, factor, metric, name="mot17-clear"
    ) -> Path:
        document = json.loads(BASELINE_PATH.read_text())
        document["scenarios"][name][metric] *= factor
        path = tmp_path / "tampered_matrix.json"
        path.write_text(json.dumps(document))
        return path

    def test_ten_percent_recall_drop_in_one_scenario_fails(self, tmp_path):
        tampered = self._tampered(tmp_path, 0.90, "recall")
        failures = _gate_files(tampered, BASELINE_PATH)
        assert len(failures) == 1
        assert "mot17-clear: recall regressed" in failures[0]

    def test_ten_percent_budget_growth_in_one_scenario_fails(self, tmp_path):
        tampered = self._tampered(tmp_path, 1.10, "reid_budget")
        failures = _gate_files(tampered, BASELINE_PATH)
        assert len(failures) == 1
        assert "mot17-clear: reid_budget regressed" in failures[0]

    def test_three_percent_drift_passes(self, tmp_path):
        tampered = self._tampered(tmp_path, 0.97, "recall")
        assert _gate_files(tampered, BASELINE_PATH) == []

    def test_scenario_id_drift_fails(self, tmp_path):
        document = json.loads(BASELINE_PATH.read_text())
        document["scenarios"]["mot17-clear"]["scenario_id"] = "deadbeef0000"
        path = tmp_path / "drifted_matrix.json"
        path.write_text(json.dumps(document))
        failures = _gate_files(path, BASELINE_PATH)
        assert len(failures) == 1
        assert "definition drift" in failures[0]

    def test_baseline_is_at_smoke_scale(self):
        # CI regenerates the matrix with --smoke; the committed baseline
        # must be comparable or every sweep would fail on mode mismatch.
        document = load_matrix(BASELINE_PATH)
        assert document["mode"] == "smoke"
        assert document["seed"] == 0
        assert len(document["scenarios"]) >= 20


class TestGateCli:
    """End-to-end exit codes of ``scenarios --gate`` on a one-scenario
    sweep (kept tiny: each invocation really runs the sweep)."""

    ONLY = ("mot17-clear",)

    @pytest.fixture(scope="class")
    def mini_baseline(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("gate") / "mini_baseline.json"
        status = main(
            [
                "scenarios",
                "--smoke",
                "--only",
                *self.ONLY,
                "--matrix-out",
                str(path),
            ]
        )
        assert status == 0
        return path

    def test_cli_gate_passes_against_its_own_baseline(
        self, mini_baseline, tmp_path, capsys
    ):
        status = main(
            [
                "scenarios",
                "--smoke",
                "--only",
                *self.ONLY,
                "--matrix-out",
                str(tmp_path / "current.json"),
                "--matrix-baseline",
                str(mini_baseline),
                "--gate",
            ]
        )
        assert status == 0
        assert "scenario gate: OK" in capsys.readouterr().out

    def test_cli_gate_fails_against_a_tampered_baseline(
        self, mini_baseline, tmp_path, capsys
    ):
        document = json.loads(mini_baseline.read_text())
        record = document["scenarios"][self.ONLY[0]]
        record["recall"] = min(1.0, record["recall"]) * 1.25
        tampered = tmp_path / "tampered_baseline.json"
        tampered.write_text(json.dumps(document))
        status = main(
            [
                "scenarios",
                "--smoke",
                "--only",
                *self.ONLY,
                "--matrix-out",
                str(tmp_path / "current.json"),
                "--matrix-baseline",
                str(tampered),
                "--gate",
            ]
        )
        assert status == 1
        printed = capsys.readouterr().out
        assert "scenario gate: FAIL" in printed
        assert "recall regressed" in printed
