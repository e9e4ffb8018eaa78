"""Tests for the benchmark perf-regression gate (analysis/regression.py)."""

import json

import pytest

from repro.analysis.regression import (
    ARTIFACT_SCHEMA,
    DEFAULT_THRESHOLD,
    GATED_METRICS,
    WALL_CLOCK_METRICS,
    compare_artifact_files,
    compare_artifacts,
    migrate_artifact,
)


def _artifact(throughput: float, queue_delay: float, edges: int = 2) -> dict:
    return {
        "seed": 2022,
        "scaleout": [
            {
                "edges": edges,
                "placement": "round-robin",
                "throughput_fps": throughput,
                "mean_queue_delay_ms": queue_delay,
                "f_score": 0.9,
            }
        ],
        "cloud_contention": [
            {"cloud_servers": 2, "throughput_fps": throughput, "mean_queue_delay_ms": queue_delay}
        ],
    }


def _stress_artifact(wall_clock_us: float, throughput: float = 40.0) -> dict:
    """One scale-stress cell: a wall-clock metric next to a simulated one."""
    return {
        "scale_stress": [
            {
                "label": "smoke",
                "wall_clock_per_frame_us": wall_clock_us,
                "throughput_fps": throughput,
            }
        ]
    }


def _cell(section: str, **metrics: float) -> dict:
    """A one-cell artifact of ``section`` carrying ``metrics``."""
    identity = {
        "adaptive": {"label": "retune"},
        "replication": {"replication_factor": 2, "replication_mode": "sync"},
    }[section]
    return {section: [{**identity, **metrics}]}


class TestCompareArtifacts:
    def test_identical_artifacts_pass(self):
        artifact = _artifact(10.0, 500.0)
        result = compare_artifacts(artifact, artifact)
        assert result.passed
        assert result.compared_cells == 2
        assert "PASS" in result.describe()

    def test_small_drift_within_threshold_passes(self):
        """Wall clock may drift up to the threshold on the same seed."""
        result = compare_artifacts(_stress_artifact(24.0), _stress_artifact(27.0))
        assert result.passed
        assert compare_artifacts(_stress_artifact(24.0), _stress_artifact(20.0)).passed

    def test_throughput_collapse_fails(self):
        result = compare_artifacts(_artifact(10.0, 500.0), _artifact(5.0, 500.0))
        assert not result.passed
        assert any(d.metric == "throughput_fps" for d in result.regressions)
        assert "FAIL" in result.describe()

    def test_queue_delay_blowup_fails(self):
        result = compare_artifacts(_artifact(10.0, 500.0), _artifact(10.0, 800.0))
        assert not result.passed
        drift = result.regressions[0]
        assert drift.metric == "mean_queue_delay_ms"
        assert drift.relative_drift == pytest.approx(0.6)

    def test_custom_threshold(self):
        baseline, candidate = _stress_artifact(10.0), _stress_artifact(8.9)
        assert compare_artifacts(baseline, candidate, threshold=0.2).passed
        assert not compare_artifacts(baseline, candidate, threshold=0.1).passed
        with pytest.raises(ValueError):
            compare_artifacts(baseline, candidate, threshold=0.0)

    def test_added_and_removed_cells_do_not_fail_the_gate(self):
        """Growing (or pruning) the grid is not a perf regression."""
        result = compare_artifacts(_artifact(10.0, 500.0, edges=2), _artifact(10.0, 500.0, edges=4))
        assert result.passed
        assert result.added_cells and result.removed_cells
        assert result.compared_cells == 1  # the cloud_contention cell still matches

    def test_adaptive_cell_gates_f_score_and_tuner_rescores(self):
        """The v7 ``adaptive`` section is matched by label and gated on
        F-score drift and incremental-tuner work blowups."""

        def adaptive_artifact(f_score: float, rescores: float) -> dict:
            return {
                "adaptive": [
                    {
                        "label": "retune",
                        "f_score": f_score,
                        "tuner_frame_rescores": rescores,
                    }
                ]
            }

        baseline = adaptive_artifact(0.9, 1000.0)
        assert compare_artifacts(baseline, adaptive_artifact(0.9, 1000.0)).passed
        dropped = compare_artifacts(baseline, adaptive_artifact(0.6, 1000.0))
        assert any(d.metric == "f_score" for d in dropped.regressions)
        blowup = compare_artifacts(baseline, adaptive_artifact(0.9, 8000.0))
        assert any(d.metric == "tuner_frame_rescores" for d in blowup.regressions)

    def test_wall_clock_blowup_past_the_threshold_fails(self):
        result = compare_artifacts(_stress_artifact(24.0), _stress_artifact(30.0))
        assert [d.metric for d in result.regressions] == ["wall_clock_per_frame_us"]
        assert result.regressions[0].tolerance == DEFAULT_THRESHOLD

    @pytest.mark.parametrize(
        "baseline, candidate",
        [
            (_artifact(10.0, 500.0), _artifact(9.9, 500.0)),  # throughput_fps
            (_artifact(10.0, 500.0), _artifact(10.0, 500.001)),  # mean_queue_delay_ms
            (_cell("adaptive", f_score=0.9), _cell("adaptive", f_score=0.9000001)),
            (
                _cell("adaptive", tuner_frame_rescores=1000),
                _cell("adaptive", tuner_frame_rescores=999),
            ),
            (_cell("replication", downtime_ms=12.5), _cell("replication", downtime_ms=12.6)),
            (_stress_artifact(24.0, throughput=40.0), _stress_artifact(24.0, throughput=40.1)),
        ],
    )
    def test_seeded_simulated_metrics_are_gated_exactly(self, baseline, candidate):
        """A seeded metric that moves at all — even far inside the
        wall-clock threshold, and in the better direction — fails."""
        result = compare_artifacts(baseline, candidate, threshold=0.5)
        assert not result.passed
        assert all(d.metric not in WALL_CLOCK_METRICS for d in result.regressions)
        assert all(d.tolerance == 0.0 for d in result.regressions)

    def test_only_wall_clock_metrics_get_a_tolerance(self):
        assert WALL_CLOCK_METRICS == {"wall_clock_per_frame_us"}
        assert WALL_CLOCK_METRICS <= set(GATED_METRICS)

    def test_zero_baseline_is_only_flagged_when_candidate_moves(self):
        baseline = _artifact(0.0, 0.0)
        assert compare_artifacts(baseline, _artifact(0.0, 0.0)).passed
        assert not compare_artifacts(baseline, _artifact(3.0, 0.0)).passed

    def test_file_level_wrapper(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        candidate_path = tmp_path / "candidate.json"
        baseline_path.write_text(json.dumps(_artifact(10.0, 500.0)))
        candidate_path.write_text(json.dumps(_artifact(10.0, 500.0)))
        result = compare_artifact_files(baseline_path, candidate_path)
        assert result.passed
        assert result.threshold == DEFAULT_THRESHOLD


class TestMigrateArtifact:
    def test_current_schema_passes_through_unchanged(self):
        artifact = {**_artifact(10.0, 500.0), "artifact_schema": ARTIFACT_SCHEMA}
        assert migrate_artifact(artifact) is artifact

    def test_v5_is_restamped_to_current(self):
        """A v5 baseline is a valid v7 artifact with no geo/adaptive cells."""
        v5 = {**_artifact(10.0, 500.0), "artifact_schema": 5}
        migrated = migrate_artifact(v5)
        assert migrated is not None
        assert migrated["artifact_schema"] == ARTIFACT_SCHEMA
        assert migrated["scaleout"] == v5["scaleout"]
        assert v5["artifact_schema"] == 5  # the input is not mutated

    def test_v6_is_restamped_to_current(self):
        """A v6 baseline is a valid v7 artifact with no adaptive cells."""
        v6 = {**_artifact(10.0, 500.0), "artifact_schema": 6}
        migrated = migrate_artifact(v6)
        assert migrated is not None
        assert migrated["artifact_schema"] == ARTIFACT_SCHEMA
        assert migrated["scaleout"] == v6["scaleout"]
        assert v6["artifact_schema"] == 6  # the input is not mutated

    def test_older_schemas_have_no_migration_path(self):
        for version in (1, 2, 3, 4):
            assert migrate_artifact({**_artifact(10.0, 500.0), "artifact_schema": version}) is None
        assert migrate_artifact(_artifact(10.0, 500.0)) is None  # pre-stamp == v1


class TestCompareReportsScript:
    """The CI entry point in benchmarks/compare_reports.py."""

    @pytest.fixture()
    def script_main(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "compare_reports.py"
        module_spec = importlib.util.spec_from_file_location("compare_reports", path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module.main

    def test_missing_baseline_passes(self, script_main, tmp_path, capsys):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(_artifact(10.0, 500.0)))
        code = script_main(
            ["--baseline", str(tmp_path / "absent.json"), "--candidate", str(candidate)]
        )
        assert code == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, script_main, tmp_path):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps(_artifact(10.0, 500.0)))
        candidate.write_text(json.dumps(_artifact(4.0, 500.0)))
        code = script_main(["--baseline", str(baseline), "--candidate", str(candidate)])
        assert code == 1

    def test_clean_candidate_exits_zero(self, script_main, tmp_path):
        """Same seeded metrics, wall clock within the threshold."""
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps({**_artifact(10.0, 500.0), **_stress_artifact(24.0)}))
        candidate.write_text(json.dumps({**_artifact(10.0, 500.0), **_stress_artifact(26.0)}))
        code = script_main(["--baseline", str(baseline), "--candidate", str(candidate)])
        assert code == 0

    def test_any_seeded_metric_change_exits_nonzero(self, script_main, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps(_artifact(10.0, 500.0)))
        candidate.write_text(json.dumps(_artifact(10.5, 480.0)))
        code = script_main(
            ["--baseline", str(baseline), "--candidate", str(candidate), "--threshold", "0.5"]
        )
        assert code == 1
        assert "0% allowed" in capsys.readouterr().out

    def test_v5_baseline_is_migrated_and_still_gates(self, script_main, tmp_path, capsys):
        """A migratable baseline is lifted, then gated for real: a clean
        candidate passes, a collapsed one still fails."""
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps({**_artifact(10.0, 500.0), "artifact_schema": 5}))
        candidate.write_text(
            json.dumps({**_artifact(10.0, 500.0), "artifact_schema": ARTIFACT_SCHEMA})
        )
        assert script_main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 0
        assert "migrated to" in capsys.readouterr().out

        candidate.write_text(
            json.dumps({**_artifact(4.0, 500.0), "artifact_schema": ARTIFACT_SCHEMA})
        )
        assert script_main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 1

    def test_unmigratable_schema_mismatch_passes_with_notice(self, script_main, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps({**_artifact(10.0, 500.0), "artifact_schema": 2}))
        candidate.write_text(
            json.dumps({**_artifact(4.0, 500.0), "artifact_schema": ARTIFACT_SCHEMA})
        )
        assert script_main(["--baseline", str(baseline), "--candidate", str(candidate)]) == 0
        assert "no migration path" in capsys.readouterr().out
