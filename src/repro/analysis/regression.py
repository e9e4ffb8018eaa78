"""Perf-regression gating over benchmark artifacts.

``benchmarks/results/BENCH_cluster.json`` is the machine-readable perf
trajectory CI uploads per commit.  :func:`compare_artifacts` diffs two
of those artifacts — the previous run's and the candidate's — cell by
cell and reports every seeded simulated metric that moved at all and
every wall-clock metric that drifted past a threshold, so a behavioural
change that silently shifts cluster throughput fails CI instead of landing.

Cells are matched by section and axis assignment (``scaleout`` cells by
``(edges, placement)``, ``cloud_contention`` by ``cloud_servers``, and
so on); cells present in only one artifact are reported as added/removed
but never fail the gate — growing the grid is not a regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

#: Artifact sections and the axis keys that identify a cell within them.
SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "scaleout": ("edges", "placement"),
    "cloud_contention": ("cloud_servers",),
    "migration": ("placement",),
    "txn_policies": ("transaction_policy",),
    "failure_recovery": ("checkpoint_interval_s",),
    "resharding": ("moves",),
    "open_loop": ("label",),
    "scale_stress": ("label",),
    "replication": ("replication_factor", "replication_mode"),
    "geo": ("cross_region_policy", "placement"),
    "adaptive": ("label",),
}

#: Version stamp of the ``BENCH_cluster.json`` layout.  Bumped when the
#: cell schema changes incompatibly; the CI gate first tries
#: :func:`migrate_artifact` on an older baseline and only treats it like
#: a missing baseline (nothing to compare against) when no migration
#: path exists.  v6 added the ``geo`` section; v7 the ``adaptive`` one.
ARTIFACT_SCHEMA = 7


class ArtifactError(ValueError):
    """A benchmark artifact cannot be read or does not look like one."""

#: Metrics the gate watches.  ``throughput_fps`` and
#: ``mean_queue_delay_ms`` come from the legacy summary keys every cell
#: carries; ``recovery_time_ms`` only exists on ``failure_recovery``
#: cells, ``goodput_fps`` and ``shed_rate`` only on ``open_loop`` cells,
#: ``wall_clock_per_frame_us`` only on ``scale_stress`` cells, and
#: ``downtime_ms``/``replication_lag_ms`` only on ``replication`` cells
#: (cells missing a metric are simply not gated on it); ``f_score`` and
#: ``tuner_frame_rescores`` only exist on ``adaptive`` cells — the
#: latter gates the incremental tuner's work bound.  Movement in either
#: direction is suspect: the simulated metrics of a seeded benchmark do
#: not move at all without a behavioural change, so they are gated
#: exactly; only :data:`WALL_CLOCK_METRICS` get the drift threshold, and
#: a larger move there means the engine hot path got materially slower
#: (or suspiciously faster) on the same machine.
GATED_METRICS = (
    "throughput_fps",
    "mean_queue_delay_ms",
    "recovery_time_ms",
    "goodput_fps",
    "shed_rate",
    "wall_clock_per_frame_us",
    "downtime_ms",
    "replication_lag_ms",
    "wan_round_trips_per_txn",
    "cross_region_p99_ms",
    "f_score",
    "tuner_frame_rescores",
)

#: Gated metrics measured in host time: the only ones allowed to drift.
WALL_CLOCK_METRICS = frozenset({"wall_clock_per_frame_us"})

#: Default tolerated relative drift of the wall-clock metrics (20%).
DEFAULT_THRESHOLD = 0.2


@dataclass(frozen=True)
class MetricDrift:
    """One gated metric moving between two artifacts."""

    section: str
    cell: tuple[Any, ...]
    metric: str
    baseline: float
    candidate: float
    tolerance: float = 0.0

    @property
    def relative_drift(self) -> float:
        """|candidate - baseline| / |baseline| (1.0 when baseline is 0)."""
        if self.baseline == 0.0:
            return 0.0 if self.candidate == 0.0 else 1.0
        return abs(self.candidate - self.baseline) / abs(self.baseline)

    def describe(self) -> str:
        return (
            f"{self.section}{list(self.cell)}: {self.metric} "
            f"{self.baseline:.3f} -> {self.candidate:.3f} "
            f"({self.relative_drift:+.1%} drift, {self.tolerance:.0%} allowed)"
        )


@dataclass
class ComparisonResult:
    """Outcome of diffing a candidate artifact against a baseline."""

    threshold: float
    compared_cells: int = 0
    regressions: list[MetricDrift] = field(default_factory=list)
    added_cells: list[str] = field(default_factory=list)
    removed_cells: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        lines = [
            f"compared {self.compared_cells} cells: simulated metrics exact, "
            f"wall clock at {self.threshold:.0%} drift threshold"
        ]
        for drift in self.regressions:
            lines.append(f"REGRESSION {drift.describe()}")
        for name in self.added_cells:
            lines.append(f"new cell (not gated): {name}")
        for name in self.removed_cells:
            lines.append(f"cell dropped from candidate: {name}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _index_cells(
    artifact: Mapping[str, Any]
) -> dict[tuple[str, tuple[Any, ...]], Mapping[str, Any]]:
    if not isinstance(artifact, Mapping):
        raise ArtifactError(
            f"artifact must be a JSON object, got {type(artifact).__name__}"
        )
    cells: dict[tuple[str, tuple[Any, ...]], Mapping[str, Any]] = {}
    for section, keys in SECTION_KEYS.items():
        entries = artifact.get(section, ())
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise ArtifactError(f"artifact section {section!r} must be a list")
        for index, cell in enumerate(entries):
            if not isinstance(cell, Mapping):
                raise ArtifactError(
                    f"artifact cell {section}[{index}] must be an object, "
                    f"got {type(cell).__name__}"
                )
            identity = tuple(cell.get(key) for key in keys)
            cells[(section, identity)] = cell
    return cells


def compare_artifacts(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    metrics: Sequence[str] = GATED_METRICS,
) -> ComparisonResult:
    """Diff two ``BENCH_cluster.json`` payloads; collect gated drifts
    (any change, or more than ``threshold`` for wall-clock metrics)."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    result = ComparisonResult(threshold=threshold)
    base_cells = _index_cells(baseline)
    cand_cells = _index_cells(candidate)

    for key in sorted(set(base_cells) - set(cand_cells), key=repr):
        result.removed_cells.append(f"{key[0]}{list(key[1])}")
    for key in sorted(set(cand_cells) - set(base_cells), key=repr):
        result.added_cells.append(f"{key[0]}{list(key[1])}")

    for key in sorted(set(base_cells) & set(cand_cells), key=repr):
        section, identity = key
        base_cell, cand_cell = base_cells[key], cand_cells[key]
        result.compared_cells += 1
        for metric in metrics:
            if metric not in base_cell or metric not in cand_cell:
                continue
            drift = MetricDrift(
                section=section,
                cell=identity,
                metric=metric,
                baseline=float(base_cell[metric]),
                candidate=float(cand_cell[metric]),
                tolerance=threshold if metric in WALL_CLOCK_METRICS else 0.0,
            )
            if drift.relative_drift > drift.tolerance:
                result.regressions.append(drift)
    return result


def load_artifact(path: str | Path) -> Mapping[str, Any]:
    """Read one benchmark artifact; :class:`ArtifactError` on anything bad.

    Folds the whole failure surface (unreadable file, invalid JSON, a
    payload that is not an object) into one typed error so callers — the
    CI gate above all — can report it cleanly instead of dying on a
    traceback.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ArtifactError(f"cannot read artifact {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ArtifactError(f"artifact {path} is not valid JSON: {error}") from error
    if not isinstance(payload, Mapping):
        raise ArtifactError(
            f"artifact {path} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def validate_artifact_cells(payload: Mapping[str, Any]) -> None:
    """Structural check of an artifact's gated sections.

    Raises :class:`ArtifactError` when a known section is not a list of
    cell objects; unknown sections are ignored.
    """
    _index_cells(payload)


def artifact_schema(payload: Mapping[str, Any]) -> int:
    """Schema stamp of an artifact (1 for artifacts that predate stamps)."""
    stamp = payload.get("artifact_schema", 1)
    return stamp if isinstance(stamp, int) and not isinstance(stamp, bool) else 1


def migrate_artifact(payload: Mapping[str, Any]) -> Mapping[str, Any] | None:
    """Lift an older artifact to the current schema, or ``None``.

    The supported steps are v5 -> v7 and v6 -> v7: v6 added the ``geo``
    section and v7 the ``adaptive`` section, and each older baseline is
    a valid newer artifact with those cells absent, so both migrations
    are re-stamps (the diff then reports the new cells as added, which
    never fails the gate).  Anything older than v5 has no migration
    path — the cell layouts genuinely diverged — and the gate falls
    back to treating it as a missing baseline.
    """
    version = artifact_schema(payload)
    if version == ARTIFACT_SCHEMA:
        return payload
    if version in (5, 6):
        migrated = dict(payload)
        migrated["artifact_schema"] = ARTIFACT_SCHEMA
        return migrated
    return None


def compare_artifact_files(
    baseline_path: str | Path,
    candidate_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> ComparisonResult:
    """File-level wrapper around :func:`compare_artifacts`."""
    baseline = load_artifact(baseline_path)
    candidate = load_artifact(candidate_path)
    return compare_artifacts(baseline, candidate, threshold=threshold)
