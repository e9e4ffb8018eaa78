#!/usr/bin/env python
"""CI gate: diff the new ``BENCH_cluster.json`` against the previous one.

Usage::

    python benchmarks/compare_reports.py \
        --baseline /path/to/previous/BENCH_cluster.json \
        --candidate benchmarks/results/BENCH_cluster.json \
        [--threshold 0.2]

Exits 1 when, on a matching cell, any seeded simulated metric (cluster
throughput, mean queue delay, recovery time, replicated-failover
downtime, replication lag, adaptive F-score, incremental-tuner frame
rescores, ...) differs at all from the baseline, or the host wall-clock
metric (``wall_clock_per_frame_us``) drifts more than ``--threshold``
relative to it; 0 otherwise.  Baselines that cannot be gated against
are not errors — the gate reports why and passes:

* a missing baseline file (first run of a branch);
* a baseline that is unreadable or not valid JSON (a corrupted cache
  entry);
* a baseline whose ``artifact_schema`` stamp differs from the
  candidate's *and* has no migration path (the artifact layout changed
  under it).  Stamps with a migration path — v5/v6 baselines against a
  v7 candidate — are lifted via ``migrate_artifact`` and gated normally.

A broken *candidate* — the artifact this very run just produced — is a
real failure and exits 1 with a clear message.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.regression import (
    DEFAULT_THRESHOLD,
    ArtifactError,
    artifact_schema,
    compare_artifacts,
    load_artifact,
    migrate_artifact,
    validate_artifact_cells,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="previous BENCH_cluster.json")
    parser.add_argument("--candidate", required=True, help="freshly generated BENCH_cluster.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="tolerated relative drift of the wall-clock metric (default 0.2 = 20%%); "
        "simulated metrics are always gated exactly",
    )
    args = parser.parse_args(argv)

    try:
        candidate = load_artifact(args.candidate)
        validate_artifact_cells(candidate)
    except ArtifactError as error:
        print(f"candidate artifact is unusable: {error} — FAIL", file=sys.stderr)
        return 1

    if not Path(args.baseline).is_file():
        print(f"no baseline artifact at {args.baseline}; nothing to gate against — PASS")
        return 0
    try:
        baseline = load_artifact(args.baseline)
    except ArtifactError as error:
        print(f"cached baseline is unusable ({error}); nothing to gate against — PASS")
        return 0

    base_schema, cand_schema = artifact_schema(baseline), artifact_schema(candidate)
    if base_schema != cand_schema:
        migrated = migrate_artifact(baseline)
        if migrated is None:
            print(
                f"baseline artifact schema v{base_schema} != candidate v{cand_schema} "
                "(the artifact layout changed, no migration path); "
                "nothing to gate against — PASS"
            )
            return 0
        print(
            f"baseline artifact schema v{base_schema} migrated to "
            f"v{artifact_schema(migrated)} for gating"
        )
        baseline = migrated

    try:
        result = compare_artifacts(baseline, candidate, threshold=args.threshold)
    except ArtifactError as error:
        print(f"cached baseline is unusable ({error}); nothing to gate against — PASS")
        return 0
    print(result.describe())
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
