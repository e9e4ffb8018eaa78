"""Host-cost benchmark of the Croesus simulator, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-closed --seed 2022 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all  # every workload, one process each

One invocation is one single-threaded process on one workload (see
``perfbench/workloads.py``).  One *op* runs every spec of the workload
once through ``repro.experiments.run`` and checks every report; the
cold first op, any op that raises or fails a check, and (on
``paper-closed``) the MS-SR/MS-IA history audit all count in
``attempted``/``failed``.  Simulated aborts and sheds are modelled
outcomes, not failures.

``--trace 0`` measures the end-to-end metrics:

* ``host_rel_per_frame`` -- median over warm ops of the op's host cost
  per simulated frame in units of a fixed pure-Python reference loop:
  each spec's wall time is divided by the reference loop run just
  before it (one runs at least every ``REFERENCE_EVERY_S`` of work), so
  the shared host's speed, which drifts by tens of percent between and
  within runs, cancels;
* ``peak_rss_mb`` -- the process's ``ru_maxrss`` after the timed ops;
* ``setup_s`` -- median over several fresh processes of the time from
  process start (before ``import repro``) to the first timed op: the
  import, building the specs and one cold op.

The table also prints ``host_us_per_frame`` (median over warm ops of op
wall time divided by the op's simulated frames) and
``failed_op_fraction``; they are not in the JSON result because the raw
time tracks the host's drift and the fraction is 0 on a correct run.

``--trace 1`` makes a separate run for the per-layer metrics: cProfile
self time per ``repro`` package, boundary call counts per simulated
frame, the modelled statistics of the reports and their digest, the
audit time, and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable table with sample counts, quartiles and the interleaved
reference-loop timings.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probes import LAYERS, BoundaryCounters, layer_self_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes whose set-up time is sampled per run (this one included).
SETUP_SAMPLES = 3
#: Fewest warm ops a timed loop makes, however long each takes.
MIN_OPS = 2
#: Iterations of the reference loop (about 30 ms of interpreter work).
REFERENCE_STEPS = 40_000
#: Most op wall time between two reference loops, in seconds.
REFERENCE_EVERY_S = 0.2
#: Length of the one MS-SR history the audit checks.
AUDIT_MS_SR_FRAMES = 40
#: Share of ``--seconds`` a traced run spends untraced and under cProfile.
TRACE_SPLIT = (0.4, 0.4)


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, step: int) -> int:
        self.value = (self.value * 31 + step) % 1_000_003
        return self.value


def reference_loop() -> float:
    """Wall time of a fixed mix of dict, heap, attribute and call work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    heap: list[int] = []
    slot = _Slot(7)
    total = 0
    for step in range(REFERENCE_STEPS):
        value = slot.bump(step)
        table[value & 1023] = step
        total += table.get(step & 1023, 0) & 15
        heapq.heappush(heap, value)
        if len(heap) > 64:
            total ^= heapq.heappop(heap)
    return time.perf_counter() - start


class Bench:
    """One workload's specs, its ops and their output checks."""

    def __init__(self, workload, seed: int) -> None:
        from repro.experiments import ScenarioSpec

        self.workload = workload
        self.specs = [ScenarioSpec.from_dict(payload) for payload in workload.specs(seed)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_digest: str | None = None
        self.reports: list = []

    def run_op(self, profiler: cProfile.Profile | None = None):
        """Run every spec once, interleaving reference loops.

        Returns (wall seconds in ``run``, frames, wall in reference-loop
        units, reference loop seconds), or None when the op raised or
        failed a check."""
        from repro.experiments import run

        self.attempted += 1
        wall = 0.0
        relative = 0.0
        references: list[float] = []
        since_reference = REFERENCE_EVERY_S
        reports = []
        try:
            for spec in self.specs:
                if since_reference >= REFERENCE_EVERY_S:
                    references.append(reference_loop())
                    since_reference = 0.0
                start = time.perf_counter()
                if profiler is not None:
                    profiler.enable()
                try:
                    report = run(spec)
                finally:
                    if profiler is not None:
                        profiler.disable()
                spent = time.perf_counter() - start
                wall += spent
                since_reference += spent
                relative += spent / references[-1]
                reports.append(report)
            problems = self.check(reports)
        except Exception as error:  # an op that raises is a failed op
            problems = [f"op raised {type(error).__name__}: {error}"]
        if problems:
            self.fail(problems)
            return None
        if self.reference_digest is None:
            self.reports = reports
            self.reference_digest = digest(reports)
        return wall, sum(report.frames for report in reports), relative, references

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def check(self, reports: list) -> list[str]:
        from repro.experiments import ReportSchemaError, validate_report

        problems = []
        for index, (spec, report) in enumerate(zip(self.specs, reports)):
            name = f"spec {index} (seed {spec.seed})"
            try:
                validate_report(report.to_dict())
            except ReportSchemaError as error:
                problems.append(f"{name}: invalid report: {error}")
            if report.edges:
                processed = sum(edge["frames_processed"] for edge in report.edges)
                if processed != report.frames:
                    problems.append(
                        f"{name}: edges processed {processed} frames, report has {report.frames}"
                    )
            if self.workload.closed_loop:
                expected = report.streams * spec.frames
                if report.frames != expected or report.streams != (
                    1 if spec.deployment == "single" else spec.streams
                ):
                    problems.append(
                        f"{name}: {report.streams} streams x {report.frames} frames, "
                        f"expected {expected}"
                    )
            if report.frames <= 0:
                problems.append(f"{name}: no frames")
        if self.reference_digest is not None and digest(reports) != self.reference_digest:
            problems.append("replay differs: model digest changed from the cold op")
        return problems

    def timed_loop(self, seconds: float, profiler: cProfile.Profile | None = None):
        """Run ops for about ``seconds``.

        Returns the per-frame seconds and per-frame reference units of
        every good op, and every reference loop's seconds in run order."""
        per_frame: list[float] = []
        relative: list[float] = []
        references: list[float] = []
        start = time.perf_counter()
        last_cost = 0.0
        while len(per_frame) < MIN_OPS or time.perf_counter() - start + last_cost <= seconds:
            began = time.perf_counter()
            outcome = self.run_op(profiler)
            last_cost = time.perf_counter() - began
            if outcome is not None:
                wall, frames, units, slices = outcome
                per_frame.append(wall / frames)
                relative.append(units / frames)
                references.extend(slices)
            elif self.failed > 10 * MIN_OPS:
                raise SystemExit(f"ops keep failing: {'; '.join(self.problems[:5])}")
        return per_frame, relative, references

    def audit(self) -> float:
        """Run the paper's history checkers; returns the checkers' seconds.

        Every ms-ia spec's history goes through ``check_ms_ia``; the
        first ms-sr spec, run for ``AUDIT_MS_SR_FRAMES`` frames, goes
        through ``check_ms_sr`` (its all-pairs conflict scan grows
        quadratically with history length).  Any violation, an empty
        history where the op's report has transactions, a result that
        disagrees with that report, or an audit that checked no
        transaction at all fails the audit op.
        """
        from repro.core.system import CroesusSystem
        from repro.experiments import build_single_config
        from repro.transactions.checker import check_ms_ia, check_ms_sr
        from repro.video.library import make_video

        self.attempted += 1
        checker_seconds = 0.0
        problems: list[str] = []
        ms_sr_done = False
        audited_transactions = 0
        for spec, report in zip(self.specs, self.reports):
            if spec.consistency == "ms-ia":
                checker, audited = check_ms_ia, spec
            elif not ms_sr_done:
                checker = check_ms_sr
                audited = spec.with_(frames=AUDIT_MS_SR_FRAMES)
                ms_sr_done = True
            else:
                continue
            system = CroesusSystem(build_single_config(audited))
            result = system.run(
                make_video(audited.video, num_frames=audited.frames, seed=audited.seed)
            )
            transactions = len(system.history.transaction_ids())
            audited_transactions += transactions
            if audited == spec:
                if result.f_score != report.f_score:
                    problems.append(f"{spec.video}/{spec.consistency}: audited run differs from the op")
                if report.transactions and not transactions:
                    problems.append(f"{spec.video}/{spec.consistency}: empty history")
            start = time.perf_counter()
            outcome = checker(system.history)
            checker_seconds += time.perf_counter() - start
            if not outcome:
                problems.append(
                    f"{audited.video}/{audited.consistency}: {len(outcome.violations)} "
                    f"violations, first: {outcome.violations[0]}"
                )
        if not ms_sr_done:
            problems.append("no ms-sr history audited")
        if not audited_transactions:
            problems.append("the audit checked no transaction")
        if problems:
            self.fail(problems)
        return checker_seconds


def digest(reports: list) -> str:
    """sha256 of the canonical (sorted-key) JSON of every report."""
    canonical = "\n".join(report.to_json(indent=None) for report in reports)
    return hashlib.sha256(canonical.encode()).hexdigest()


def setup(workload, seed: int) -> tuple[Bench, float]:
    """Import the simulator, build the specs and run one cold op."""
    import repro  # noqa: F401  (the import is part of set-up)

    bench = Bench(workload, seed)
    if bench.run_op() is None:
        raise SystemExit(f"cold op failed: {'; '.join(bench.problems)}")
    return bench, time.perf_counter() - _PROCESS_START


def probe_setup(args, bench: Bench) -> float:
    """Set-up time of one fresh process running this script in probe mode.

    The probe's cold op is one more attempted op: it fails when its
    digest differs from this process's (a seeded replay must not depend
    on the process, e.g. on string hash randomisation)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    bench.attempted += 1
    if probe["digest"] != bench.reference_digest:
        bench.fail(["replay differs: another process computed another model digest"])
    return probe["setup_s"]


def modelled_stats(reports: list) -> dict[str, float]:
    """Modelled statistics of the reports: frame-weighted means, summed counts."""
    frames = sum(report.frames for report in reports)

    def mean(field: str) -> float:
        return sum(getattr(report, field) * report.frames for report in reports) / frames

    return {
        "detection.f_score": mean("f_score"),
        "core.bandwidth_utilization": mean("bandwidth_utilization"),
        "core.tuner_frame_rescores": float(sum(r.tuner_frame_rescores for r in reports)),
        "sim.queue_delay_ms": mean("queue_delay_ms"),
        "sim.p50_latency_ms": mean("p50_latency_ms"),
        "sim.p99_latency_ms": mean("p99_latency_ms"),
        "cluster.throughput_fps": mean("throughput_fps"),
        "transactions.abort_rate": mean("abort_rate"),
        "geo.wan_round_trips_per_txn": mean("wan_round_trips_per_txn"),
    }


def describe(name: str, values: list[float], unit: str, scale: float = 1.0) -> str:
    q1, median, q3 = statistics.quantiles([value * scale for value in values], n=4)
    return f"  {name:<20} {median:12.6g} {unit:<6} n={len(values):<3} q1={q1:.6g} q3={q3:.6g}"


def run_untraced(args, workload) -> tuple[Bench, dict]:
    bench, first_setup = setup(workload, args.seed)
    setups = [first_setup] + [probe_setup(args, bench) for _ in range(SETUP_SAMPLES - 1)]
    per_frame, relative, references = bench.timed_loop(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.audit:
        bench.audit()
    print(describe("host_rel_per_frame", relative, "ratio"))
    print(describe("host_us_per_frame", per_frame, "us", 1e6))
    print(describe("reference_loop", references, "ms", 1e3))
    print("  reference loops ms, in run order: " + " ".join(f"{r * 1e3:.1f}" for r in references))
    print(describe("setup_s", setups, "s"))
    print(f"  {'peak_rss_mb':<20} {peak_rss_mb:12.6g} MiB")
    print(
        f"  {'failed_op_fraction':<20} {bench.failed / bench.attempted:12.6g} "
        f"({bench.failed}/{bench.attempted} ops)"
    )
    return bench, {
        "host_rel_per_frame": {"value": statistics.median(relative), "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def run_traced(args, workload) -> tuple[Bench, dict]:
    import repro

    bench, _ = setup(workload, args.seed)
    frames_per_op = sum(report.frames for report in bench.reports)
    untraced_share, traced_share = TRACE_SPLIT
    plain, _, _ = bench.timed_loop(args.seconds * untraced_share)
    profiler = cProfile.Profile()
    traced, _, _ = bench.timed_loop(args.seconds * traced_share, profiler)
    layer_seconds = layer_self_seconds(
        pstats.Stats(profiler).stats, Path(repro.__file__).resolve().parent
    )

    counters = BoundaryCounters()
    with counters:
        counted = bench.run_op()
    if counted is not None:
        silent = [label for label in workload.must_fire if counters.fired[label] == 0]
        unknown = [label for label in workload.must_fire if label not in counters.labels()]
        if silent or unknown:
            bench.fail([f"boundary never fired: {label}" for label in silent + unknown])
    audit_s = bench.audit() if workload.audit else 0.0

    metrics: dict[str, dict] = {}
    profiled_frames = frames_per_op * len(traced)
    repro_seconds = sum(layer_seconds.get(layer, 0.0) for layer in LAYERS)
    print(f"  cProfile self time over {len(traced)} ops ({profiled_frames} frames):")
    for layer in LAYERS:
        seconds = layer_seconds.get(layer, 0.0)
        value = seconds / profiled_frames * 1e6 if profiled_frames else 0.0
        metrics[f"{layer}.self_us_per_frame"] = {"value": value, "unit": "us"}
        share = seconds / repro_seconds if repro_seconds else 0.0
        print(f"    {layer:<14} {value:12.6g} us/frame  {share:7.2%}")
    for extra in ("repro", "other"):
        print(f"    ({extra:<12} {layer_seconds.get(extra, 0.0) / max(profiled_frames, 1) * 1e6:12.6g} us/frame)")
    groups = {
        "detection+storage+transactions+workloads": ("detection", "storage", "transactions", "workloads"),
        "sim+cluster": ("sim", "cluster"),
        "core": ("core",),
    }
    for label, members in groups.items():
        share = sum(layer_seconds.get(m, 0.0) for m in members) / repro_seconds if repro_seconds else 0.0
        print(f"    share {label}: {share:.2%}")
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["host.us_per_frame"] = {"value": statistics.median(plain) * 1e6, "unit": "us"}
    print(describe("untraced us/frame", plain, "us", 1e6))
    print(describe("cProfile us/frame", traced, "us", 1e6))

    def per_frame(metric: str) -> float:
        return counters.calls[metric] / frames_per_op

    def ratio(metric: str) -> float:
        calls = counters.calls[metric]
        return counters.trues[metric] / calls if calls else 0.0

    counts = {
        "sim.events": per_frame("sim.events"),
        "sim.server_admits": per_frame("sim.server_admits"),
        "cluster.placements": per_frame("cluster.placements"),
        "detection.detect_calls": per_frame("detection.detect_calls"),
        "detection.matches": per_frame("detection.matches"),
        "core.validate_ratio": ratio("core.validate"),
        "core.tuner_evaluates": per_frame("core.tuner_evaluates"),
        "transactions.sections": per_frame("transactions.sections"),
        "storage.lock_attempts": per_frame("storage.lock_attempts"),
        "storage.lock_grant_ratio": ratio("storage.lock_attempts"),
        "storage.wal_appends": per_frame("storage.wal_appends"),
        "network.messages": per_frame("network.messages"),
        "workloads.txns_built": per_frame("workloads.txns_built"),
    }
    print(f"  boundary counts per simulated frame ({frames_per_op} frames):")
    for name, value in counts.items():
        unit = "ratio" if name.endswith("_ratio") else "1/frame"
        metrics[name] = {"value": value, "unit": unit}
        print(f"    {name:<26} {value:.6g}")
    print("  boundaries fired: " + ", ".join(f"{k}={v}" for k, v in sorted(counters.fired.items())))

    modelled = modelled_stats(bench.reports)
    print(f"  modelled statistics (digest {bench.reference_digest}):")
    units = {
        "detection.f_score": "ratio",
        "core.bandwidth_utilization": "ratio",
        "core.tuner_frame_rescores": "count",
        "cluster.throughput_fps": "1/s",
        "transactions.abort_rate": "ratio",
        "geo.wan_round_trips_per_txn": "1/txn",
    }
    for name, value in modelled.items():
        metrics[name] = {"value": value, "unit": units.get(name, "ms")}
        print(f"    {name:<28} {value!r}")
    metrics["model.digest"] = {"value": int(bench.reference_digest[:12], 16), "unit": "sha256-48bit"}
    metrics["transactions.audit_s"] = {"value": audit_s, "unit": "s"}
    print(f"  {'transactions.audit_s':<20} {audit_s:.6g} s")
    return bench, metrics


def run_all(args) -> int:
    """Run every workload in its own process, one after another.

    Each workload's table is passed through; the last line merges the
    results, metric names prefixed with the workload name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to run each in its own process in turn",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        bench, setup_s = setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "digest": bench.reference_digest}))
        return 0

    print(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {workload.why}")
    if args.trace:
        bench, metrics = run_traced(args, workload)
    else:
        bench, metrics = run_untraced(args, workload)
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
