"""The multi-edge cluster deployment.

:class:`ClusterSystem` scales the single-edge Croesus pipeline out to
many edge replicas serving many concurrent camera streams against one
hash-partitioned datastore (paper Section 4.5):

1. a router places every stream on an edge replica (round-robin,
   consistent-hash, least-loaded, a deliberately skewed hotspot
   placement, or the runtime-adaptive migrating policy);
2. the scheduler interleaves all streams' frames into one global
   timeline and every frame becomes one process on the shared
   discrete-event engine (:mod:`repro.sim.engine`); each replica is a
   finite-capacity server whose waiting time — driven by the replica's
   measured detection+transaction service times — shows up in frame
   latency, making overload visible;
3. every frame runs the full Croesus flow on its home replica (edge
   detection, initial sections, thresholding, cloud validation, final
   sections), but transactions execute through the distributed
   controllers of :mod:`repro.transactions.distributed`: lock requests
   for keys hashed to another replica's partitions are routed there, and
   commits run two-phase commit across the participating partitions;
4. the cloud itself can be a finite-capacity server
   (:attr:`ClusterConfig.cloud_servers`): validated frames from every
   edge contend for the cloud's model servers, and the time they queue
   there is reported as ``cloud_queue_delay``;
5. with the ``"migrating"`` router the engine's runtime visibility is
   fed back into routing: when an edge's observed utilization crosses a
   threshold, the arriving stream's remaining frames are re-routed to
   the least-utilized edge (recorded as ``stream_migrated`` events);
6. the run returns per-stream :class:`~repro.core.results.RunResult`\\ s
   plus cluster-level metrics: per-edge utilization and queue delay, the
   cross-edge transaction fraction, the 2PC abort rate, cloud queueing,
   and any migrations.

Because the cloud round trip does not occupy the edge, a replica keeps
serving other frames while a validated frame is in flight; under MS-SR
the in-flight frame's locks stay held, so concurrent frames can abort —
the cluster reproduces the paper's contention behaviour at scale.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from statistics import mean
from typing import Callable, Sequence

from repro.cluster.failure import (
    FAILURE_DETECT_SECONDS,
    FailureInjector,
    FailureRecord,
    FailureSpec,
    PromotionRecord,
    ReshardRecord,
    ReshardSpec,
    normalize_failure_schedule,
    normalize_resharding,
    recovery_time,
    validate_failure_schedule,
)
from repro.cluster.node import EdgeReplica
from repro.cluster.replication import REPLICATION_MODES, ReplicationManager
from repro.cluster.router import (
    ROUTER_POLICIES,
    MigratingRouter,
    MigrationTrigger,
    make_router,
)
from repro.cluster.scheduler import FrameArrival, FrameScheduler
from repro.core.adaptive import ADAPTATION_MODES, AdaptationConfig, AdaptationManager
from repro.core.client import Client, ClientResponse
from repro.core.cloud import CloudNode
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.edge import FinalStageOutcome, InitialStageOutcome
from repro.core.results import FrameTrace, LatencyBreakdown, RunResult
from repro.core.system import LABELS_MESSAGE_BYTES, observed_labels
from repro.core.thresholds import ConfidenceInterval, ThresholdPolicy
from repro.detection.metrics import AccuracyReport, aggregate_reports, evaluate_detections
from repro.analysis.streaming import QuantileAccumulator
from repro.network.channel import Channel
from repro.network.latency import SAME_REGION
from repro.network.topology import MachineProfile
from repro.sim.engine import At, Engine, ReferenceServer, Server
from repro.sim.events import EventLog
from repro.sim.rng import RngRegistry
from repro.storage.partition import PartitionedStore
from repro.traffic.admission import AdmissionController, make_admission
from repro.traffic.shedding import SHED_APOLOGY, ApologyBudget, LoadShedder
from repro.traffic.source import TrafficConfig, TrafficSource, TrafficStats, percentile
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.ms_sr import ControllerStats
from repro.transactions.policy import PolicyStats
from repro.video.synthetic import SyntheticVideo
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.ycsb import YCSBWorkload

#: Builds the transactions bank for one edge replica.  Each replica needs
#: its own bank so transaction ids (the lock-holder ids in the shared
#: partitions) never collide across replicas.
BankFactory = Callable[[int], TransactionBank]

#: Event objects retained by a fast-path (``record_frames=False``) run;
#: per-kind counts stay exact for the whole run regardless.
FAST_PATH_EVENT_CAPACITY = 4096

#: Busy intervals each fast-path server keeps; older intervals fold into
#: a running busy-time total (whole-run utilization stays exact, only
#: deep-history windowed loads lose resolution).
FAST_PATH_INTERVAL_RETENTION = 4096


@contextmanager
def _gc_suspended(active: bool):
    """Suspend the cycle collector for the duration of a fast-path run.

    The fast path allocates only short-lived, acyclic records (events,
    admissions, label tuples) that reference counting reclaims the
    moment they drop out of the frame pipeline — the collector finds
    nothing, but its generation scans are a double-digit share of a
    million-frame run's wall clock.  No-op when the collector is already
    off (respects an outer policy), and re-enabled even on error.
    """
    if not active or not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines one cluster deployment.

    Attributes
    ----------
    base:
        The per-edge Croesus configuration (models, thresholds, links,
        safety level, seed).  The master seed of the whole cluster.
    num_edges:
        Number of edge replicas.
    partitions_per_edge:
        Partitions each replica hosts; the shared store has
        ``num_edges * partitions_per_edge`` partitions in total.
    router_policy:
        Stream placement policy (see :data:`~repro.cluster.router.ROUTER_POLICIES`).
    hotspot_fraction:
        Skew of the ``"hotspot"`` policy (ignored by the others).
    frame_interval:
        Seconds between consecutive frames of one stream (1/30 ≈ 30 fps).
    edge_machines:
        Machine profiles cycled over the replicas; empty means every
        replica runs on ``base.topology.edge_machine``.  Mixing profiles
        models a heterogeneous cluster.
    cloud_servers:
        Number of concurrent validations the cloud can serve; ``None``
        models an infinite cloud (no validation ever queues, the
        original behaviour).  With a finite value, validated frames from
        every edge contend for the cloud and their waiting time is
        reported as ``cloud_queue_delay``.
    migration_high, migration_low:
        Hysteresis band of the ``"migrating"`` router: a stream migrates
        off its edge when the edge's observed utilization reaches
        ``migration_high``, and that edge's trigger re-arms only once
        utilization falls back to ``migration_low``.
    migration_window:
        Length (seconds) of the sliding window over which the migrating
        router observes edge utilization; a short window reacts to
        recent overload instead of the whole run's average.
    edge_discipline:
        Admission discipline of the edge servers: ``"fifo"`` (the
        default, arrival-ordered) or ``"priority"``, under which a
        frame's initial stage overtakes queued final stages — the
        fast-response path the engine's priority servers exist for.
    failure_schedule:
        Scheduled replica failures, as
        :class:`~repro.cluster.failure.FailureSpec` entries or plain
        ``(edge_id, fail_at, recover_at)`` tuples.  At ``fail_at`` the
        edge's streams re-route, its in-flight transactions resolve
        through the transaction-policy seam, and its partitions lose
        their volatile stores; at ``recover_at`` the replica replays
        its write-ahead logs and rejoins once the replay is done.
    checkpoint_interval_s:
        Period of the cluster-wide checkpointer; ``None`` (the default)
        takes no periodic checkpoints, so a recovery replays the whole
        log.  Shorter intervals buy faster recovery with more
        checkpoint work — the availability sweeps' axis.
    resharding:
        Scheduled runtime partition moves, as
        :class:`~repro.cluster.failure.ReshardSpec` entries or plain
        ``(at, partition_id, to_edge)`` tuples; each move is a
        checkpoint-copy plus a log-shipped tail.
    failback:
        When True, streams that failed over away from a crashed edge
        migrate *back* once it rejoins, paced by the migration
        machinery's hysteresis (a stream returns only when its interim
        host is hot and the recovered edge has headroom).  Off by
        default so existing seeded failure runs stay bit-for-bit.
    failure_hazard_rate:
        Expected failures per second of the probabilistic failure mode
        (see :class:`~repro.cluster.failure.FailureInjector`); ``None``
        (the default) uses only the explicit ``failure_schedule``.
        Mutually exclusive with a non-empty schedule.
    failure_outage_s:
        Outage length of each hazard-drawn failure (the gap between
        ``fail_at`` and the scheduled restart).
    record_frames:
        True (the default) keeps one :class:`~repro.core.results.FrameTrace`
        per frame plus full client-response and event histories — the
        exact, memory-hungry path every golden pin runs on.  False is
        the **fast path**: per-frame results fold into streaming
        accumulators (:class:`FrameStatsAccumulator`), the event log is
        bounded, edge servers use streaming wait statistics and interval
        retention, and open-loop streams run on one batched driver
        process each — memory stays bounded at 10⁶+ frames.  Aggregate
        metrics (means, rates, F-score) are computed from exact running
        sums; latency percentiles are exact up to the accumulator's
        buffer and within 1% beyond it.
    reference_engine:
        Run every server on the preserved pre-optimization
        :class:`~repro.sim.engine.ReferenceServer` implementation.  The
        scale-stress benchmark's yardstick; mutually exclusive with the
        fast path.

    The commit policy of the consistency layer comes from
    ``base.transaction_policy`` (see
    :data:`repro.transactions.policy.TXN_POLICIES`).
    """

    base: CroesusConfig = field(default_factory=CroesusConfig)
    num_edges: int = 2
    partitions_per_edge: int = 1
    router_policy: str = "round-robin"
    hotspot_fraction: float = 0.75
    frame_interval: float = 1.0 / 30.0
    edge_machines: tuple[MachineProfile, ...] = ()
    cloud_servers: int | None = None
    migration_high: float = 0.85
    migration_low: float = 0.5
    migration_window: float = 1.0
    edge_discipline: str = "fifo"
    failure_schedule: tuple[FailureSpec, ...] = ()
    checkpoint_interval_s: float | None = None
    resharding: tuple[ReshardSpec, ...] = ()
    failback: bool = False
    failure_hazard_rate: float | None = None
    failure_outage_s: float = 1.0
    record_frames: bool = True
    reference_engine: bool = False
    #: Replicas per partition: 1 (the default) keeps the single-owner
    #: behaviour bit-for-bit; ``k >= 2`` gives every partition ``k - 1``
    #: warm backups fed by log shipping, and a crashed primary's
    #: partitions fail over by *promotion* instead of checkpoint replay.
    replication_factor: int = 1
    #: Log-shipping ack discipline: ``"sync"`` (ack after all backups
    #: apply), ``"quorum"`` (ack after a majority), or ``"async"``
    #: (fire-and-forget with bounded staleness).  Inert at factor 1.
    replication_mode: str = "sync"
    #: Group-commit window (seconds) for each replica's local log
    #: appends; ``None`` keeps the flush-per-append discipline.
    wal_group_commit_window_s: float | None = None
    #: Online threshold adaptation mode (``"feedback"`` or ``"retune"``,
    #: see :data:`repro.core.adaptive.ADAPTATION_MODES`); ``None`` (the
    #: default) keeps the static ``(θL, θU)`` pair on every stream and
    #: builds no adaptation machinery at all.
    threshold_adaptation: str | None = None
    #: Simulated seconds between adaptation ticks (inert when
    #: ``threshold_adaptation`` is ``None``).
    adaptation_interval_s: float = 1.0
    #: F-score floor the per-stream controllers steer towards.
    adaptation_target_f: float = 0.8

    def __post_init__(self) -> None:
        if self.reference_engine and not self.record_frames:
            raise ValueError(
                "reference_engine requires record_frames=True (the reference "
                "implementation is the full-recording pre-optimization path)"
            )
        if self.num_edges < 1:
            raise ValueError("num_edges must be at least 1")
        if self.partitions_per_edge < 1:
            raise ValueError("partitions_per_edge must be at least 1")
        if self.router_policy not in ROUTER_POLICIES:
            known = ", ".join(ROUTER_POLICIES)
            raise ValueError(
                f"unknown router_policy {self.router_policy!r}; known policies: {known}"
            )
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if self.frame_interval <= 0:
            raise ValueError("frame_interval must be positive")
        if self.cloud_servers is not None and self.cloud_servers < 1:
            raise ValueError("cloud_servers must be at least 1 (or None for unbounded)")
        if not 0.0 < self.migration_low <= self.migration_high:
            raise ValueError(
                "need 0 < migration_low <= migration_high, got "
                f"({self.migration_low}, {self.migration_high})"
            )
        if self.migration_window <= 0:
            raise ValueError("migration_window must be positive")
        if self.edge_discipline not in Server.DISCIPLINES:
            known = ", ".join(Server.DISCIPLINES)
            raise ValueError(
                f"unknown edge_discipline {self.edge_discipline!r}; expected one of {known}"
            )
        # The schedules arrive as plain tuples from the spec layer; the
        # dataclass is frozen, so normalisation goes through __setattr__.
        object.__setattr__(
            self, "failure_schedule", normalize_failure_schedule(self.failure_schedule)
        )
        object.__setattr__(self, "resharding", normalize_resharding(self.resharding))
        validate_failure_schedule(self.failure_schedule, self.num_edges)
        for move in self.resharding:
            if move.partition_id >= self.num_partitions:
                raise ValueError(
                    f"resharding names partition {move.partition_id}, but there are "
                    f"{self.num_partitions} partitions"
                )
            if move.to_edge >= self.num_edges:
                raise ValueError(
                    f"resharding names edge {move.to_edge}, but there are {self.num_edges} edges"
                )
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ValueError(
                f"checkpoint_interval_s must be positive (or None), got "
                f"{self.checkpoint_interval_s}"
            )
        if self.failure_hazard_rate is not None:
            if self.num_edges < 2:
                raise ValueError(
                    "failure_hazard_rate needs at least 2 edges "
                    "(streams must have a live edge to fail over to)"
                )
            # Range/exclusivity checks (including outage_s) live in the
            # injector, which both failure modes flow through.
            FailureInjector(
                schedule=self.failure_schedule,
                hazard_rate=self.failure_hazard_rate,
                outage_s=self.failure_outage_s,
            )
        elif self.failure_outage_s <= 0:
            raise ValueError(
                f"failure_outage_s must be positive, got {self.failure_outage_s}"
            )
        if self.replication_mode not in REPLICATION_MODES:
            known = ", ".join(REPLICATION_MODES)
            raise ValueError(
                f"unknown replication_mode {self.replication_mode!r}; known modes: {known}"
            )
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be at least 1, got {self.replication_factor}"
            )
        if self.replication_factor > self.num_edges:
            raise ValueError(
                f"replication_factor {self.replication_factor} exceeds the "
                f"{self.num_edges} edge(s) available (backups live on distinct edges)"
            )
        if self.replication_factor > 1 and self.resharding:
            raise ValueError(
                "replication and scheduled re-sharding are mutually exclusive "
                "(a promotion re-homes partitions through its own protocol)"
            )
        if self.wal_group_commit_window_s is not None and self.wal_group_commit_window_s <= 0:
            raise ValueError(
                f"wal_group_commit_window_s must be positive (or None), got "
                f"{self.wal_group_commit_window_s}"
            )
        if (
            self.threshold_adaptation is not None
            and self.threshold_adaptation not in ADAPTATION_MODES
        ):
            known = ", ".join(ADAPTATION_MODES)
            raise ValueError(
                f"unknown threshold_adaptation {self.threshold_adaptation!r}; "
                f"expected one of {known}"
            )
        if self.adaptation_interval_s <= 0:
            raise ValueError(
                f"adaptation_interval_s must be positive, got {self.adaptation_interval_s}"
            )
        if not 0.0 < self.adaptation_target_f <= 1.0:
            raise ValueError(
                f"adaptation_target_f must be in (0, 1], got {self.adaptation_target_f}"
            )

    @property
    def num_partitions(self) -> int:
        """Total partitions of the shared store."""
        return self.num_edges * self.partitions_per_edge

    @property
    def seed(self) -> int:
        """Master seed of the cluster (the base config's seed)."""
        return self.base.seed

    @property
    def transaction_policy(self) -> str:
        """Commit policy of the consistency layer (from the base config)."""
        return self.base.transaction_policy

    def with_edges(self, num_edges: int) -> "ClusterConfig":
        """Copy of this config with a different cluster size."""
        return replace(self, num_edges=num_edges)

    def with_router(self, policy: str) -> "ClusterConfig":
        """Copy of this config with a different placement policy."""
        return replace(self, router_policy=policy)

    def with_cloud_servers(self, cloud_servers: int | None) -> "ClusterConfig":
        """Copy of this config with a different cloud capacity."""
        return replace(self, cloud_servers=cloud_servers)


@dataclass(frozen=True)
class EdgeMetrics:
    """Per-edge outcome of one cluster run.

    Queue-delay statistics cover every admission to the edge's queue —
    each frame queues twice, once for its initial stage and once for
    its final stage — so ``queue_jobs`` is about twice
    ``frames_processed``.
    """

    edge_id: int
    machine_name: str
    owned_partitions: tuple[int, ...]
    streams: tuple[str, ...]
    frames_processed: int
    queue_jobs: int
    busy_time: float
    utilization: float
    mean_queue_delay: float
    max_queue_delay: float


@dataclass(frozen=True)
class MigrationRecord:
    """One stream re-routed at runtime by the ``"migrating"`` policy."""

    time: float
    stream: str
    from_edge: int
    to_edge: int
    utilization: float


class FrameStatsAccumulator:
    """Streaming per-frame aggregates of a fast-path cluster run.

    The ``record_frames=False`` path folds every served frame into this
    accumulator instead of building a :class:`~repro.core.results.FrameTrace`,
    so run memory stays bounded at 10⁶+ frames.  Counts, sums, and the
    derived means/rates are exact; the final-latency percentiles come
    from a :class:`~repro.analysis.streaming.QuantileAccumulator` — exact
    nearest-rank up to its buffer, within 1% relative error beyond it.
    """

    __slots__ = (
        "frames",
        "sent_to_cloud",
        "bytes_sent",
        "latency_sums",
        "true_positives",
        "false_positives",
        "false_negatives",
        "transactions",
        "corrections",
        "apologies",
        "cloud_queue_delay_sum",
        "final_latency_ms",
    )

    #: Component order mirrors LatencyBreakdown.to_dict().
    LATENCY_COMPONENTS = (
        "edge_transfer",
        "edge_detection",
        "initial_txn",
        "cloud_transfer",
        "cloud_detection",
        "final_txn",
        "queue_delay",
        "final_queue_delay",
        "cloud_queue_delay",
        "commit_protocol",
        "commit_overlap_saved",
    )

    def __init__(self) -> None:
        self.frames = 0
        self.sent_to_cloud = 0
        self.bytes_sent = 0
        self.latency_sums = [0.0] * len(self.LATENCY_COMPONENTS)
        self.true_positives = 0
        self.false_positives = 0
        self.false_negatives = 0
        self.transactions = 0
        self.corrections = 0
        self.apologies = 0
        self.cloud_queue_delay_sum = 0.0
        self.final_latency_ms = QuantileAccumulator()

    def record(
        self,
        latency: LatencyBreakdown,
        accuracy,
        sent_to_cloud: bool,
        bytes_sent: int,
        transactions: int,
        corrections: int,
        apologies: int,
    ) -> None:
        """Fold one served frame's outcome into the running aggregates."""
        self.record_frame(
            latency.edge_transfer,
            latency.edge_detection,
            latency.initial_txn,
            latency.cloud_transfer,
            latency.cloud_detection,
            latency.final_txn,
            latency.queue_delay,
            latency.final_queue_delay,
            latency.cloud_queue_delay,
            latency.commit_protocol,
            latency.commit_overlap_saved,
            accuracy,
            sent_to_cloud,
            bytes_sent,
            transactions,
            corrections,
            apologies,
        )

    def record_frame(
        self,
        edge_transfer: float,
        edge_detection: float,
        initial_txn: float,
        cloud_transfer: float,
        cloud_detection: float,
        final_txn: float,
        queue_delay: float,
        final_queue_delay: float,
        cloud_queue_delay: float,
        commit_protocol: float,
        commit_overlap_saved: float,
        accuracy,
        sent_to_cloud: bool,
        bytes_sent: int,
        transactions: int,
        corrections: int,
        apologies: int,
    ) -> None:
        """Unboxed :meth:`record`: latency components as bare floats.

        The inlined fast-path driver records every served frame through
        this entry, skipping the per-frame :class:`LatencyBreakdown`
        construction; the summation order matches
        :attr:`LatencyBreakdown.final_latency` term for term, so the
        accumulated values are bit-identical to the boxed path.
        """
        self.frames += 1
        if sent_to_cloud:
            self.sent_to_cloud += 1
            self.cloud_queue_delay_sum += cloud_queue_delay
        self.bytes_sent += bytes_sent
        # Unrolled over LATENCY_COMPONENTS order: one add per component.
        sums = self.latency_sums
        sums[0] += edge_transfer
        sums[1] += edge_detection
        sums[2] += initial_txn
        sums[3] += cloud_transfer
        sums[4] += cloud_detection
        sums[5] += final_txn
        sums[6] += queue_delay
        sums[7] += final_queue_delay
        sums[8] += cloud_queue_delay
        sums[9] += commit_protocol
        sums[10] += commit_overlap_saved
        self.true_positives += accuracy.true_positives
        self.false_positives += accuracy.false_positives
        self.false_negatives += accuracy.false_negatives
        self.transactions += transactions
        self.corrections += corrections
        self.apologies += apologies
        # Same association order as LatencyBreakdown.final_latency
        # (initial_latency first), so the float sum is bit-identical.
        final_latency = (
            edge_transfer + queue_delay + edge_detection + initial_txn
        ) + cloud_transfer + cloud_queue_delay + cloud_detection + final_queue_delay + final_txn + commit_protocol
        self.final_latency_ms.add(final_latency * 1000.0)

    @property
    def average_latency(self) -> LatencyBreakdown:
        """Component-wise mean breakdown over the recorded frames."""
        if not self.frames:
            return LatencyBreakdown()
        means = {
            component: self.latency_sums[index] / self.frames
            for index, component in enumerate(self.LATENCY_COMPONENTS)
        }
        return LatencyBreakdown(**means)

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of recorded frames validated at the cloud."""
        return self.sent_to_cloud / self.frames if self.frames else 0.0

    @property
    def mean_cloud_queue_delay(self) -> float:
        """Mean cloud queueing over validated frames only."""
        if not self.sent_to_cloud:
            return 0.0
        return self.cloud_queue_delay_sum / self.sent_to_cloud

    @property
    def f_score(self) -> float:
        """Corpus-level F-score from the exact running tp/fp/fn counts."""
        return AccuracyReport(
            true_positives=self.true_positives,
            false_positives=self.false_positives,
            false_negatives=self.false_negatives,
        ).f_score

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of per-frame final latency, in milliseconds."""
        return {
            "p50_ms": self.final_latency_ms.percentile(50.0),
            "p95_ms": self.final_latency_ms.percentile(95.0),
            "p99_ms": self.final_latency_ms.percentile(99.0),
        }


@dataclass
class ClusterRunResult:
    """Aggregated outcome of one multi-stream cluster run.

    ``placements`` holds the router's placement-time assignments; when
    the ``"migrating"`` policy re-routed streams mid-run, every move is
    in ``migrations`` and ``final_placements`` gives the end state.
    """

    router_policy: str
    placements: dict[str, int]
    per_stream: dict[str, RunResult]
    edges: list[EdgeMetrics]
    makespan: float
    stats: ControllerStats
    total_transactions: int = 0
    cross_edge_transactions: int = 0
    multi_partition_transactions: int = 0
    cloud_servers: int | None = None
    migrations: tuple[MigrationRecord, ...] = ()
    transaction_policy: str = "immediate-2pc"
    policy_stats: PolicyStats = field(default_factory=PolicyStats)
    failures: tuple[FailureRecord, ...] = ()
    reshards: tuple[ReshardRecord, ...] = ()
    downtime_s: float = 0.0
    recovery_time_s: float = 0.0
    wal_records_replayed: int = 0
    transactions_replayed: int = 0
    txns_aborted_by_failure: int = 0
    checkpoints: int = 0
    #: Offered/admitted/shed accounting of an open-loop run (None for
    #: the closed-loop path, which serves everything it is given).
    traffic: TrafficStats | None = None
    #: Streaming per-frame aggregates of a fast-path run (None on the
    #: default full-recording path, which derives the same metrics from
    #: the retained traces).
    frame_stats: FrameStatsAccumulator | None = None
    #: Warm failovers performed under replication (empty at factor 1).
    promotions: tuple[PromotionRecord, ...] = ()
    log_records_shipped: int = 0
    replication_lag_s: float = 0.0
    replication_ack_wait_s: float = 0.0
    replication_factor: int = 1
    replication_mode: str = "sync"
    #: Online-adaptation accounting (all zero/empty under static thresholds).
    adaptation_mode: str | None = None
    threshold_updates: int = 0
    tuner_evaluations: int = 0
    tuner_frame_rescores: int = 0
    tuner_grid_rescores: int = 0
    #: Stream -> its final (θL, θU) after any runtime drift.
    stream_thresholds: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def final_placements(self) -> dict[str, int]:
        """Stream placements after any runtime migrations."""
        placements = dict(self.placements)
        for record in self.migrations:
            placements[record.stream] = record.to_edge
        return placements

    @property
    def num_migrations(self) -> int:
        return len(self.migrations)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_frames(self) -> int:
        """Frames processed across all streams."""
        return sum(result.num_frames for result in self.per_stream.values())

    @property
    def throughput_fps(self) -> float:
        """Cluster-wide frames per second of simulated time."""
        return self.num_frames / self.makespan if self.makespan > 0 else 0.0

    @property
    def cross_partition_fraction(self) -> float:
        """Fraction of transactions that touched a remote replica's partition."""
        if not self.total_transactions:
            return 0.0
        return self.cross_edge_transactions / self.total_transactions

    @property
    def two_phase_abort_rate(self) -> float:
        """Fraction of attempted transactions aborted cluster-wide."""
        return self.stats.abort_rate

    @property
    def coordinator_round_trips(self) -> int:
        """Modelled coordinator round trips across all replicas."""
        return self.policy_stats.coordinator_round_trips

    @property
    def round_trips_per_cross_edge_txn(self) -> float:
        """Mean coordinator round trips per cross-edge transaction —
        the number the batched policy exists to drive down."""
        if not self.cross_edge_transactions:
            return 0.0
        return self.policy_stats.coordinator_round_trips / self.cross_edge_transactions

    def policy_summary(self) -> dict[str, float]:
        """Headline coordinator metrics of the active transaction policy.

        Kept out of :meth:`summary` — whose key set is pinned by the
        golden determinism tests — so policy experiments get their
        numbers without disturbing the legacy trajectory schema.
        """
        return {
            "coordinator_round_trips": float(self.policy_stats.coordinator_round_trips),
            "cross_partition_commits": float(self.policy_stats.cross_partition_commits),
            "commit_batches": float(self.policy_stats.commit_batches),
            "coordinator_time_ms": self.policy_stats.coordinator_time_s * 1000.0,
            "overlap_saved_ms": self.policy_stats.overlap_saved_s * 1000.0,
            "prepare_vote_time_ms": self.policy_stats.prepare_vote_time_s * 1000.0,
            "round_trips_per_cross_edge_txn": self.round_trips_per_cross_edge_txn,
        }

    @property
    def num_failures(self) -> int:
        return len(self.failures)

    @property
    def frames_replayed(self) -> int:
        """Committed transactions re-applied from the WAL during recoveries."""
        return self.transactions_replayed

    def availability_summary(self) -> dict[str, float]:
        """Failure/recovery/re-sharding metrics of one run.

        A separate dictionary for the same reason as
        :meth:`policy_summary`: the legacy :meth:`summary` key set is
        pinned by the golden determinism tests.
        """
        return {
            "failures": float(self.num_failures),
            "downtime_ms": self.downtime_s * 1000.0,
            "recovery_time_ms": self.recovery_time_s * 1000.0,
            "wal_records_replayed": float(self.wal_records_replayed),
            "frames_replayed": float(self.frames_replayed),
            "txns_aborted_by_failure": float(self.txns_aborted_by_failure),
            "checkpoints": float(self.checkpoints),
            "reshards": float(len(self.reshards)),
        }

    def replication_summary(self) -> dict[str, float]:
        """Log-shipping and warm-failover metrics of one run.

        A third separate dictionary (alongside :meth:`policy_summary`
        and :meth:`availability_summary`) because both of those key sets
        are pinned by existing tests; at ``replication_factor == 1``
        every value is zero.
        """
        return {
            "replication_factor": float(self.replication_factor),
            "promotions": float(len(self.promotions)),
            "log_records_shipped": float(self.log_records_shipped),
            "replication_lag_ms": self.replication_lag_s * 1000.0,
            "replication_ack_wait_ms": self.replication_ack_wait_s * 1000.0,
            "records_caught_up": float(
                sum(record.records_caught_up for record in self.promotions)
            ),
        }

    def adaptation_summary(self) -> dict[str, float]:
        """Online threshold-adaptation metrics of one run.

        A separate dictionary for the same reason as
        :meth:`policy_summary`: the legacy :meth:`summary` key set is
        pinned by the golden determinism tests.  ``tuner_grid_rescores``
        is the label-match cost a non-incremental grid evaluator would
        have paid for the same tuner invocations — the denominator of
        the ≥10× reduction the benchmark artifact gates.
        """
        return {
            "threshold_updates": float(self.threshold_updates),
            "tuner_evaluations": float(self.tuner_evaluations),
            "tuner_frame_rescores": float(self.tuner_frame_rescores),
            "tuner_grid_rescores": float(self.tuner_grid_rescores),
            "adapted_streams": float(len(self.stream_thresholds)),
        }

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of per-frame final latency, in milliseconds.

        Computed over every served frame's arrival-to-final-commit time;
        the tail (p99) is the number overload control exists to bound —
        a mean hides exactly the frames that queued.
        """
        if self.frame_stats is not None:
            return self.frame_stats.latency_percentiles()
        totals = [
            trace.latency.final_latency * 1000.0
            for result in self.per_stream.values()
            for trace in result.traces
        ]
        return {
            "p50_ms": percentile(totals, 50.0),
            "p95_ms": percentile(totals, 95.0),
            "p99_ms": percentile(totals, 99.0),
        }

    @property
    def goodput_fps(self) -> float:
        """Frames fully served per second of simulated time.

        For a closed-loop run this equals :attr:`throughput_fps`; in an
        open-loop run shed and rejected frames are excluded — goodput is
        what the clients actually got, not what the system touched.
        """
        if self.makespan <= 0:
            return 0.0
        if self.traffic is None:
            return self.throughput_fps
        return self.traffic.completed_frames / self.makespan

    def traffic_summary(self) -> dict[str, float]:
        """Offered-vs-admitted load, goodput, shedding and tail latency.

        A separate dictionary for the same reason as
        :meth:`policy_summary`: the legacy :meth:`summary` key set is
        pinned by the golden determinism tests.  Empty when the run was
        closed-loop.
        """
        if self.traffic is None:
            return {}
        span = self.makespan
        percentiles = self.latency_percentiles()
        return {
            "offered_streams": float(self.traffic.offered_streams),
            "admitted_streams": float(self.traffic.admitted_streams),
            "rejected_streams": float(self.traffic.rejected_streams),
            "offered_frames": float(self.traffic.offered_frames),
            "admitted_frames": float(self.traffic.admitted_frames),
            "shed_frames": float(self.traffic.shed_frames),
            "completed_frames": float(self.traffic.completed_frames),
            "offered_load_fps": self.traffic.offered_frames / span if span > 0 else 0.0,
            "admitted_load_fps": self.traffic.admitted_frames / span if span > 0 else 0.0,
            "goodput_fps": self.goodput_fps,
            "shed_rate": self.traffic.shed_rate,
            "rejection_rate": self.traffic.rejection_rate,
            "apologies_spent": float(self.traffic.apologies_spent),
            "p50_latency_ms": percentiles["p50_ms"],
            "p95_latency_ms": percentiles["p95_ms"],
            "p99_latency_ms": percentiles["p99_ms"],
        }

    @property
    def mean_queue_delay(self) -> float:
        """Mean queue delay per admission, over all edges' queues.

        Every frame is admitted twice (initial and final stage), so this
        averages over ``2 × num_frames`` waits cluster-wide.
        """
        jobs = sum(edge.queue_jobs for edge in self.edges)
        if not jobs:
            return 0.0
        weighted = sum(edge.mean_queue_delay * edge.queue_jobs for edge in self.edges)
        return weighted / jobs

    @property
    def max_utilization(self) -> float:
        """Utilization of the busiest edge (1.0 means saturated)."""
        return max((edge.utilization for edge in self.edges), default=0.0)

    @property
    def bandwidth_utilization(self) -> float:
        """Cluster-wide fraction of frames validated at the cloud (the
        paper's BU, aggregated over every stream's traces)."""
        if self.frame_stats is not None:
            return self.frame_stats.bandwidth_utilization
        traces = [trace for result in self.per_stream.values() for trace in result.traces]
        if not traces:
            return 0.0
        return sum(1 for trace in traces if trace.sent_to_cloud) / len(traces)

    @property
    def average_latency(self) -> LatencyBreakdown:
        """Component-wise mean breakdown over every stream's frames."""
        if self.frame_stats is not None:
            return self.frame_stats.average_latency
        return LatencyBreakdown.average(
            [trace.latency for result in self.per_stream.values() for trace in result.traces]
        )

    @property
    def mean_cloud_queue_delay(self) -> float:
        """Mean time validated frames queued at the cloud.

        Averaged over validated frames only (unvalidated frames never
        visit the cloud); 0.0 when nothing was validated or the cloud
        is unbounded.
        """
        if self.frame_stats is not None:
            return self.frame_stats.mean_cloud_queue_delay
        delays = [
            trace.latency.cloud_queue_delay
            for result in self.per_stream.values()
            for trace in result.traces
            if trace.sent_to_cloud
        ]
        return mean(delays) if delays else 0.0

    @property
    def f_score(self) -> float:
        """Corpus-level F-score over every stream's observed labels."""
        if self.frame_stats is not None:
            return self.frame_stats.f_score
        reports = [
            trace.accuracy
            for result in self.per_stream.values()
            for trace in result.traces
        ]
        return aggregate_reports(reports).f_score

    def summary(self) -> dict[str, float]:
        """Compact dictionary of the headline cluster metrics.

        ``num_cross_partition_txns`` is the absolute count behind
        ``cross_partition_fraction`` and the 2PC abort rate: a 50% abort
        rate over two cross-partition transactions means something very
        different from one over two thousand, so the denominator ships
        with the rates.
        """
        return {
            "edges": float(self.num_edges),
            "streams": float(len(self.per_stream)),
            "frames": float(self.num_frames),
            "makespan_s": self.makespan,
            "throughput_fps": self.throughput_fps,
            "mean_queue_delay_ms": self.mean_queue_delay * 1000.0,
            "mean_cloud_queue_delay_ms": self.mean_cloud_queue_delay * 1000.0,
            "max_utilization": self.max_utilization,
            "cross_partition_fraction": self.cross_partition_fraction,
            "num_cross_partition_txns": float(self.cross_edge_transactions),
            "two_phase_abort_rate": self.two_phase_abort_rate,
            "f_score": self.f_score,
            "migrations": float(self.num_migrations),
        }


@dataclass
class _RunState:
    """Mutable execution state of one cluster run, shared by frame processes."""

    engine: Engine
    cloud_server: Server
    #: Current home edge of every stream (mutated by runtime migration).
    current_edge: dict[str, int]
    frames_on_edge: list[int]
    makespan: float = 0.0
    migrations: list[MigrationRecord] = field(default_factory=list)
    #: Per-edge failure flag (True from fail_at until the replica rejoins).
    failed: list[bool] = field(default_factory=list)
    #: Next instant a process waiting on a failed edge should re-check:
    #: the scheduled restart at first, then the computed rejoin time.
    wake_at: list[float] = field(default_factory=list)
    #: Frames whose final stage has not finished yet (stops the checkpointer).
    frames_remaining: int = 0
    #: Ids of transactions aborted by a failure; frames skip their finals.
    aborted_txns: set[str] = field(default_factory=set)
    failures: list[FailureRecord] = field(default_factory=list)
    reshards: list[ReshardRecord] = field(default_factory=list)
    promotions: list[PromotionRecord] = field(default_factory=list)
    downtime: float = 0.0
    recovery_time: float = 0.0
    records_replayed: int = 0
    transactions_replayed: int = 0
    checkpoints: int = 0
    #: Frames each stream has not finished yet (failback skips drained streams).
    frames_left: dict[str, int] = field(default_factory=dict)
    #: True while an open-loop traffic source may still mint streams.
    source_active: bool = False
    #: Open-loop accounting; None on the closed-loop path.
    traffic: TrafficStats | None = None
    #: Per-stream admission control of an open-loop run.
    admission: AdmissionController | None = None
    #: Per-frame load shedder of an open-loop run (None: never shed).
    shedder: LoadShedder | None = None
    #: Streaming per-frame aggregates of a fast-path run (None on the
    #: default full-recording path).
    frame_stats: FrameStatsAccumulator | None = None
    #: Per-stream threshold controllers of an adaptive run (None when
    #: ``threshold_adaptation`` is off — the static-policy path).
    adaptation: AdaptationManager | None = None


class ClusterSystem:
    """A multi-edge Croesus deployment over one partitioned store.

    Parameters
    ----------
    config:
        Cluster deployment configuration.
    bank_factory:
        Optional per-edge transactions-bank builder.  The default
        registers a YCSB-A rule per replica, mirroring the single-edge
        default; see :func:`hotspot_bank_factory` for the contention
        scenario.
    """

    def __init__(self, config: ClusterConfig, bank_factory: BankFactory | None = None) -> None:
        self.config = config
        base = config.base
        self.rngs = RngRegistry(base.seed)
        # The fast path bounds the event log: per-kind counts stay exact,
        # only the retained window of event objects is capped.  When no
        # configured machinery needs the retained window (failure /
        # re-sharding timelines, batch-flush profiles), the log drops to
        # count-only and per-frame records cost two dict increments.
        if config.record_frames:
            event_capacity = None
        elif (
            config.failure_schedule
            or config.failure_hazard_rate is not None
            or config.resharding
            or config.checkpoint_interval_s is not None
            or config.replication_factor > 1
            or config.wal_group_commit_window_s is not None
            or config.threshold_adaptation is not None
            or base.transaction_policy == "batched-2pc"
        ):
            event_capacity = FAST_PATH_EVENT_CAPACITY
        else:
            event_capacity = 0
        self.events = EventLog(capacity=event_capacity)
        self.policy = ThresholdPolicy(base.lower_threshold, base.upper_threshold)
        self.store = PartitionedStore(config.num_partitions)
        self.scheduler = FrameScheduler(config.frame_interval)

        consistency = "ms-sr" if base.consistency is ConsistencyLevel.MS_SR else "ms-ia"
        machines = config.edge_machines or (base.topology.edge_machine,)
        if bank_factory is None:
            bank_factory = self._default_bank_factory

        # Coordinator <-> participant messaging rides an intra-cluster
        # (same-region) link with its own stream per replica, so policies
        # that model it never perturb the seeded draws of the frame
        # pipeline.  All channels are built up front: a prepare phase
        # draws each participant's *voting* latency from the participant
        # replica's own channel (resolved through the partition-home map,
        # which re-sharding updates at runtime).
        self._coordinator_channels = [
            Channel(
                SAME_REGION,
                self.rngs.stream(f"txn-coordinator-{edge_id}"),
                record_transfers=config.record_frames,
            )
            for edge_id in range(config.num_edges)
        ]
        #: partition id -> edge currently hosting it (mutated by re-sharding).
        self._partition_home = {
            partition_id: partition_id // config.partitions_per_edge
            for partition_id in range(config.num_partitions)
        }

        self.replicas: list[EdgeReplica] = []
        self._client_edge: list[Channel] = []
        self._edge_cloud: list[Channel] = []
        for edge_id in range(config.num_edges):
            owned = frozenset(
                range(
                    edge_id * config.partitions_per_edge,
                    (edge_id + 1) * config.partitions_per_edge,
                )
            )
            replica = EdgeReplica(
                edge_id=edge_id,
                profile=base.edge_profile,
                machine=machines[edge_id % len(machines)],
                bank=bank_factory(edge_id),
                rng=self.rngs.stream(f"edge-model-{edge_id}"),
                store=self.store,
                owned_partitions=owned,
                consistency=consistency,
                min_confidence=base.min_confidence,
                match_overlap=base.match_overlap,
                transaction_policy=base.transaction_policy,
                coordinator_channel=self._coordinator_channels[edge_id],
                discipline=config.edge_discipline,
                vote_channel_for=self._vote_channel_resolver(),
                server_factory=self._edge_server_factory(edge_id),
            )
            replica.policy.on_flush = self._make_flush_recorder(edge_id)
            self.replicas.append(replica)
            self._client_edge.append(
                Channel(
                    base.topology.client_edge_link,
                    self.rngs.stream(f"client-edge-{edge_id}"),
                    record_transfers=config.record_frames,
                )
            )
            self._edge_cloud.append(
                Channel(
                    base.topology.edge_cloud_link,
                    self.rngs.stream(f"edge-cloud-{edge_id}"),
                    record_transfers=config.record_frames,
                )
            )

        self.cloud = CloudNode(
            profile=base.cloud_profile,
            machine=base.topology.cloud_machine,
            rng=self.rngs.stream("cloud-model"),
        )
        self.router = make_router(
            config.router_policy,
            config.num_edges,
            rng=self.rngs.stream("router"),
            compute_scales=[replica.machine.compute_scale for replica in self.replicas],
            hot_fraction=config.hotspot_fraction,
            migration_high=config.migration_high,
            migration_low=config.migration_low,
        )

        # Replication and group-commit observe WAL appends through the
        # ship hook.  Everything here is conditional: at the default
        # replication_factor=1 with no group-commit window, no channels,
        # RNG streams, or hooks exist and seeded runs stay bit-for-bit.
        #: Engine of the run in flight (the WAL ship hook needs ``now``
        #: and ``schedule`` from synchronous, non-process context).
        self._run_engine: Engine | None = None
        self._replication_channels: list[Channel] = []
        self._replication: ReplicationManager | None = None
        if config.replication_factor > 1:
            self._replication_channels = [
                Channel(
                    SAME_REGION,
                    self.rngs.stream(f"replication-{edge_id}"),
                    record_transfers=config.record_frames,
                )
                for edge_id in range(config.num_edges)
            ]
            self._replication = ReplicationManager(
                store=self.store,
                partition_home=self._partition_home,
                num_edges=config.num_edges,
                factor=config.replication_factor,
                mode=config.replication_mode,
                channel_for=self._replication_channels.__getitem__,
            )
        if config.wal_group_commit_window_s is not None:
            for replica in self.replicas:
                replica.policy.configure_group_commit(config.wal_group_commit_window_s)
        if self._replication is not None or config.wal_group_commit_window_s is not None:
            for partition_id in range(config.num_partitions):
                self.store.partition(partition_id).wal.on_append = self._make_wal_observer(
                    partition_id
                )

    def _edge_server_factory(self, edge_id: int):
        """Server builder for one replica, honouring the engine knobs.

        ``None`` (the default full-recording :class:`Server`) unless the
        config selects the preserved reference implementation or the
        fast path's streaming statistics + interval retention.
        """
        config = self.config
        discipline = config.edge_discipline
        name = f"edge-{edge_id}"
        if config.reference_engine:
            return lambda: ReferenceServer(capacity=1, name=name, discipline=discipline)
        if config.record_frames:
            return None
        return lambda: Server(
            capacity=1,
            name=name,
            discipline=discipline,
            record_jobs=False,
            interval_retention=FAST_PATH_INTERVAL_RETENTION,
        )

    def _make_cloud_server(self) -> Server:
        """Cloud server of one run, on the same engine variant as the edges."""
        config = self.config
        if config.reference_engine:
            return ReferenceServer(capacity=config.cloud_servers, name="cloud")
        if config.record_frames:
            return Server(capacity=config.cloud_servers, name="cloud")
        return Server(
            capacity=config.cloud_servers,
            name="cloud",
            record_jobs=False,
            interval_retention=FAST_PATH_INTERVAL_RETENTION,
        )

    def _vote_channel_resolver(self):
        """Channel of the replica hosting a partition (vote latency).

        Participant-side prepare votes are drawn from the *participant's*
        link, not the coordinator's; the partition-home map keeps the
        resolution correct across runtime re-shards.  The resolver closes
        over the map and the channels, not the system, so the replicas
        holding it form no reference cycle with the system.
        """
        partition_home = self._partition_home
        channels = self._coordinator_channels

        def vote_channel_for(partition_id: int) -> Channel | None:
            edge_id = partition_home.get(partition_id)
            if edge_id is None:
                return None
            return channels[edge_id]

        return vote_channel_for

    def _make_flush_recorder(self, edge_id: int):
        """Event-log hook for one replica's batched-coordinator flushes.

        Closes over the event log, not the system (no reference cycle).
        """
        events = self.events

        def record(when: float, transactions: int, remote: frozenset[int], duration: float) -> None:
            events.record(
                when,
                "txn_batch_flush",
                edge=edge_id,
                transactions=transactions,
                participants=len(remote),
                duration=duration,
            )

        return record

    def _make_wal_observer(self, partition_id: int):
        """Ship hook of one partition's redo log.

        Fired synchronously inside every committed write: the hosting
        replica's policy accounts the append (group-commit flush
        amortisation), and the replication manager — when configured —
        ships the record to the partition's backups as engine events.
        """

        owner = weakref.ref(self)  # the store's log must not keep the system alive

        def on_append(record) -> None:
            system = owner()
            if system is None:
                return
            engine = system._run_engine
            now = engine.now if engine is not None else 0.0
            home = system._partition_home.get(partition_id)
            if home is not None:
                system.replicas[home].policy.observe_wal_append(now)
            if system._replication is not None:
                shipped = system._replication.ship(partition_id, record, now)
                if shipped:
                    system.events.record(
                        now,
                        "log_shipped",
                        partition=partition_id,
                        lsn=record.lsn,
                        backups=shipped,
                    )

        return on_append

    # -- public API ---------------------------------------------------------
    def run(self, streams: Sequence[SyntheticVideo]) -> ClusterRunResult:
        """Run every stream to completion and return the cluster result.

        Streams are placed on edges by the configured router, their
        frames interleaved onto one global timeline, and every frame
        becomes one process on the discrete-event engine: the initial
        stage runs on the frame's (possibly migrated) home replica, the
        cloud round trip — contending for the finite cloud servers when
        :attr:`ClusterConfig.cloud_servers` is set — overlaps with other
        frames on the same edge, and the final stage queues again at the
        replica.  Each call starts from fresh servers and a clean event
        log, and reports only its own transactions; note that reusing a
        system continues the random streams, so build a fresh
        :class:`ClusterSystem` when two runs must reproduce each other
        bit for bit.  The *durable* state — the partitioned store and
        its write-ahead logs — intentionally persists across runs: a
        crash in a later run recovers everything earlier runs committed,
        so that run's replay metrics cover the accumulated log tail, and
        a re-shard that already ran is a no-op the second time.
        """
        if not streams:
            raise ValueError("need at least one stream")
        names = [video.name for video in streams]
        if len(set(names)) != len(names):
            raise ValueError("stream names must be unique")

        self.events.clear()
        for replica in self.replicas:
            replica.reset_run_state()
        placements = self.router.assign(names)
        for name, edge_id in zip(names, placements):
            self.replicas[edge_id].assign_stream(name)

        record_frames = self.config.record_frames
        clients: list[Client | None]
        if record_frames:
            clients = [Client(video) for video in streams]
        else:
            # Fast path: no client-response accretion; per-frame results
            # fold into the streaming accumulator instead of traces.
            clients = [None] * len(streams)
        results = {
            name: RunResult(system_name="croesus-cluster", video_key=name) for name in names
        }

        pre_stats, pre_records, pre_policy, pre_failure_aborts = self._pre_snapshot()

        # Per-run execution state shared by the frame processes.
        state = _RunState(
            engine=Engine(),
            cloud_server=self._make_cloud_server(),
            current_edge=dict(zip(names, placements)),
            frames_on_edge=[0] * len(self.replicas),
            failed=[False] * len(self.replicas),
            wake_at=[0.0] * len(self.replicas),
        )
        self._bind_run_engine(state)
        state.adaptation = self._make_adaptation_manager()
        if not record_frames:
            state.frame_stats = FrameStatsAccumulator()
        state.frames_left = {video.name: video.num_frames for video in streams}
        if record_frames:
            arrivals = list(self.scheduler.interleave(streams, placements))
            state.frames_remaining = len(arrivals)
            for arrival in arrivals:
                state.engine.spawn(
                    self._frame_process(state, arrival, clients[arrival.stream_index], results),
                    at=arrival.arrival_time,
                    name=f"{arrival.stream_name}-frame-{arrival.frame.frame_id}",
                )
            horizon = arrivals[-1].arrival_time if arrivals else 0.0
        else:
            # Fast path: one driver process per stream instead of one
            # suspended generator per frame; the drivers reproduce the
            # interleaver's phase-shifted per-stream timing.
            state.frames_remaining = sum(video.num_frames for video in streams)
            interval = self.scheduler.frame_interval
            horizon = 0.0
            for index, (video, edge_id) in enumerate(zip(streams, placements)):
                offset = index * interval / max(1, len(streams))
                if video.num_frames:
                    horizon = max(horizon, offset + (video.num_frames - 1) * interval)
                state.engine.spawn(
                    self._stream_process(state, video, offset, edge_id, clients[index], results),
                    at=offset,
                    name=f"{video.name}-driver",
                )
        self._configure_load_tracking(state)
        self._spawn_run_processes(state, horizon)
        with _gc_suspended(not self.config.record_frames):
            state.engine.run()
        # Flush any coordinator batches still open at the end of the run
        # (latency lands in the policy stats; no frame is left waiting).
        for replica in self.replicas:
            replica.policy.commit(now=state.makespan)

        return self._collect(
            names,
            placements,
            results,
            state,
            pre_stats,
            pre_records,
            pre_policy,
            pre_failure_aborts,
        )

    def run_open_loop(self, traffic: TrafficConfig) -> ClusterRunResult:
        """Serve an open-loop arrival process instead of a finite list.

        A :class:`~repro.traffic.source.TrafficSource` runs as one more
        engine process, minting camera streams at seeded arrival
        instants until ``traffic.duration_s`` (stop-at-time: streams
        admitted before the horizon run to completion, nothing new
        arrives after it).  Each arriving stream passes the configured
        admission controller — rejected streams never touch an edge —
        and each admitted frame may still be shed at its edge by the
        apology-budgeted load shedder when the edge is saturated.  The
        result's :attr:`~ClusterRunResult.traffic` carries the
        offered/admitted/shed accounting; everything else reads exactly
        like a closed-loop result.
        """
        self.events.clear()
        for replica in self.replicas:
            replica.reset_run_state()

        names: list[str] = []
        placements: list[int] = []
        clients: dict[str, Client | None] = {}
        results: dict[str, RunResult] = {}

        pre_stats, pre_records, pre_policy, pre_failure_aborts = self._pre_snapshot()

        state = _RunState(
            engine=Engine(),
            cloud_server=self._make_cloud_server(),
            current_edge={},
            frames_on_edge=[0] * len(self.replicas),
            failed=[False] * len(self.replicas),
            wake_at=[0.0] * len(self.replicas),
        )
        self._bind_run_engine(state)
        state.adaptation = self._make_adaptation_manager()
        if not self.config.record_frames:
            state.frame_stats = FrameStatsAccumulator()
        state.traffic = TrafficStats()
        state.source_active = True
        state.admission = make_admission(traffic.admission, rate=traffic.admission_rate)
        if traffic.apology_budget is not None:
            state.shedder = LoadShedder(
                traffic.shed_threshold, ApologyBudget(traffic.apology_budget)
            )

        source = TrafficSource(traffic, self.rngs)

        def deliver(video: SyntheticVideo) -> None:
            self._admit_stream(state, video, names, placements, clients, results)

        def source_process():
            yield from source.drive(state.engine, deliver)
            state.source_active = False

        state.engine.spawn(source_process(), at=0.0, name="traffic-source")
        self._configure_load_tracking(state)
        self._spawn_run_processes(state, horizon=traffic.duration_s)
        with _gc_suspended(not self.config.record_frames):
            state.engine.run()
        for replica in self.replicas:
            replica.policy.commit(now=state.makespan)

        return self._collect(
            names,
            placements,
            results,
            state,
            pre_stats,
            pre_records,
            pre_policy,
            pre_failure_aborts,
        )

    # -- shared run setup ---------------------------------------------------
    def _bind_run_engine(self, state: "_RunState") -> None:
        """Point the WAL ship hook at this run's engine, reset ship stats."""
        self._run_engine = state.engine
        if self._replication is not None:
            self._replication.begin_run(state.engine)

    def _configure_load_tracking(self, state: "_RunState") -> None:
        """Switch off per-server interval retention when nothing reads load.

        Windowed :meth:`~repro.sim.engine.Server.load` queries are
        consumed by the load shedder, the migrating router and the
        failure/failover machinery.  A fast-path run with none of those
        configured never calls ``load``, so the per-completion interval
        bookkeeping is pure overhead; the recorded and reference paths
        keep it on, exactly as the pre-optimization engine did.
        """
        config = self.config
        if config.record_frames:
            return
        if (
            state.shedder is not None
            or isinstance(self.router, MigratingRouter)
            or config.failure_schedule
            or config.failure_hazard_rate is not None
            or config.failback
        ):
            return
        for replica in self.replicas:
            replica.server.track_intervals = False
        state.cloud_server.track_intervals = False

    def _make_adaptation_manager(self) -> AdaptationManager | None:
        """Fresh per-run threshold controllers, or ``None`` when off."""
        config = self.config
        if config.threshold_adaptation is None:
            return None
        return AdaptationManager(
            AdaptationConfig(
                mode=config.threshold_adaptation,
                interval_s=config.adaptation_interval_s,
                target_f=config.adaptation_target_f,
            ),
            base_policy=self.policy,
            match_overlap=config.base.match_overlap,
        )

    def _adaptation_process(self, state: "_RunState"):
        """Periodic engine process ticking every stream's controller."""
        manager = state.adaptation
        interval = self.config.adaptation_interval_s
        while state.frames_remaining > 0 or state.source_active:
            for update in manager.adapt_all(state.engine.now):
                self.events.record(
                    state.engine.now,
                    "threshold_adapted",
                    stream=update.stream,
                    mode=update.mode,
                    lower=update.lower,
                    upper=update.upper,
                )
            yield interval

    def _pre_snapshot(self):
        """Snapshot controller state so a run reports only its own work."""
        pre_stats = [
            (r.stats.initial_commits, r.stats.final_commits, r.stats.aborts)
            for r in self.replicas
        ]
        pre_records = [frozenset(r.controller.commit_records) for r in self.replicas]
        pre_policy = [r.policy.policy_stats.snapshot() for r in self.replicas]
        return pre_stats, pre_records, pre_policy, self.store.failure_aborts

    def _spawn_run_processes(self, state: "_RunState", horizon: float) -> None:
        """Spawn the failure/reshard/checkpoint processes of one run.

        ``horizon`` bounds the hazard-mode failure draws: the last frame
        arrival of a closed-loop run, or the traffic source's
        ``duration_s`` in an open-loop one.
        """
        injector = FailureInjector(
            schedule=self.config.failure_schedule,
            hazard_rate=self.config.failure_hazard_rate,
            outage_s=self.config.failure_outage_s,
        )
        schedule = injector.draw_schedule(
            num_edges=self.config.num_edges,
            horizon=horizon,
            rng=(
                self.rngs.stream("failure-hazard")
                if self.config.failure_hazard_rate is not None
                else None
            ),
        )
        for spec in schedule:
            state.engine.spawn(
                self._failure_process(state, spec),
                at=spec.fail_at,
                name=f"failure-edge-{spec.edge_id}",
            )
        for move in self.config.resharding:
            state.engine.schedule(
                move.at, lambda move=move: self._apply_reshard(state, move)
            )
        if self.config.checkpoint_interval_s is not None:
            state.engine.spawn(
                self._checkpoint_process(state),
                at=self.config.checkpoint_interval_s,
                name="checkpointer",
            )
        if state.adaptation is not None:
            state.engine.spawn(
                self._adaptation_process(state),
                at=self.config.adaptation_interval_s,
                name="threshold-adapter",
            )

    def _admit_stream(
        self,
        state: "_RunState",
        video: SyntheticVideo,
        names: list[str],
        placements: list[int],
        clients: dict[str, Client | None],
        results: dict[str, RunResult],
    ) -> None:
        """Admission-control one arriving stream; spawn its frames if it enters."""
        engine = state.engine
        stats = state.traffic
        now = engine.now
        frames = video.num_frames
        stats.offered_streams += 1
        stats.offered_frames += frames
        # Best-case backlog: the wait a frame would face at the least
        # backlogged live edge right now (the queue-threshold signal).
        # Probing it is a scan over every live edge, so fast-path runs
        # skip it when the controller ignores the signal; recorded runs
        # always compute it — the stream_arrival payload carries it.
        if self.config.record_frames or state.admission.needs_backlog:
            backlog = min(
                (
                    replica.server.backlog(now)
                    for replica in self.replicas
                    if not state.failed[replica.edge_id]
                ),
                default=float("inf"),
            )
        else:
            backlog = 0.0
        admitted = state.admission.admit(now, backlog)
        self.events.record(
            now,
            "stream_arrival",
            stream=video.name,
            frames=frames,
            admitted=admitted,
            backlog_s=backlog,
        )
        if not admitted:
            stats.rejected_streams += 1
            return
        edge_id = self.router.place(video.name)
        if state.failed[edge_id]:
            edge_id = self._failover_target(state, now)
        self.replicas[edge_id].assign_stream(video.name)
        names.append(video.name)
        placements.append(edge_id)
        state.current_edge[video.name] = edge_id
        state.frames_left[video.name] = frames
        state.frames_remaining += frames
        stats.admitted_streams += 1
        stats.admitted_frames += frames
        client = Client(video) if self.config.record_frames else None
        clients[video.name] = client
        results[video.name] = RunResult(system_name="croesus-cluster", video_key=video.name)
        if self.config.record_frames:
            for arrival in self.scheduler.stream_arrivals(video, start=now, edge_id=edge_id):
                engine.spawn(
                    self._frame_process(state, arrival, client, results),
                    at=arrival.arrival_time,
                    name=f"{arrival.stream_name}-frame-{arrival.frame.frame_id}",
                )
        else:
            # Fast path: one driver process per stream walks the frame
            # sequence and delegates into the per-frame pipeline, instead
            # of materialising one suspended generator per frame up
            # front — generator lifetime is bounded by one frame, not by
            # the whole stream's span.
            engine.spawn(
                self._stream_process(state, video, now, edge_id, client, results),
                at=now,
                name=f"{video.name}-driver",
            )

    def _stream_process(
        self,
        state: "_RunState",
        video: SyntheticVideo,
        start: float,
        edge_id: int,
        client: Client | None,
        results: dict[str, RunResult],
    ):
        """Fast-path driver: one engine process runs a whole stream's frames.

        Walks the stream's frame sequence, sleeps until each arrival
        instant, and runs the whole per-frame pipeline *inline* — the
        specialised twin of :meth:`_frame_process` for the
        ``record_frames=False`` configuration (``client`` is always
        ``None`` here).  One generator per stream instead of one per
        frame, no :class:`FrameArrival` boxing, loop-invariant lookups
        hoisted out of the frame loop, and the one-shot
        ``Server.acquire``/``finish`` admission path instead of
        :class:`~repro.sim.engine.Admission` records.  Every simulated
        quantity — and every RNG draw — is computed in the same order
        and with the same float arithmetic as :meth:`_frame_process`,
        which the fast-vs-recorded agreement tests in
        ``tests/test_fast_path.py`` pin down.

        Frames of one stream run back-to-back: exact whenever a frame
        finishes before the next arrives (the pure-edge regime the
        scale-stress scenario exercises, where the per-frame pipeline
        never suspends), and a serialising approximation when a frame's
        cloud round trip overlaps its successor's arrival.
        """
        engine = state.engine
        stats = state.frame_stats
        traffic = state.traffic
        events = self.events
        counting = events.capacity == 0
        policy = self.policy
        adaptation = state.adaptation
        cloud = self.cloud
        replicas = self.replicas
        cloud_server = state.cloud_server
        current_edge = state.current_edge
        failed = state.failed
        frames_left = state.frames_left
        frames_on_edge = state.frames_on_edge
        shedder = state.shedder
        migrating = isinstance(self.router, MigratingRouter)
        migration_window = self.config.migration_window
        match_overlap = self.config.base.match_overlap
        min_confidence = self.config.base.min_confidence
        interval = self.scheduler.frame_interval
        name = video.name
        result = results[name]

        # Per-edge bindings, refreshed only when routing moves the stream.
        bound_edge = -1
        replica = server = node = rpolicy = channel = edge_cloud = None
        priority_serving = False
        node_idle = False

        for frame in video.frames():
            arrival_time = start + frame.frame_id * interval
            if arrival_time > engine.now:
                yield At(arrival_time)

            # -- routing (identical to _route_arrival) ------------------
            if migrating:
                edge_id = self._route_arrival(state, name)
            else:
                edge_id = current_edge[name]
            if edge_id != bound_edge:
                bound_edge = edge_id
                replica = replicas[edge_id]
                server = replica.server
                node = replica.node
                rpolicy = replica.policy
                channel = self._client_edge[edge_id]
                edge_cloud = self._edge_cloud[edge_id]
                priority_serving = server.priority_serving
                # An idle node (no trigger rules, no feedback loop) makes
                # both TPC stages pure label plumbing — inlined below.
                node_idle = (
                    not node.bank.rules
                    and node.smoother is None
                    and node.feedback is None
                )

            now = engine.now
            if shedder is not None:
                load = server.load(now, window=migration_window)
                if shedder.should_shed(now, load):
                    traffic.shed_frames += 1
                    traffic.apologies_spent += 1
                    if counting:
                        events.bump("frame_shed")
                    else:
                        events.record(
                            now,
                            "frame_shed",
                            frame_id=frame.frame_id,
                            stream=name,
                            edge=edge_id,
                            load=load,
                        )
                    if now > state.makespan:
                        state.makespan = now
                    state.frames_remaining -= 1
                    left = frames_left.get(name)
                    if left is not None:
                        frames_left[name] = left - 1
                    continue

            # -- initial stage ------------------------------------------
            edge_transfer = channel.send(frame.size_bytes, now, "")
            start_t, queue_delay = server.acquire(
                now + edge_transfer, 1 if priority_serving else 0
            )
            edge_labels_raw, edge_detection = node.detect(frame)
            if node_idle:
                # process_initial_stage with an empty bank and no
                # feedback: filter, wrap, trigger nothing.
                initial = InitialStageOutcome(
                    frame_id=frame.frame_id,
                    raw_labels=edge_labels_raw,
                    labels=edge_labels_raw.filter_confidence(min_confidence),
                    detection_latency=edge_detection,
                )
            else:
                initial = node.process_initial_stage(
                    frame,
                    edge_labels_raw,
                    now=start_t + edge_detection,
                    detection_latency=edge_detection,
                )
            initial_charge, _ = rpolicy.drain_frame_costs()
            initial_done = server.finish(
                start_t, edge_detection + initial.txn_latency + initial_charge
            )
            frames_on_edge[edge_id] += 1
            if counting:
                events.bump("initial_commit")
            else:
                events.record(
                    initial_done,
                    "initial_commit",
                    frame_id=frame.frame_id,
                    stream=name,
                    edge=edge_id,
                )

            if adaptation is not None:
                policy = adaptation.policy_for(name)
            send_to_cloud = policy.should_validate(initial.labels)

            # The cloud model always runs for ground truth; its cost is
            # only charged when the frame is actually validated.
            cloud_labels, cloud_detection_raw = cloud.detect(frame)

            cloud_transfer = 0.0
            cloud_detection = 0.0
            cloud_queue_delay = 0.0
            frame_bytes_sent = 0
            if send_to_cloud:
                uplink, downlink = edge_cloud.round_trip(
                    frame.size_bytes, LABELS_MESSAGE_BYTES, timestamp=initial_done
                )
                cloud_transfer = uplink + downlink
                cloud_detection = cloud_detection_raw
                frame_bytes_sent = frame.size_bytes
                # Request a cloud server only once the frame is actually
                # at the cloud (see _frame_process).
                yield At(initial_done + uplink)
                cloud_start, cloud_queue_delay = cloud_server.acquire(engine.now)
                cloud_server.finish(cloud_start, cloud_detection)
                if counting:
                    events.bump("cloud_validate")
                else:
                    events.record(
                        cloud_start,
                        "cloud_validate",
                        frame_id=frame.frame_id,
                        stream=name,
                        edge=edge_id,
                        queue_delay=cloud_queue_delay,
                    )
                final_ready = (
                    initial_done + cloud_transfer + cloud_detection + cloud_queue_delay
                )
            else:
                final_ready = initial_done

            # Suspend until the corrected labels are back; the replica
            # keeps serving other frames meanwhile.
            yield At(final_ready)

            # Resolve failure-aborted transactions before the final
            # sections run (see _frame_process).
            failure_apologies: tuple[str, ...] = ()
            if state.aborted_txns:
                aborted_here = [
                    entry
                    for entry in initial.triggered
                    if not entry.aborted
                    and entry.transaction.transaction_id in state.aborted_txns
                ]
                for entry in aborted_here:
                    entry.aborted = True
                failure_apologies = tuple(
                    apology
                    for entry in aborted_here
                    for apology in entry.transaction.apologies
                )

            frame_aborted = False
            if failed[edge_id] and not initial.committed:
                frame_aborted = True
                final = FinalStageOutcome(
                    frame_id=frame.frame_id, match_report=None, apologies=failure_apologies
                )
                final_wait = 0.0
                final_charge = 0.0
                overlap_saved = 0.0
                final_done = engine.now
                if final_done > state.makespan:
                    state.makespan = final_done
                if counting:
                    events.bump("final_aborted")
                else:
                    events.record(
                        final_done,
                        "final_aborted",
                        frame_id=frame.frame_id,
                        stream=name,
                        edge=edge_id,
                    )
            else:
                while failed[edge_id]:
                    # Park until the replica has replayed its log and
                    # rejoined (low event priority: same-instant recovery
                    # flips the flag first).
                    wake = state.wake_at[edge_id]
                    yield At(wake if wake > engine.now else engine.now, 2)
                final_ready_at = engine.now
                if priority_serving:
                    # A queued final does not hold a reservation (see
                    # _frame_process).
                    while True:
                        next_free = server.next_free()
                        if next_free <= engine.now:
                            break
                        yield At(next_free, 1)
                final_start, final_wait = server.acquire(final_ready_at)
                if node_idle and not send_to_cloud:
                    # process_final_stage with nothing to finalise and no
                    # cloud correction is a frame-id wrapper.
                    final = FinalStageOutcome(
                        frame_id=frame.frame_id, match_report=None
                    )
                else:
                    final = node.process_final_stage(
                        initial,
                        cloud_labels if send_to_cloud else None,
                        now=final_start,
                    )
                if failure_apologies:
                    final.apologies = final.apologies + failure_apologies
                final_charge, overlap_saved = rpolicy.drain_frame_costs()
                final_done = server.finish(final_start, final.txn_latency + final_charge)
                if final_done > state.makespan:
                    state.makespan = final_done
                if counting:
                    events.bump("final_commit")
                else:
                    events.record(
                        final_done,
                        "final_commit",
                        frame_id=frame.frame_id,
                        stream=name,
                        edge=edge_id,
                    )

            observed = observed_labels(
                policy.surviving_labels(initial.labels),
                cloud_labels,
                send_to_cloud,
                initial.frame_id,
                match_overlap,
                final.match_report,
            )
            accuracy = evaluate_detections(
                observed, cloud_labels, min_overlap=match_overlap
            )
            stats.record_frame(
                edge_transfer,
                edge_detection,
                initial.txn_latency,
                cloud_transfer,
                cloud_detection,
                final.txn_latency,
                queue_delay,
                final_wait,
                cloud_queue_delay,
                initial_charge + final_charge,
                overlap_saved,
                accuracy,
                send_to_cloud,
                frame_bytes_sent,
                len(initial.triggered),
                final.corrections,
                len(final.apologies),
            )
            if adaptation is not None:
                trace = None
                if send_to_cloud and adaptation.wants_traces:
                    # Boxed only for the retune tuner, and only for the
                    # validated frames whose cloud labels the stream's
                    # controller legitimately observed.
                    trace = FrameTrace(
                        frame_id=frame.frame_id,
                        edge_labels=initial.labels,
                        cloud_labels=cloud_labels,
                        observed_labels=observed,
                        sent_to_cloud=True,
                        latency=LatencyBreakdown(
                            edge_transfer=edge_transfer,
                            edge_detection=edge_detection,
                            initial_txn=initial.txn_latency,
                            cloud_transfer=cloud_transfer,
                            cloud_detection=cloud_detection,
                            final_txn=final.txn_latency,
                            queue_delay=queue_delay,
                            final_queue_delay=final_wait,
                            cloud_queue_delay=cloud_queue_delay,
                            commit_protocol=initial_charge + final_charge,
                            commit_overlap_saved=overlap_saved,
                        ),
                        accuracy=accuracy,
                        edge_id=edge_id,
                    )
                adaptation.observe_frame(
                    name, send_to_cloud, final.corrections, trace, final.match_report
                )
            result.frames_streamed += 1
            if traffic is not None and not frame_aborted:
                traffic.completed_frames += 1
            state.frames_remaining -= 1
            left = frames_left.get(name)
            if left is not None:
                frames_left[name] = left - 1

    # -- per-frame pipeline -------------------------------------------------
    def _frame_process(
        self,
        state: "_RunState",
        arrival: FrameArrival,
        client: Client | None,
        results: dict[str, RunResult],
    ):
        """Engine process running one frame through the two-stage flow.

        ``client`` is ``None`` on the fast path (``record_frames=False``):
        no client responses are rendered and the frame's outcome folds
        into ``state.frame_stats`` instead of a retained trace.
        """
        engine = state.engine
        edge_id = self._route_arrival(state, arrival.stream_name)
        replica = self.replicas[edge_id]
        frame = arrival.frame

        if state.shedder is not None:
            # Overload control: on a saturated edge, degrade this frame's
            # initial stage to an apology (if the budget pays for it)
            # instead of queueing it.  The client hears back immediately;
            # the edge never sees the frame.
            load = replica.server.load(engine.now, window=self.config.migration_window)
            if state.shedder.should_shed(engine.now, load):
                state.traffic.shed_frames += 1
                state.traffic.apologies_spent += 1
                self.events.record(
                    engine.now,
                    "frame_shed",
                    frame_id=frame.frame_id,
                    stream=arrival.stream_name,
                    edge=edge_id,
                    load=load,
                )
                if client is not None:
                    client.render(
                        ClientResponse(
                            frame_id=frame.frame_id,
                            stage="final",
                            payload=None,
                            apologies=(SHED_APOLOGY,),
                            timestamp=engine.now,
                        )
                    )
                state.makespan = max(state.makespan, engine.now)
                self._finish_frame(state, arrival.stream_name)
                return

        recording = client is not None
        edge_transfer = self._client_edge[edge_id].send(
            frame.size_bytes,
            timestamp=engine.now,
            description=f"{arrival.stream_name}-frame-{frame.frame_id}" if recording else "",
        )
        # The frame holds its place in the edge's queue from the moment it
        # arrives; service cannot start before the client->edge transfer
        # lands (the admission's ready time).  Under the priority
        # discipline, initial stages reserve eagerly (priority 1) while
        # final stages defer their admission until the server is really
        # free — so an arriving initial always overtakes queued finals.
        priority_serving = replica.server.discipline == "priority"
        admission = replica.server.admit(
            engine.now + edge_transfer, priority=1 if priority_serving else 0
        )
        queue_delay = admission.wait

        edge_labels_raw, edge_detection = replica.node.detect(frame)
        initial = replica.node.process_initial_stage(
            frame,
            edge_labels_raw,
            now=admission.start + edge_detection,
            detection_latency=edge_detection,
        )
        initial_charge, _ = replica.policy.drain_frame_costs()
        initial_done = replica.server.complete(
            admission, edge_detection + initial.txn_latency + initial_charge
        )
        state.frames_on_edge[edge_id] += 1
        if client is not None:
            client.render(
                ClientResponse(
                    frame_id=frame.frame_id,
                    stage="initial",
                    payload=[entry.initial_result for entry in initial.committed],
                    timestamp=initial_done,
                )
            )
        self.events.record(
            initial_done,
            "initial_commit",
            frame_id=frame.frame_id,
            stream=arrival.stream_name,
            edge=edge_id,
        )

        adaptation = state.adaptation
        policy = (
            self.policy
            if adaptation is None
            else adaptation.policy_for(arrival.stream_name)
        )
        send_to_cloud = policy.should_validate(initial.labels)

        # The cloud model always runs for ground truth; its cost is only
        # charged when the frame is actually validated.
        cloud_labels, cloud_detection_raw = self.cloud.detect(frame)

        cloud_transfer = 0.0
        cloud_detection = 0.0
        cloud_queue_delay = 0.0
        frame_bytes_sent = 0
        if send_to_cloud:
            uplink, downlink = self._edge_cloud[edge_id].round_trip(
                frame.size_bytes,
                LABELS_MESSAGE_BYTES,
                timestamp=initial_done,
                up_description=f"{arrival.stream_name}-frame-{frame.frame_id}" if recording else "",
                down_description=f"{arrival.stream_name}-labels-{frame.frame_id}" if recording else "",
            )
            cloud_transfer = uplink + downlink
            cloud_detection = cloud_detection_raw
            frame_bytes_sent = frame.size_bytes
            # Request a cloud server only once the frame is actually at
            # the cloud: frames reaching it first are served first, and a
            # frame stuck behind a backlogged edge cannot hold a place in
            # the cloud queue while the cloud sits idle.
            yield engine.at(initial_done + uplink)
            cloud_start, cloud_queue_delay = state.cloud_server.reserve(
                engine.now, cloud_detection
            )
            self.events.record(
                cloud_start,
                "cloud_validate",
                frame_id=frame.frame_id,
                stream=arrival.stream_name,
                edge=edge_id,
                queue_delay=cloud_queue_delay,
            )
            # Summed in this order (waiting time last) so that with an
            # unbounded cloud the arithmetic — and therefore every seeded
            # run — is bit-for-bit what the pre-engine model produced.
            final_ready = initial_done + cloud_transfer + cloud_detection + cloud_queue_delay
        else:
            final_ready = initial_done

        # Suspend until the corrected labels are back; the replica keeps
        # serving other frames meanwhile.
        yield engine.at(final_ready)

        # Resolve failure-aborted transactions before the final sections
        # run: the crash removed their pending finals from the controller,
        # and each carries the apology the failure recorded.
        failure_apologies: tuple[str, ...] = ()
        if state.aborted_txns:
            aborted_here = [
                entry
                for entry in initial.triggered
                if not entry.aborted
                and entry.transaction.transaction_id in state.aborted_txns
            ]
            for entry in aborted_here:
                entry.aborted = True
            failure_apologies = tuple(
                apology
                for entry in aborted_here
                for apology in entry.transaction.apologies
            )

        frame_aborted = False
        if state.failed[edge_id] and not initial.committed:
            # Home replica down and nothing left to finalise (the failure
            # aborted this frame's transactions, or it triggered none):
            # the client gets the apologies now instead of a correction.
            frame_aborted = True
            final = FinalStageOutcome(
                frame_id=frame.frame_id, match_report=None, apologies=failure_apologies
            )
            final_wait = 0.0
            final_charge = 0.0
            overlap_saved = 0.0
            final_done = engine.now
            state.makespan = max(state.makespan, final_done)
            self.events.record(
                final_done,
                "final_aborted",
                frame_id=frame.frame_id,
                stream=arrival.stream_name,
                edge=edge_id,
            )
        else:
            while state.failed[edge_id]:
                # This frame's finals await the coordinator (async-2pc):
                # park until the replica has replayed its log and
                # rejoined.  Low event priority lets the same-instant
                # recovery event flip the flag first.
                yield engine.at(max(engine.now, state.wake_at[edge_id]), priority=2)
            final_ready_at = engine.now
            if priority_serving:
                # A queued final does not hold a reservation: it sleeps until
                # the server's next free instant and contends again, waking
                # at low event priority so that same-instant initial-stage
                # events reserve first.  Every initial that arrives while the
                # edge is backlogged therefore preempts this final; the time
                # lost shows up in the final queue delay below.
                while replica.server.next_free() > engine.now:
                    yield engine.at(replica.server.next_free(), priority=1)
            final_admission = replica.server.admit(final_ready_at, priority=0)
            final = replica.node.process_final_stage(
                initial,
                cloud_labels if send_to_cloud else None,
                now=final_admission.start,
            )
            if failure_apologies:
                final.apologies = final.apologies + failure_apologies
            final_charge, overlap_saved = replica.policy.drain_frame_costs()
            final_done = replica.server.complete(
                final_admission, final.txn_latency + final_charge
            )
            final_wait = final_admission.wait
            state.makespan = max(state.makespan, final_done)
            self.events.record(
                final_done,
                "final_commit",
                frame_id=frame.frame_id,
                stream=arrival.stream_name,
                edge=edge_id,
            )
        if client is not None:
            client.render(
                ClientResponse(
                    frame_id=frame.frame_id,
                    stage="final",
                    payload=None,
                    apologies=final.apologies,
                    timestamp=final_done,
                )
            )

        observed = observed_labels(
            policy.surviving_labels(initial.labels),
            cloud_labels,
            send_to_cloud,
            initial.frame_id,
            self.config.base.match_overlap,
            final.match_report,
        )
        accuracy = evaluate_detections(
            observed, cloud_labels, min_overlap=self.config.base.match_overlap
        )
        latency = LatencyBreakdown(
            edge_transfer=edge_transfer,
            edge_detection=edge_detection,
            initial_txn=initial.txn_latency,
            cloud_transfer=cloud_transfer,
            cloud_detection=cloud_detection,
            final_txn=final.txn_latency,
            queue_delay=queue_delay,
            final_queue_delay=final_wait,
            cloud_queue_delay=cloud_queue_delay,
            commit_protocol=initial_charge + final_charge,
            commit_overlap_saved=overlap_saved,
        )
        if state.frame_stats is not None:
            state.frame_stats.record(
                latency=latency,
                accuracy=accuracy,
                sent_to_cloud=send_to_cloud,
                bytes_sent=frame_bytes_sent,
                transactions=len(initial.triggered),
                corrections=final.corrections,
                apologies=len(final.apologies),
            )
            results[arrival.stream_name].count_frame()
        else:
            results[arrival.stream_name].add(
                FrameTrace(
                    frame_id=frame.frame_id,
                    edge_labels=initial.labels,
                    cloud_labels=cloud_labels,
                    observed_labels=observed,
                    sent_to_cloud=send_to_cloud,
                    latency=latency,
                    accuracy=accuracy,
                    transactions_triggered=len(initial.triggered),
                    corrections=final.corrections,
                    apologies=len(final.apologies),
                    frame_bytes_sent=frame_bytes_sent,
                    edge_id=edge_id,
                )
            )
        if adaptation is not None:
            feedback_trace = None
            if send_to_cloud and adaptation.wants_traces:
                feedback_trace = FrameTrace(
                    frame_id=frame.frame_id,
                    edge_labels=initial.labels,
                    cloud_labels=cloud_labels,
                    observed_labels=observed,
                    sent_to_cloud=True,
                    latency=latency,
                    accuracy=accuracy,
                    edge_id=edge_id,
                )
            adaptation.observe_frame(
                arrival.stream_name,
                send_to_cloud,
                final.corrections,
                feedback_trace,
                final.match_report,
            )
        if state.traffic is not None and not frame_aborted:
            state.traffic.completed_frames += 1
        self._finish_frame(state, arrival.stream_name)

    def _finish_frame(self, state: "_RunState", stream_name: str) -> None:
        """Bookkeeping shared by served, shed, and aborted frames."""
        state.frames_remaining -= 1
        left = state.frames_left.get(stream_name)
        if left is not None:
            state.frames_left[stream_name] = left - 1

    # -- failure, recovery, re-sharding -------------------------------------
    def _failure_process(self, state: "_RunState", spec: FailureSpec):
        """Engine process driving one scheduled failure/recovery cycle."""
        engine = state.engine
        # One failure at a time.  The schedule validation keeps the
        # *scheduled* windows disjoint, but a replica stays failed past
        # its recover_at while it replays its log — if that replay is
        # still running, postpone this failure until the cluster is
        # whole again (low event priority lets the same-instant rejoin
        # flip the flag first).
        while True:
            still_failed = [
                edge
                for edge in range(len(self.replicas))
                if edge != spec.edge_id and state.failed[edge]
            ]
            if not still_failed:
                break
            wake = max(state.wake_at[edge] for edge in still_failed)
            yield engine.at(max(engine.now, wake), priority=1)
        failed_at = engine.now
        state.failed[spec.edge_id] = True
        state.wake_at[spec.edge_id] = spec.recover_at
        replica = self.replicas[spec.edge_id]

        # Streams homed here fail over to the least-loaded live edge
        # through the migration machinery (their in-flight frames stay
        # tied to this replica and resolve below).
        migrated = 0
        failed_over: list[str] = []
        for stream in list(replica.streams):
            target = self._failover_target(state, engine.now)
            replica.remove_stream(stream)
            self.replicas[target].assign_stream(stream)
            state.current_edge[stream] = target
            state.migrations.append(
                MigrationRecord(
                    time=engine.now,
                    stream=stream,
                    from_edge=spec.edge_id,
                    to_edge=target,
                    utilization=replica.server.load(
                        engine.now, window=self.config.migration_window
                    ),
                )
            )
            self.events.record(
                engine.now,
                "stream_migrated",
                stream=stream,
                from_edge=spec.edge_id,
                to_edge=target,
                utilization=state.migrations[-1].utilization,
                reason="edge_failed",
            )
            migrated += 1
            failed_over.append(stream)

        # In-flight transactions resolve through the policy seam; the
        # owned partitions lose their volatile stores (the WAL survives).
        aborted = replica.fail(now=engine.now)
        state.aborted_txns.update(aborted)
        self.events.record(
            engine.now,
            "edge_failed",
            edge=spec.edge_id,
            streams_migrated=migrated,
            txns_aborted=len(aborted),
        )

        if self._replication is not None:
            # Warm failover: the owned partitions promote their backups
            # instead of waiting for the host restart + log replay.
            yield from self._promotion_process(
                state, spec, replica, failed_at, len(aborted), migrated, failed_over
            )
            return

        yield engine.at(spec.recover_at)

        # Restart: rebuild every owned partition from its latest
        # checkpoint plus the replayed log tail; the replica only rejoins
        # once the replay is done.
        keys, records, transactions = replica.recover()
        for partition_id in replica.owned_partitions:
            self.store.partition(partition_id).available = False
        replay = recovery_time(keys, records)
        state.wake_at[spec.edge_id] = engine.now + replay
        yield replay

        for partition_id in replica.owned_partitions:
            self.store.partition(partition_id).available = True
        state.failed[spec.edge_id] = False
        rejoined_at = engine.now
        record = FailureRecord(
            edge_id=spec.edge_id,
            failed_at=failed_at,
            recovered_at=rejoined_at,
            downtime=rejoined_at - failed_at,
            recovery_time=replay,
            records_replayed=records,
            transactions_replayed=transactions,
            txns_aborted=len(aborted),
            streams_migrated=migrated,
        )
        state.failures.append(record)
        state.downtime += record.downtime
        state.recovery_time += replay
        state.records_replayed += records
        state.transactions_replayed += transactions
        self.events.record(
            rejoined_at,
            "edge_recovered",
            edge=spec.edge_id,
            records_replayed=records,
            transactions_replayed=transactions,
            recovery_time=replay,
            downtime=record.downtime,
        )
        if self.config.failback and failed_over:
            state.engine.spawn(
                self._failback_process(state, spec.edge_id, failed_over),
                at=rejoined_at,
                name=f"failback-edge-{spec.edge_id}",
            )

    def _promotion_process(
        self,
        state: "_RunState",
        spec: FailureSpec,
        replica: EdgeReplica,
        failed_at: float,
        txns_aborted: int,
        migrated: int,
        failed_over: list[str],
    ):
        """Warm failover of a crashed primary's partitions.

        Runs as engine events so the downtime is *measured*: a
        failure-detection wait, then per partition an election of the
        most-caught-up backup (highest shipped LSN, ties to the lowest
        edge id), an election/re-route round trip over the new primary's
        replication channel, and a catch-up replay of only the gap
        between the winner's applied LSN and the surviving log tail.
        Promotions of a replica's partitions run in parallel; service is
        restored when the slowest one finishes.  The crashed host still
        restarts at its scheduled ``recover_at`` — owning nothing, it
        rejoins after the base restart overhead as a warm standby
        re-enrolled from the durable logs.
        """
        engine = state.engine
        manager = self._replication
        # The crashed host also loses every standby it held for other
        # primaries (standby stores are volatile); it re-enrolls from
        # the durable logs after its restart.
        manager.drop_edge(spec.edge_id)
        # Backups notice the missed heartbeats before anyone can act.
        yield FAILURE_DETECT_SECONDS

        owned = sorted(replica.owned_partitions)
        completion = engine.now
        catchup_total = 0.0
        records_caught_up = 0
        gap_transactions: set[str] = set()
        for partition_id in owned:
            group = manager.group(partition_id)
            winner = group.elect()
            if winner is None:
                # No live standby (impossible at factor >= 2 with
                # disjoint failures, but stay safe): this partition
                # waits for the host restart like the unreplicated path.
                continue
            partition = self.store.partition(partition_id)
            round_trip = manager.election_round_trip(winner, engine.now)
            applied = group.applied_lsn[winner]
            store, gap = group.promote(winner, partition.wal)
            catchup = manager.catchup_time(len(gap))
            done_at = engine.now + round_trip + catchup
            promotion = PromotionRecord(
                partition_id=partition_id,
                from_edge=spec.edge_id,
                to_edge=winner,
                failed_at=failed_at,
                promoted_at=done_at,
                applied_lsn=applied,
                records_caught_up=len(gap),
                catchup_time=catchup,
            )

            def finish(
                partition=partition,
                store=store,
                promotion=promotion,
            ) -> None:
                partition.promote(store)
                self.replicas[promotion.from_edge].release_partition(promotion.partition_id)
                self.replicas[promotion.to_edge].adopt_partition(promotion.partition_id)
                self._partition_home[promotion.partition_id] = promotion.to_edge
                state.promotions.append(promotion)
                self.events.record(
                    promotion.promoted_at,
                    "partition_promoted",
                    partition=promotion.partition_id,
                    from_edge=promotion.from_edge,
                    to_edge=promotion.to_edge,
                    applied_lsn=promotion.applied_lsn,
                    records_caught_up=promotion.records_caught_up,
                    downtime=promotion.promoted_at - promotion.failed_at,
                )

            engine.schedule(done_at, finish)
            completion = max(completion, done_at)
            catchup_total += catchup
            records_caught_up += len(gap)
            gap_transactions.update(record.transaction_id for record in gap)

        if completion > engine.now:
            yield engine.at(completion)

        # Service is restored the instant the slowest promotion lands;
        # that — not the host restart — is the measured downtime.
        restored_at = engine.now
        record = FailureRecord(
            edge_id=spec.edge_id,
            failed_at=failed_at,
            recovered_at=restored_at,
            downtime=restored_at - failed_at,
            recovery_time=catchup_total,
            records_replayed=records_caught_up,
            transactions_replayed=len(gap_transactions),
            txns_aborted=txns_aborted,
            streams_migrated=migrated,
        )
        state.failures.append(record)
        state.downtime += record.downtime
        state.recovery_time += catchup_total
        state.records_replayed += records_caught_up
        state.transactions_replayed += len(gap_transactions)
        self.events.record(
            restored_at,
            "edge_recovered",
            edge=spec.edge_id,
            records_replayed=records_caught_up,
            transactions_replayed=len(gap_transactions),
            recovery_time=catchup_total,
            downtime=record.downtime,
        )

        # Host restart: nothing to replay (it owns no partitions now),
        # so it rejoins after the base restart overhead and re-enrolls
        # as a warm standby wherever a group has a free seat.
        if engine.now < spec.recover_at:
            yield engine.at(spec.recover_at)
        restart = recovery_time(0, 0)
        state.wake_at[spec.edge_id] = engine.now + restart
        yield restart
        state.failed[spec.edge_id] = False
        bootstrapped = manager.reenroll(spec.edge_id, engine.now)
        self.events.record(
            engine.now,
            "edge_rejoined",
            edge=spec.edge_id,
            standby_records=bootstrapped,
        )
        if self.config.failback and failed_over:
            state.engine.spawn(
                self._failback_process(state, spec.edge_id, failed_over),
                at=engine.now,
                name=f"failback-edge-{spec.edge_id}",
            )

    def _failback_process(self, state: "_RunState", edge_id: int, streams: list[str]):
        """Return failed-over streams to their recovered home edge.

        Reuses the migration machinery's hysteresis: each displaced
        stream gets its own :class:`~repro.cluster.router.MigrationTrigger`
        over its *interim host's* observed load, polled every migration
        window.  A stream migrates home only when its host is hot
        (``migration_high``) and the recovered edge has headroom
        (``migration_low``) — the same band that pulls streams off
        overloaded edges, pointed back at the rejoined replica, so an
        idle cluster never churns streams around for nothing.
        """
        engine = state.engine
        window = self.config.migration_window
        triggers = {
            stream: MigrationTrigger(
                high=self.config.migration_high, low=self.config.migration_low
            )
            for stream in streams
        }
        pending = list(streams)
        while pending and (state.frames_remaining > 0 or state.source_active):
            if state.failed[edge_id]:
                # Failed again: the next recovery spawns a fresh failback.
                return
            home_load = self.replicas[edge_id].server.load(engine.now, window=window)
            for stream in list(pending):
                host = state.current_edge.get(stream)
                if host is None or host == edge_id or state.frames_left.get(stream, 0) <= 0:
                    pending.remove(stream)
                    continue
                host_load = self.replicas[host].server.load(engine.now, window=window)
                if home_load > self.config.migration_low:
                    break  # no headroom at home; nobody returns this round
                if not triggers[stream].observe(host_load):
                    continue
                self.replicas[host].remove_stream(stream)
                self.replicas[edge_id].assign_stream(stream)
                state.current_edge[stream] = edge_id
                state.migrations.append(
                    MigrationRecord(
                        time=engine.now,
                        stream=stream,
                        from_edge=host,
                        to_edge=edge_id,
                        utilization=host_load,
                    )
                )
                self.events.record(
                    engine.now,
                    "stream_migrated",
                    stream=stream,
                    from_edge=host,
                    to_edge=edge_id,
                    utilization=host_load,
                    reason="edge_recovered",
                )
                pending.remove(stream)
            yield window

    def _failover_target(self, state: "_RunState", now: float) -> int:
        """Least-loaded live edge (ties to the lowest id)."""
        candidates = [
            edge_id
            for edge_id in range(len(self.replicas))
            if not state.failed[edge_id]
        ]
        if not candidates:
            raise RuntimeError("no live edge to fail streams over to")
        return min(
            candidates,
            key=lambda edge_id: (
                self.replicas[edge_id].server.load(
                    now, window=self.config.migration_window
                ),
                edge_id,
            ),
        )

    def _apply_reshard(self, state: "_RunState", move: ReshardSpec) -> None:
        """Move one partition between edges: checkpoint-copy + log tail."""
        from_edge = self._partition_home[move.partition_id]
        if from_edge == move.to_edge:
            return
        if state.failed[from_edge] or state.failed[move.to_edge]:
            # A failed endpoint cannot ship or receive the partition; the
            # scheduled move is dropped (visible as a missing event).
            return
        outcome = self.store.transfer_partition(move.partition_id)
        self.replicas[from_edge].release_partition(move.partition_id)
        self.replicas[move.to_edge].adopt_partition(move.partition_id)
        self._partition_home[move.partition_id] = move.to_edge
        now = state.engine.now
        record = ReshardRecord(
            time=now,
            partition_id=move.partition_id,
            from_edge=from_edge,
            to_edge=move.to_edge,
            keys_copied=outcome.keys_copied,
            records_shipped=outcome.records_shipped,
        )
        state.reshards.append(record)
        self.events.record(
            now,
            "partition_resharded",
            partition=move.partition_id,
            from_edge=from_edge,
            to_edge=move.to_edge,
            keys_copied=outcome.keys_copied,
            records_shipped=outcome.records_shipped,
        )

    def _checkpoint_process(self, state: "_RunState"):
        """Periodic cluster-wide checkpointer (bounds recovery replay)."""
        interval = self.config.checkpoint_interval_s
        while state.frames_remaining > 0 or state.source_active:
            partitions = keys = 0
            for partition_id in self.store.partition_ids():
                partition = self.store.partition(partition_id)
                if not partition.available:
                    continue
                checkpoint = partition.take_checkpoint()
                partitions += 1
                keys += checkpoint.num_keys
            state.checkpoints += 1
            self.events.record(
                state.engine.now,
                "checkpoint",
                partitions=partitions,
                keys=keys,
                interval=interval,
            )
            yield interval

    # -- runtime routing ----------------------------------------------------
    def _route_arrival(self, state: "_RunState", stream_name: str) -> int:
        """Current home edge of the arriving frame's stream.

        With the ``"migrating"`` policy this is where the engine's
        runtime visibility feeds back into routing: the router watches
        the observed (windowed) utilization of the stream's edge and,
        when its hysteresis trigger fires, re-routes the stream's
        remaining frames to the least-utilized edge.
        """
        edge_id = state.current_edge[stream_name]
        if not isinstance(self.router, MigratingRouter):
            return edge_id
        now = state.engine.now
        # A failed edge's drained server reports a near-zero load; it
        # must never look like a migration target, so its load is
        # reported as saturated until it rejoins.
        loads = [
            float("inf")
            if state.failed[replica.edge_id]
            else replica.server.load(now, window=self.config.migration_window)
            for replica in self.replicas
        ]
        target = self.router.decide(edge_id, loads)
        if target is None:
            return edge_id
        state.current_edge[stream_name] = target
        self.replicas[edge_id].remove_stream(stream_name)
        self.replicas[target].assign_stream(stream_name)
        state.migrations.append(
            MigrationRecord(
                time=now,
                stream=stream_name,
                from_edge=edge_id,
                to_edge=target,
                utilization=loads[edge_id],
            )
        )
        self.events.record(
            now,
            "stream_migrated",
            stream=stream_name,
            from_edge=edge_id,
            to_edge=target,
            utilization=loads[edge_id],
        )
        return target

    # -- result assembly ----------------------------------------------------
    def _collect(
        self,
        names: list[str],
        placements: list[int],
        results: dict[str, RunResult],
        state: _RunState,
        pre_stats: list[tuple[int, int, int]],
        pre_records: list[frozenset[str]],
        pre_policy: list[PolicyStats],
        pre_failure_aborts: int,
    ) -> ClusterRunResult:
        stats = ControllerStats()
        policy_stats = PolicyStats()
        total = cross_edge = multi_partition = 0
        edges: list[EdgeMetrics] = []
        for replica, (initial0, final0, aborts0), seen, policy0 in zip(
            self.replicas, pre_stats, pre_records, pre_policy
        ):
            stats.initial_commits += replica.stats.initial_commits - initial0
            stats.final_commits += replica.stats.final_commits - final0
            stats.aborts += replica.stats.aborts - aborts0
            policy_stats.merge(replica.policy.policy_stats.since(policy0))
            replica_total, replica_cross, replica_multi = (
                replica.transaction_partition_counts(exclude=seen)
            )
            total += replica_total
            cross_edge += replica_cross
            multi_partition += replica_multi
            edges.append(
                EdgeMetrics(
                    edge_id=replica.edge_id,
                    machine_name=replica.machine.name,
                    owned_partitions=tuple(sorted(replica.owned_partitions)),
                    streams=tuple(replica.streams),
                    frames_processed=state.frames_on_edge[replica.edge_id],
                    queue_jobs=replica.server.jobs,
                    busy_time=replica.server.busy_time,
                    utilization=replica.server.utilization(state.makespan),
                    mean_queue_delay=replica.server.mean_wait,
                    max_queue_delay=replica.server.max_wait,
                )
            )
        return ClusterRunResult(
            router_policy=self.config.router_policy,
            placements=dict(zip(names, placements)),
            per_stream=results,
            edges=edges,
            makespan=state.makespan,
            stats=stats,
            total_transactions=total,
            cross_edge_transactions=cross_edge,
            multi_partition_transactions=multi_partition,
            cloud_servers=self.config.cloud_servers,
            migrations=tuple(state.migrations),
            transaction_policy=self.config.transaction_policy,
            policy_stats=policy_stats,
            failures=tuple(state.failures),
            reshards=tuple(state.reshards),
            downtime_s=state.downtime,
            recovery_time_s=state.recovery_time,
            wal_records_replayed=state.records_replayed,
            transactions_replayed=state.transactions_replayed,
            txns_aborted_by_failure=len(state.aborted_txns)
            + (self.store.failure_aborts - pre_failure_aborts),
            checkpoints=state.checkpoints,
            traffic=state.traffic,
            frame_stats=state.frame_stats,
            promotions=tuple(state.promotions),
            log_records_shipped=(
                self._replication.records_shipped if self._replication is not None else 0
            ),
            replication_lag_s=(
                self._replication.mean_lag_s if self._replication is not None else 0.0
            ),
            replication_ack_wait_s=(
                self._replication.mean_ack_wait_s if self._replication is not None else 0.0
            ),
            replication_factor=self.config.replication_factor,
            replication_mode=self.config.replication_mode,
            adaptation_mode=self.config.threshold_adaptation,
            threshold_updates=(
                state.adaptation.threshold_updates if state.adaptation is not None else 0
            ),
            tuner_evaluations=(
                state.adaptation.tuner_evaluations if state.adaptation is not None else 0
            ),
            tuner_frame_rescores=(
                state.adaptation.tuner_frame_rescores if state.adaptation is not None else 0
            ),
            tuner_grid_rescores=(
                state.adaptation.tuner_grid_rescores if state.adaptation is not None else 0
            ),
            stream_thresholds=(
                state.adaptation.final_thresholds() if state.adaptation is not None else {}
            ),
        )

    # -- banks --------------------------------------------------------------
    def _default_bank_factory(self, edge_id: int) -> TransactionBank:
        """Per-replica YCSB-A bank (the single-edge default, namespaced)."""
        workload = YCSBWorkload(
            rng=self.rngs.stream(f"ycsb-{edge_id}"),
            operations_per_transaction=self.config.base.operations_per_transaction,
        )
        bank = TransactionBank()
        bank.register(
            name=f"e{edge_id}-detection",
            label_class=ANY_LABEL,
            factory=lambda detection, txn_id: workload.build_transaction(txn_id, detection),
        )
        return bank


def empty_bank_factory(edge_id: int) -> TransactionBank:
    """Bank factory registering no transactions (the ``"none"`` workload).

    Detections trigger nothing, so every frame is pure detection +
    queueing work — the configuration the scale-stress scenario uses to
    measure the engine hot path without transaction-processing cost.
    """
    return TransactionBank()


def hotspot_bank_factory(
    seed: int,
    key_range: int = 100,
    updates_per_transaction: int = 5,
    final_updates: int = 1,
) -> BankFactory:
    """Bank factory whose replicas all hammer one shared hot key range.

    Every detection triggers a :class:`~repro.workloads.hotspot.HotspotWorkload`
    update transaction over the *same* ``key_range`` hot keys on every
    replica, so a small range produces heavy cross-edge lock conflicts —
    the cluster analogue of the paper's Figure 6b contention experiment.
    Transaction ids are namespaced per replica so lock holders stay
    distinct.
    """
    rngs = RngRegistry(seed)

    def factory(edge_id: int) -> TransactionBank:
        workload = HotspotWorkload(
            rng=rngs.stream(f"hotspot-{edge_id}"),
            key_range=key_range,
            updates_per_transaction=updates_per_transaction,
            final_updates=final_updates,
            key_prefix="hot",
            txn_prefix=f"e{edge_id}-hot",
        )
        bank = TransactionBank()
        bank.register(
            name=f"e{edge_id}-hotspot",
            label_class=ANY_LABEL,
            factory=lambda detection, txn_id: workload.build_transaction(),
        )
        return bank

    return factory
