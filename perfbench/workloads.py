"""The benchmark's four workloads, as flat ScenarioSpec dictionaries.

Each workload is a list of flat spec dictionaries loaded through
``ScenarioSpec.from_dict`` (the spec path the simulator promises to keep
across configuration regroupings) and run through
``repro.experiments.run``.  No workload selects ``reference_engine`` or
``record_frames=False``: the recorded path is the exact one.

Every workload is seeded from the benchmark's ``--seed`` only; the
program receives nothing but the resulting specs.  Host cost per frame
depends on the drawn content (object counts drive label matching and
transaction volume), so a workload runs several independently seeded
copies of its scenario per op: a run's figure then varies little with
``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload exists: which layers it loads and which it bypasses.
    why: str
    #: ``seed -> [flat spec dict, ...]``; one op runs every spec once.
    specs: Callable[[int], list[dict]]
    #: Closed-loop workloads must report exactly streams x frames frames.
    closed_loop: bool
    #: ``Class.method`` / function boundaries that must fire at least once
    #: in the counted iteration, so a renamed boundary fails loudly
    #: instead of reading as zero.
    must_fire: tuple[str, ...]
    #: Run the paper's MS-SR/MS-IA history checkers on this workload.
    audit: bool = False


def draws(seed: int, count: int) -> list[int]:
    """``count`` spec seeds drawn from the benchmark seed, the first being
    the seed itself.  Cluster streams seed themselves ``seed + index``, so
    the draws are spread over 2**31 to keep copies independent."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(2**31) for _ in range(count - 1)]


def _paper_closed(seed: int) -> list[dict]:
    # The paper's Figures 2/4 workload: single-edge Croesus on the four
    # labelled videos at both safety levels, real labels and non-empty
    # transaction banks.  Detection, storage, transactions and workloads
    # dominate host time; the engine barely shows and there is no cluster
    # coordination, so engine/cluster changes should leave it unmoved.
    # 32 ten-frame clips per (video, level), each with its own seed.  Per-
    # frame host cost grows with a clip's history and with its object
    # count squared (label matching), so it varies with the seed: IQR over
    # median across ten benchmark seeds was ~19% with one 80-frame clip
    # per cell, ~10% with eight 20-frame clips, and ~2% with these 2560
    # frames, which cost about the host time of one 80-frame clip per cell.
    cells = [
        (video, consistency)
        for video in ("v1", "v2", "v3", "v4")
        for consistency in ("ms-sr", "ms-ia")
    ]
    return [
        {
            "deployment": "single",
            "system": "croesus",
            "video": video,
            "frames": 10,
            "seed": clip_seed,
            "consistency": consistency,
        }
        for clip_seed, (video, consistency) in zip(
            draws(seed, 32 * len(cells)), cells * 32
        )
    ]


def _geo_contention(seed: int) -> list[dict]:
    # The geo-baseline shape: 2 regions x 2 edges over a cross-country WAN,
    # 8 hotspot streams (50 hot keys) at MS-SR with global 2PC.  Same
    # content layers as paper-closed plus the partitioned store,
    # cross-region 2PC, routing and WAN channels: distributed-commit
    # changes should move this workload and not paper-closed.  Six
    # independently seeded copies per op: one copy's per-frame cost varied ~21% between seeds, six ~8%.
    return [
        {
            "deployment": "cluster",
            "num_edges": 4,
            "regions": 2,
            "wan_link": "cross-country",
            "cross_region_policy": "global-2pc",
            "streams": 8,
            "frames": 40,
            "seed": copy_seed,
            "consistency": "ms-sr",
            "workload": "hotspot",
            "hot_key_range": 50,
        }
        for copy_seed in draws(seed, 6)
    ]


def _open_loop_stress(seed: int) -> list[dict]:
    # The scale-stress-smoke shape on the recorded path: content-free
    # Poisson arrivals over 20 edges for 40 simulated seconds.  Engine and
    # cluster bookkeeping dominate while detection, transactions and
    # storage are nearly idle, so it is the bypass workload for
    # content-layer changes and the one engine/pipeline work should move.
    # It stays on record_frames=True because the fast path computes a
    # different answer at this load.  Its per-frame cost hardly depends
    # on the seed, so one copy per op.
    return [
        {
            "deployment": "cluster",
            "traffic": "poisson",
            "traffic_video": "stress",
            "record_frames": True,
            "offered_rate": 11.0,
            "duration_s": 40.0,
            "num_edges": 20,
            "frames": 10,
            "fps": 2.0,
            "stream_length": "fixed",
            "router": "round-robin",
            "workload": "none",
            "lower_threshold": 0.99,
            "upper_threshold": 0.99,
            "edge_model": "stress-edge",
            "cloud_model": "stress-cloud",
            "seed": seed,
        }
    ]


def _adaptive_retune(seed: int) -> list[dict]:
    # The adaptive-thresholds shape: 2 edges x 4 streams x 40 frames at
    # 5 fps, retuned every 0.5 s.  The only workload on which the
    # incremental scorer and the adaptation controller run, so the tuner
    # layer is measured somewhere.  Four independently seeded copies per
    # op: one copy's per-frame cost varied ~16% between seeds, four ~9%.
    return [
        {
            "deployment": "cluster",
            "num_edges": 2,
            "streams": 4,
            "frames": 40,
            "fps": 5.0,
            "seed": copy_seed,
            "threshold_adaptation": "retune",
            "adaptation_interval_s": 0.5,
            "adaptation_target_f": 0.8,
        }
        for copy_seed in draws(seed, 4)
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-closed",
            why="paper Fig 2/4: 1 edge, v1-v4 x ms-sr/ms-ia, 32 seeded 10-frame clips "
            "each; detection/storage/transactions dominate, no cluster",
            specs=_paper_closed,
            closed_loop=True,
            must_fire=(
                "SimulatedDetector.detect",
                "match_labels",
                "ThresholdPolicy.classify_labels",
                "TwoStage2PL.process_initial",
                "MSIAController.process_final",
                "LockManager.try_acquire",
                "YCSBWorkload.build_transaction",
                "Engine.spawn",
            ),
            audit=True,
        ),
        Workload(
            name="geo-contention",
            why="geo-baseline x6 seeds: 2 regions x 2 edges, hotspot MS-SR, global "
            "2PC over a WAN; partitioned store, 2PC, routing, channels",
            specs=_geo_contention,
            closed_loop=True,
            must_fire=(
                "Channel.round_trip",
                "Channel.send",
                "StreamRouter.place",
                "DistributedMSIAController.process_initial",
                "LockManager.try_acquire",
                "WriteAheadLog.append",
                "HotspotWorkload.build_transaction",
                "Server.admit",
            ),
        ),
        Workload(
            name="open-loop-stress",
            why="scale-stress-smoke on the recorded path: content-free Poisson "
            "arrivals, 20 edges; engine/cluster bound, bypasses content layers",
            specs=_open_loop_stress,
            closed_loop=False,
            must_fire=(
                "Engine.schedule",
                "Server.admit",
                "StreamRouter.place",
                "SimulatedDetector.detect",
            ),
        ),
        Workload(
            name="adaptive-retune",
            why="adaptive-thresholds x4 seeds: 2 edges x 4 streams, retune every "
            "0.5 s; the only workload running the incremental threshold tuner",
            specs=_adaptive_retune,
            closed_loop=True,
            must_fire=(
                "IncrementalThresholdScorer.evaluate",
                "ThresholdPolicy.should_validate",
                "match_labels",
            ),
        ),
    )
}
