"""Incremental threshold scoring and the grid-scan tuner.

:class:`~repro.core.optimizer.ThresholdEvaluator` re-runs label matching
over every profiled frame for every candidate ``(θL, θU)`` pair.  But a
frame's contribution to the score is fully determined by two small
integers: how many of its edge-label confidences fall below ``θL``
(which fixes the surviving label set) and whether any confidence lands
inside ``[θL, θU]`` (which fixes the sent bit).  Both are found by
bisecting the frame's *sorted* confidence array — the breakpoints at
which the frame's VALIDATE/KEEP/DISCARD partition changes.

:class:`IncrementalThresholdScorer` exploits this: it computes each
frame's confusion-matrix contribution once per distinct
``(discard-count, sent)`` state and reuses it for every threshold pair
that lands the frame in the same state.  A frame with ``k`` detections
has at most ``2·(k + 1)`` states, so a full grid scan costs
``O(frames · min(k, grid))`` label matches instead of
``O(frames · grid²)``.  Each pair's score is a running fold:
:meth:`~IncrementalThresholdScorer.add_frame` only appends, and the
pair's next evaluation folds in just the frames added since, so a
runtime tuner re-scoring the grid pays for new frames, not history.

:func:`coordinate_descent_search` is the tuner: one scan of every
``θL ≤ θU`` grid pair in grid order, with the winner chosen by
:func:`~repro.core.optimizer.brute_force_search`'s rule, tie-breaks
included.

Scores are **bit-identical** to ``ThresholdEvaluator.evaluate()``:
confusion counts are integers (order-free), and latency averages are
``sum()``-ed over trace-order lists exactly as the evaluator sums them
(a running float ``+=`` would drift from ``sum()``, which compensates
rounding on Python ≥ 3.12).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.core.optimizer import (
    OptimizationResult,
    ThresholdEvaluator,
    ThresholdScore,
    brute_force_search,
    hypothetical_observed,
)
from repro.core.results import FrameTrace
from repro.core.thresholds import ThresholdPolicy
from repro.detection.labels import LabelSet
from repro.detection.metrics import AccuracyReport, evaluate_detections


class _FrameEntry:
    """Sufficient statistics for one profiled frame.

    ``confidences`` holds the frame's edge-label confidences sorted
    ascending — the breakpoints of its decision function.  ``stats``
    memoises the frame's ``(tp, fp, fn)`` contribution per distinct
    ``(discard_count, sent)`` state.
    """

    __slots__ = (
        "frame_id",
        "labels",
        "cloud_labels",
        "confidences",
        "initial_latency",
        "sent_latency",
        "unsent_latency",
        "stats",
    )

    def __init__(self, trace: FrameTrace) -> None:
        self.frame_id = trace.frame_id
        self.labels = trace.edge_labels
        self.cloud_labels = trace.cloud_labels
        self.confidences = tuple(
            sorted(detection.confidence for detection in trace.edge_labels.detections)
        )
        latency = trace.latency
        self.initial_latency = latency.initial_latency
        self.sent_latency = latency.final_latency
        self.unsent_latency = latency.initial_latency + latency.final_txn
        self.stats: dict[tuple[int, bool], tuple[int, int, int]] = {}


@dataclass(slots=True)
class _PairFold:
    """Running score of one ``(θL, θU)`` pair over ``frames[:folded]``.

    ``final_latencies`` stays in trace order so its ``sum()`` matches
    :meth:`ThresholdEvaluator.evaluate`'s bit for bit.
    """

    lower: float
    upper: float
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    sent_count: int = 0
    final_latencies: list[float] = field(default_factory=list)
    folded: int = 0
    score: ThresholdScore | None = None


class IncrementalThresholdScorer:
    """Scores threshold pairs in O(frames whose decision changed).

    Drop-in score-compatible with :class:`ThresholdEvaluator`: for any
    ``(lower, upper)`` pair, :meth:`evaluate` returns a
    :class:`ThresholdScore` equal field-for-field (bit-for-bit floats)
    to the evaluator's — it just avoids re-matching labels for frames
    whose send/keep/discard decision it has already seen.

    The scorer may start empty and grow via :meth:`add_frame`, which is
    how the runtime adapter feeds it freshly validated frames.
    """

    def __init__(self, traces: list[FrameTrace] | None = None, match_overlap: float = 0.10) -> None:
        self._frames = [_FrameEntry(trace) for trace in (traces or [])]
        self._match_overlap = match_overlap
        self._folds: dict[tuple[float, float], _PairFold] = {}
        self._average_initial_latency: float | None = None  # threshold-independent
        self._evaluations = 0
        self._frame_rescores = 0

    @classmethod
    def from_evaluator(cls, evaluator: ThresholdEvaluator) -> "IncrementalThresholdScorer":
        """Build a scorer over the same traces an evaluator scores."""
        return cls(evaluator.traces, match_overlap=evaluator.match_overlap)

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    @property
    def match_overlap(self) -> float:
        return self._match_overlap

    @property
    def evaluations(self) -> int:
        """Pair scores built or rebuilt (a pair with nothing new to fold does no work)."""
        return self._evaluations

    @property
    def frame_rescores(self) -> int:
        """Full-frame label-match operations performed so far.

        Grows by one per *newly seen* per-frame decision state — the
        quantity the ≥10× gate compares against the evaluator's
        ``num_frames`` per scored pair.
        """
        return self._frame_rescores

    def add_frame(self, trace: FrameTrace) -> None:
        """Append one profiled frame.

        Nothing is invalidated: each pair folds the new frame in the
        next time it is evaluated.
        """
        self._frames.append(_FrameEntry(trace))
        self._average_initial_latency = None

    def evaluate(self, lower: float, upper: float) -> ThresholdScore:
        """Score one ``(θL, θU)`` pair, bit-identical to the evaluator."""
        key = (round(lower, 6), round(upper, 6))
        frames = self._frames
        fold = self._folds.get(key)
        if fold is None:
            ThresholdPolicy(lower, upper)  # validate bounds exactly like the evaluator
            if not frames:
                raise ValueError("cannot evaluate thresholds without any frame traces")
            fold = self._folds[key] = _PairFold(lower, upper)
        elif fold.folded == len(frames):
            return fold.score
        self._evaluations += 1

        lower, upper = fold.lower, fold.upper
        final_latencies = fold.final_latencies
        for frame in frames[fold.folded:]:
            confidences = frame.confidences
            discarded = bisect_left(confidences, lower)
            sent = bisect_right(confidences, upper) > discarded

            state = (discarded, sent)
            stats = frame.stats.get(state)
            if stats is None:
                stats = self._frame_stats(frame, discarded, sent)
                frame.stats[state] = stats
                self._frame_rescores += 1
            fold.true_positives += stats[0]
            fold.false_positives += stats[1]
            fold.false_negatives += stats[2]

            if sent:
                fold.sent_count += 1
                final_latencies.append(frame.sent_latency)
            else:
                final_latencies.append(frame.unsent_latency)
        fold.folded = len(frames)
        if self._average_initial_latency is None:
            self._average_initial_latency = (
                sum(frame.initial_latency for frame in frames) / len(frames)
            )

        accuracy = AccuracyReport(fold.true_positives, fold.false_positives, fold.false_negatives)
        fold.score = ThresholdScore(
            lower=lower,
            upper=upper,
            bandwidth_utilization=fold.sent_count / len(frames),
            f_score=accuracy.f_score,
            average_final_latency=sum(final_latencies) / len(final_latencies),
            average_initial_latency=self._average_initial_latency,
        )
        return fold.score

    #: Every ``θL ≤ θU`` pair of a grid, in grid order — the evaluator's scan.
    evaluate_grid = ThresholdEvaluator.evaluate_grid

    # -- internal -----------------------------------------------------------
    def _frame_stats(self, frame: _FrameEntry, discarded: int, sent: bool) -> tuple[int, int, int]:
        """Confusion-matrix contribution of one frame in one decision state.

        ``discarded`` is the number of detections with confidence below
        ``θL``; because the confidences are sorted and the bisect
        boundary is strict, it uniquely determines the surviving label
        set (every detection with confidence ≥ the first survivor's).
        """
        detections = frame.labels.detections
        if not detections:
            survivors = frame.labels
        elif discarded >= len(frame.confidences):
            survivors = LabelSet(frame.labels.frame_id, (), frame.labels.model_name)
        else:
            cutoff = frame.confidences[discarded]
            survivors = LabelSet(
                frame.labels.frame_id,
                tuple(d for d in detections if d.confidence >= cutoff),
                frame.labels.model_name,
            )
        observed = hypothetical_observed(
            survivors, frame.cloud_labels, sent, frame.frame_id, self._match_overlap
        )
        report = evaluate_detections(observed, frame.cloud_labels, min_overlap=self._match_overlap)
        return (report.true_positives, report.false_positives, report.false_negatives)


def _scorer_for(evaluator: ThresholdEvaluator | IncrementalThresholdScorer) -> IncrementalThresholdScorer:
    """The incremental scorer backing ``evaluator`` (cached on it)."""
    if isinstance(evaluator, IncrementalThresholdScorer):
        return evaluator
    scorer = getattr(evaluator, "_incremental_scorer", None)
    if scorer is None:
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        evaluator._incremental_scorer = scorer
    return scorer


def coordinate_descent_search(
    evaluator: ThresholdEvaluator | IncrementalThresholdScorer,
    target_f_score: float,
    step: float = 0.05,
) -> OptimizationResult:
    """Scan every ``θL ≤ θU`` grid pair once, in grid order.

    This is :func:`~repro.core.optimizer.brute_force_search` run on the
    incremental scorer, so scores, optimum and tie-breaks are exactly
    brute force's.  (A coordinate descent fanned out from every ``θU``
    start covers the whole grid in its first column sweeps, so this
    scan is what such a descent reduces to.)

    The work is not in the pairs but in the label matching, and that is
    where the incremental scorer wins: each frame is re-matched only
    once per distinct decision state (at most ``2·(detections + 1)``
    regardless of grid resolution), and each pair folds in only the
    frames added since its last score.  So the default grid here is
    twice as fine as the brute-force default at ≥10× fewer full-frame
    label-match operations (tracked in ``frame_rescores``).  Pass the
    same ``step`` to both searches when comparing optima directly.
    """
    return brute_force_search(_scorer_for(evaluator), target_f_score, step=step)
