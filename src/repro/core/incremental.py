"""Incremental threshold scoring and the grid-scan tuner.

:class:`~repro.core.optimizer.ThresholdEvaluator` re-runs label matching
over every profiled frame for every candidate ``(θL, θU)`` pair.  But a
frame's contribution to the score is fully determined by two small
integers: how many of its edge-label confidences fall below ``θL``
(which fixes the surviving label set) and whether any confidence lands
inside ``[θL, θU]`` (which fixes the sent bit).  Both are found by
bisecting the frame's *sorted* confidence array — the breakpoints at
which the frame's VALIDATE/KEEP/DISCARD partition changes.

:class:`IncrementalThresholdScorer` exploits this in three ways:

* **One match per frame.**  Each frame carries one
  :class:`~repro.detection.matching.MatchReport` of all its edge labels
  against its cloud labels — the live edge's own report when the frame
  came from :meth:`~repro.core.edge.EdgeNode.process_final_stage`, or
  one match on entry otherwise.  A decision state's client view is that
  report narrowed to the state's survivors
  (:func:`~repro.core.system.observed_labels`), never a re-match.
* **One score per decision state.**  A frame's confusion-matrix
  contribution is computed once per distinct ``(discard-count, sent)``
  state — at most ``2·(k + 1)`` for ``k`` detections, whatever the grid
  resolution — and reused by every pair that lands the frame there.
* **One array fold per grid.**  The grid's tp/fp/fn and sent counts are
  int64 arrays.  :meth:`~IncrementalThresholdScorer.add_frame` only
  appends; the next scan folds each new frame into every pair at once by
  gathering from that frame's state table, so a runtime tuner pays for
  new frames, not history, and no per-pair state grows with the trace.

:func:`coordinate_descent_search` is the tuner: one scan of every
``θL ≤ θU`` grid pair, with the winner chosen by
:func:`~repro.core.optimizer.brute_force_search`'s rule, tie-breaks
included.

Scores are **bit-identical** to ``ThresholdEvaluator.evaluate()``:
confusion counts are integers (order-free), bandwidth and F-score are
computed with the same float64 operations in the same order as
:attr:`~repro.detection.metrics.AccuracyReport.f_score`, and latency
averages are ``sum()``-ed over trace-order lists exactly as the
evaluator sums them (a running float ``+=`` would drift from ``sum()``,
which compensates rounding on Python ≥ 3.12).  The latency sums are
taken only where the selection rule reads them: for the feasible pairs
tied at the minimum bandwidth.

Host cost of the ``adaptive-retune`` perfbench workload
(``host_rel_per_frame``, untraced, ``--seconds 15``, seed 9137, 10
alternating pairs; one Linux x86-64 container, CPython 3.11; median and
q1–q3):

==========================================  ======  =============
tuner                                       median  q1–q3
==========================================  ======  =============
per-pair Python fold, re-matched states     0.168   0.161–0.183
array fold, one match per frame (here)      0.101   0.097–0.104
==========================================  ======  =============
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np

from repro.core.optimizer import (
    OptimizationResult,
    ThresholdEvaluator,
    ThresholdScore,
    _grid,
)
from repro.core.results import FrameTrace
from repro.core.system import observed_labels
from repro.core.thresholds import ThresholdPolicy
from repro.detection.labels import LabelSet
from repro.detection.matching import MatchReport, match_labels
from repro.detection.metrics import AccuracyReport, evaluate_detections


class _FrameEntry:
    """Sufficient statistics for one profiled frame.

    ``confidences`` holds the frame's edge-label confidences sorted
    ascending — the breakpoints of its decision function.  ``report``
    matches every edge label against the cloud labels.  ``stats``
    memoises the frame's ``(tp, fp, fn)`` contribution per decision
    state, keyed by ``2 · discard_count + sent``.
    """

    __slots__ = (
        "frame_id",
        "labels",
        "cloud_labels",
        "report",
        "confidences",
        "initial_latency",
        "sent_latency",
        "unsent_latency",
        "stats",
    )

    def __init__(self, trace: FrameTrace, report: MatchReport | None, match_overlap: float) -> None:
        self.frame_id = trace.frame_id
        self.labels = trace.edge_labels
        self.cloud_labels = trace.cloud_labels
        if report is None:
            report = match_labels(trace.edge_labels, trace.cloud_labels, min_overlap=match_overlap)
        self.report = report
        self.confidences = tuple(
            sorted(detection.confidence for detection in trace.edge_labels.detections)
        )
        latency = trace.latency
        self.initial_latency = latency.initial_latency
        self.sent_latency = latency.final_latency
        self.unsent_latency = latency.initial_latency + latency.final_txn
        self.stats: dict[int, tuple[int, int, int]] = {}

    def state(self, lower: float, upper: float) -> int:
        """The frame's decision state under one threshold pair."""
        discarded = bisect_left(self.confidences, lower)
        return 2 * discarded + (bisect_right(self.confidences, upper) > discarded)


class _GridFold:
    """Running confusion and sent counts of every ``θL ≤ θU`` pair of one grid.

    Pairs are in grid order (the evaluator's ``evaluate_grid`` order);
    row ``i`` of ``counts`` is pair ``i``'s ``(tp, fp, fn, sent)`` over
    ``frames[:folded]``.
    """

    __slots__ = ("values", "lowers", "uppers", "lower_index", "upper_index", "counts", "folded")

    def __init__(self, step: float) -> None:
        values = _grid(step)
        lower_index, upper_index = zip(
            *(
                (i, j)
                for i, lower in enumerate(values)
                for j, upper in enumerate(values)
                if lower <= upper
            )
        )
        self.values = np.array(values)
        self.lower_index = np.array(lower_index, dtype=np.intp)
        self.upper_index = np.array(upper_index, dtype=np.intp)
        self.lowers = [values[i] for i in lower_index]
        self.uppers = [values[j] for j in upper_index]
        self.counts = np.zeros((len(lower_index), 4), dtype=np.int64)
        self.folded = 0

    def states(self, confidences: tuple[float, ...]) -> np.ndarray:
        """Each pair's decision state ``2 · discard_count + sent`` for one frame.

        ``searchsorted`` on the grid values is ``bisect`` on the frame's
        sorted confidences, per value rather than per pair.
        """
        breakpoints = np.array(confidences, dtype=np.float64)
        discarded_at = np.searchsorted(breakpoints, self.values, side="left")
        kept_through = np.searchsorted(breakpoints, self.values, side="right")
        discarded = discarded_at[self.lower_index]
        return 2 * discarded + (kept_through[self.upper_index] > discarded)

    def scores(self, num_frames: int) -> tuple[np.ndarray, np.ndarray]:
        """Every pair's ``(f_score, bandwidth_utilization)``.

        The float64 operations and their order are
        :attr:`AccuracyReport.f_score`'s, so each entry equals the
        evaluator's Python float bit for bit; a zero denominator yields
        0.0 without a division.
        """
        true_positives = self.counts[:, 0]
        precision_base = true_positives + self.counts[:, 1]
        recall_base = true_positives + self.counts[:, 2]
        precision = np.zeros(len(self.lowers))
        np.divide(true_positives, precision_base, out=precision, where=precision_base != 0)
        recall = np.zeros(len(self.lowers))
        np.divide(true_positives, recall_base, out=recall, where=recall_base != 0)
        total = precision + recall
        f_scores = np.zeros(len(self.lowers))
        np.divide(2.0 * precision * recall, total, out=f_scores, where=total != 0.0)
        return f_scores, self.counts[:, 3] / num_frames


class IncrementalThresholdScorer:
    """Scores threshold pairs in O(frames whose decision changed).

    Drop-in score-compatible with :class:`ThresholdEvaluator`: for any
    ``(lower, upper)`` pair, :meth:`evaluate` returns a
    :class:`ThresholdScore` equal field-for-field (bit-for-bit floats)
    to the evaluator's — it just never re-matches labels for a decision
    state it has already scored.  :meth:`search` scans a whole grid at
    once.

    The scorer may start empty and grow via :meth:`add_frame`, which is
    how the runtime adapter feeds it freshly validated frames.
    """

    def __init__(self, traces: list[FrameTrace] | None = None, match_overlap: float = 0.10) -> None:
        self._match_overlap = match_overlap
        self._frames = [_FrameEntry(trace, None, match_overlap) for trace in (traces or [])]
        self._grids: dict[float, _GridFold] = {}
        #: Pair scores by rounded pair, with the frame count they cover.
        self._scores: dict[tuple[float, float], tuple[int, ThresholdScore]] = {}
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
        """Pair scores built or rebuilt by :meth:`evaluate` (a pair with
        nothing new to score does no work)."""
        return self._evaluations

    @property
    def frame_rescores(self) -> int:
        """Per-frame decision states scored so far.

        Grows by one per *newly seen* ``(frame, state)`` — the quantity
        the ≥10× gate compares against the evaluator's ``num_frames``
        full-frame label matches per scored pair.
        """
        return self._frame_rescores

    def add_frame(self, trace: FrameTrace, report: MatchReport | None = None) -> None:
        """Append one profiled frame.

        ``report`` is the frame's edge labels matched against its cloud
        labels at :attr:`match_overlap`, when the caller already has it
        (the live edge's final stage does); otherwise the frame is
        matched here, once.  Nothing is invalidated: the next grid scan
        or pair evaluation folds the new frame in.
        """
        self._frames.append(_FrameEntry(trace, report, self._match_overlap))
        self._average_initial_latency = None

    def evaluate(self, lower: float, upper: float) -> ThresholdScore:
        """Score one ``(θL, θU)`` pair, bit-identical to the evaluator."""
        key = (round(lower, 6), round(upper, 6))
        frames = self._frames
        cached = self._scores.get(key)
        if cached is None:
            ThresholdPolicy(lower, upper)  # validate bounds exactly like the evaluator
            if not frames:
                raise ValueError("cannot evaluate thresholds without any frame traces")
        elif cached[0] == len(frames):
            return cached[1]
        else:
            # The first caller's exact values fix the cached pair.
            lower, upper = cached[1].lower, cached[1].upper
        self._evaluations += 1

        true_positives = false_positives = false_negatives = sent_count = 0
        final_latencies = []
        for frame in frames:
            state = frame.state(lower, upper)
            stats = self._state_stats(frame, state)
            true_positives += stats[0]
            false_positives += stats[1]
            false_negatives += stats[2]
            if state & 1:
                sent_count += 1
                final_latencies.append(frame.sent_latency)
            else:
                final_latencies.append(frame.unsent_latency)

        accuracy = AccuracyReport(true_positives, false_positives, false_negatives)
        score = ThresholdScore(
            lower=lower,
            upper=upper,
            bandwidth_utilization=sent_count / len(frames),
            f_score=accuracy.f_score,
            average_final_latency=sum(final_latencies) / len(final_latencies),
            average_initial_latency=self._initial_latency(),
        )
        self._scores[key] = (len(frames), score)
        return score

    #: Every ``θL ≤ θU`` pair of a grid, in grid order — the evaluator's scan.
    evaluate_grid = ThresholdEvaluator.evaluate_grid

    def search(self, target_f_score: float, step: float = 0.05) -> OptimizationResult:
        """Brute force's optimum over the ``step`` grid, without its scores.

        Among pairs meeting the F-score floor the lowest bandwidth wins,
        then the lowest average final latency, then the highest F-score,
        then grid order; with no feasible pair the first highest-F-score
        pair wins — :func:`~repro.core.optimizer.brute_force_search`'s
        rule.  Only the tied minimum-bandwidth candidates have their
        latency summed, and the winner's score comes from
        :meth:`evaluate`.
        """
        rescores_before = self._frame_rescores
        grid = self._fold(step)
        f_scores, utilization = grid.scores(len(self._frames))
        feasible = f_scores >= target_f_score
        if feasible.any():
            feasible_utilization = np.where(feasible, utilization, np.inf)
            candidates = np.flatnonzero(feasible_utilization == feasible_utilization.min())
            best = min(
                candidates.tolist(),
                key=lambda i: (self._average_final_latency(grid.lowers[i], grid.uppers[i]), -f_scores[i]),
            )
        else:
            best = int(np.argmax(f_scores))
        score = self.evaluate(grid.lowers[best], grid.uppers[best])
        return OptimizationResult(
            best=score,
            evaluations=len(grid.lowers),
            target_f_score=target_f_score,
            feasible=score.f_score >= target_f_score,
            frame_rescores=self._frame_rescores - rescores_before,
        )

    # -- internal -----------------------------------------------------------
    def _fold(self, step: float) -> _GridFold:
        """The ``step`` grid's counts with every frame folded in."""
        grid = self._grids.get(step)
        if grid is None:
            grid = self._grids[step] = _GridFold(step)
        frames = self._frames
        if not frames:
            raise ValueError("cannot evaluate thresholds without any frame traces")
        for frame in frames[grid.folded:]:
            states = grid.states(frame.confidences)
            seen = np.zeros(2 * len(frame.confidences) + 2, dtype=bool)
            seen[states] = True
            table = np.zeros((len(seen), 4), dtype=np.int64)
            for state in np.flatnonzero(seen).tolist():
                table[state] = (*self._state_stats(frame, state), state & 1)
            grid.counts += table[states]
        grid.folded = len(frames)
        return grid

    def _state_stats(self, frame: _FrameEntry, state: int) -> tuple[int, int, int]:
        """Confusion-matrix contribution of one frame in one decision state.

        Scored once per ``(frame, state)`` and memoised.  ``state // 2``
        is the number of detections with confidence below ``θL``;
        because the confidences are sorted and the bisect boundary is
        strict, it uniquely determines the surviving label set (every
        detection with confidence ≥ the first survivor's).  The client
        view narrows the frame's match report to them.
        """
        stats = frame.stats.get(state)
        if stats is not None:
            return stats
        discarded, sent = divmod(state, 2)
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
        observed = observed_labels(
            survivors,
            frame.cloud_labels,
            bool(sent),
            frame.frame_id,
            self._match_overlap,
            frame.report,
            model_name="hypothetical",
        )
        report = evaluate_detections(observed, frame.cloud_labels, min_overlap=self._match_overlap)
        stats = (report.true_positives, report.false_positives, report.false_negatives)
        frame.stats[state] = stats
        self._frame_rescores += 1
        return stats

    def _average_final_latency(self, lower: float, upper: float) -> float:
        """Mean final latency under one pair, summed in trace order."""
        latencies = [
            frame.sent_latency if frame.state(lower, upper) & 1 else frame.unsent_latency
            for frame in self._frames
        ]
        return sum(latencies) / len(latencies)

    def _initial_latency(self) -> float:
        if self._average_initial_latency is None:
            frames = self._frames
            self._average_initial_latency = (
                sum(frame.initial_latency for frame in frames) / len(frames)
            )
        return self._average_initial_latency


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

    The result — scores, optimum and tie-breaks — is exactly
    :func:`~repro.core.optimizer.brute_force_search`'s over the same
    grid.  (A coordinate descent fanned out from every ``θU`` start
    covers the whole grid in its first column sweeps, so this scan is
    what such a descent reduces to.)

    The work is not in the pairs but in the label matching, and that is
    where the incremental scorer wins: each frame is scored only once
    per distinct decision state (at most ``2·(detections + 1)``
    regardless of grid resolution), and each scan folds in only the
    frames added since the last.  So the default grid here is twice as
    fine as the brute-force default at ≥10× fewer per-frame scorings
    (tracked in ``frame_rescores``).  Pass the same ``step`` to both
    searches when comparing optima directly.
    """
    scorer = _scorer_for(evaluator)
    result = scorer.search(target_f_score, step=step)
    return replace(result, scores=tuple(scorer.evaluate_grid(step)))
