"""Tests for the incremental threshold scorer and coordinate descent.

The contract under test is exactness: ``IncrementalThresholdScorer`` is
a *performance* rewrite of ``ThresholdEvaluator.evaluate`` — every score
it returns must be bit-identical to the evaluator's, and
``coordinate_descent_search`` must produce the same scores and optimum
as ``brute_force_search`` (same grid, same tie-breaks) while re-matching
far fewer frames.  The grid's count arrays fold in new frames instead of
being rebuilt, so every score and optimum after an ``add_frame`` must
still equal one built from scratch.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CroesusConfig
from repro.core.incremental import IncrementalThresholdScorer, coordinate_descent_search
from repro.core.optimizer import ThresholdEvaluator, _grid, brute_force_search
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.metrics import AccuracyReport
from repro.experiments import build_single_config, get_scenario


# -- random-trace substrate ---------------------------------------------------
#
# Detections live in disjoint grid slots (one 10x10 box per slot), so
# label matching is decided purely by slot: an edge detection matches a
# cloud detection iff they share a slot.  That keeps the geometry out of
# the way while still exercising every TP/FP/FN combination.

def _slot_box(slot: int) -> BoundingBox:
    left = slot * 20.0
    return BoundingBox(left, 0.0, left + 10.0, 10.0)


def _label_set(frame_id: int, slots_and_confidences, model: str) -> LabelSet:
    detections = tuple(
        Detection("object", confidence, _slot_box(slot), object_id=slot)
        for slot, confidence in slots_and_confidences
    )
    return LabelSet(frame_id, detections, model)


confidences = st.floats(0.0, 1.0, allow_nan=False)

frame_contents = st.tuples(
    st.lists(st.tuples(st.integers(0, 5), confidences), max_size=6),  # edge
    st.lists(st.integers(0, 5), max_size=6),  # cloud slots
    st.floats(0.001, 0.5),  # initial latency component
    st.floats(0.001, 0.5),  # cloud round-trip component
)

trace_lists = st.lists(frame_contents, min_size=1, max_size=12)

threshold_pairs = st.tuples(confidences, confidences).map(
    lambda pair: (min(pair), max(pair))
)

#: Interleaved scorer operations: append a frame, or score a pair.
scorer_operations = st.lists(
    st.one_of(
        frame_contents.map(lambda frame: ("add", frame)),
        threshold_pairs.map(lambda pair: ("evaluate", pair)),
    ),
    max_size=16,
)


def _grid_pairs(step: float) -> list[tuple[float, float]]:
    values = _grid(step)
    return [(lower, upper) for lower in values for upper in values if lower <= upper]


def _build_traces(contents) -> list[FrameTrace]:
    traces = []
    for frame_id, (edge, cloud_slots, edge_s, cloud_s) in enumerate(contents):
        edge_labels = _label_set(frame_id, edge, "edge")
        cloud_labels = _label_set(
            frame_id, [(slot, 0.99) for slot in sorted(set(cloud_slots))], "cloud"
        )
        latency = LatencyBreakdown(
            edge_transfer=edge_s,
            edge_detection=edge_s,
            initial_txn=edge_s / 2,
            cloud_transfer=cloud_s,
            cloud_detection=cloud_s,
            final_txn=cloud_s / 2,
        )
        traces.append(
            FrameTrace(
                frame_id=frame_id,
                edge_labels=edge_labels,
                cloud_labels=cloud_labels,
                observed_labels=edge_labels,
                sent_to_cloud=True,
                latency=latency,
                accuracy=AccuracyReport(0, 0, 0),
            )
        )
    return traces


class TestScorerMatchesEvaluator:
    @given(trace_lists, threshold_pairs)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_traces(self, contents, pair):
        """One score, arbitrary trace set: scorer == evaluator, exactly."""
        lower, upper = pair
        evaluator = ThresholdEvaluator(_build_traces(contents))
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        assert scorer.evaluate(lower, upper) == evaluator.evaluate(lower, upper)

    @given(trace_lists, st.lists(threshold_pairs, min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_along_threshold_walks(self, contents, walk):
        """A walk re-uses per-frame sufficient statistics; every step must
        still reproduce the evaluator's score bit for bit."""
        evaluator = ThresholdEvaluator(_build_traces(contents))
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        for lower, upper in walk:
            assert scorer.evaluate(lower, upper) == evaluator.evaluate(lower, upper)

    @given(trace_lists, threshold_pairs, scorer_operations)
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_after_incremental_adds(self, contents, pair, operations):
        """Adds and evaluates interleaved: after every step, each pair
        scored so far folds in the new frames and must equal a scorer and
        an evaluator built fresh over the frames so far, bit for bit."""
        frames = list(contents)
        scorer = IncrementalThresholdScorer(_build_traces(frames))
        # Scores are cached by the pair rounded to 6 decimals, and the
        # first caller's exact values fix the cached pair.
        scored = {}
        for kind, argument in [("evaluate", pair)] + operations:
            if kind == "add":
                frames.append(argument)
                scorer.add_frame(_build_traces(frames)[-1])
            else:
                scored.setdefault(tuple(round(value, 6) for value in argument), argument)
            traces = _build_traces(frames)
            for lower, upper in scored.values():
                score = scorer.evaluate(lower, upper)
                assert score == IncrementalThresholdScorer(traces).evaluate(lower, upper)
                assert score == ThresholdEvaluator(traces).evaluate(lower, upper)

    @given(trace_lists, frame_contents)
    @settings(max_examples=40, deadline=None)
    def test_one_add_rescores_only_the_new_frame(self, contents, new_frame):
        """Re-scanning the grid after one add_frame label-matches only the
        new frame's decision states — at most 2·(k+1) for k detections —
        and nothing of the older frames."""
        traces = _build_traces(contents + [new_frame])
        scorer = IncrementalThresholdScorer(traces[:-1])
        coordinate_descent_search(scorer, target_f_score=0.8, step=0.05)
        before = scorer.frame_rescores

        scorer.add_frame(traces[-1])
        rescan = coordinate_descent_search(scorer, target_f_score=0.8, step=0.05)

        confidences = sorted(d.confidence for d in traces[-1].edge_labels.detections)
        new_states = set()
        for lower, upper in _grid_pairs(0.05):
            discarded = bisect_left(confidences, lower)
            new_states.add((discarded, bisect_right(confidences, upper) > discarded))
        assert rescan.frame_rescores == scorer.frame_rescores - before == len(new_states)
        assert len(new_states) <= 2 * (len(confidences) + 1)

    def test_profiled_video_scores_match_on_the_full_grid(self):
        """Real profiled traces, every grid pair: still bit-identical."""
        evaluator = ThresholdEvaluator.profile(CroesusConfig(seed=4), "v1", num_frames=40)
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        for reference in evaluator.evaluate_grid(step=0.1):
            assert scorer.evaluate(reference.lower, reference.upper) == reference


# -- coordinate descent vs brute force ----------------------------------------

#: Frames profiled per fig2 video (the scenarios' 80 halved for speed).
PROFILE_FRAMES = 40


@pytest.fixture(scope="module")
def figure_evaluators() -> dict[str, ThresholdEvaluator]:
    """Profiled evaluators of the paper's fig2/table1 videos."""
    evaluators = {}
    for name in ("fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"):
        spec = get_scenario(name)
        evaluators[name] = ThresholdEvaluator.profile(
            build_single_config(spec), spec.video, num_frames=PROFILE_FRAMES
        )
    return evaluators


class TestCoordinateDescent:
    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"])
    @pytest.mark.parametrize("target", [0.7, 0.8, 0.9])
    def test_matches_brute_force_optimum_exactly(self, figure_evaluators, name, target):
        """Same grid step -> same optimum, bit for bit (incl. tie-breaks)."""
        evaluator = figure_evaluators[name]
        brute = brute_force_search(evaluator, target_f_score=target, step=0.05)
        descent = coordinate_descent_search(evaluator, target_f_score=target, step=0.05)
        assert descent.best == brute.best
        assert descent.feasible == brute.feasible

    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v3"])
    def test_ten_times_fewer_frame_rescores_than_the_grid(self, figure_evaluators, name):
        """The ISSUE's perf gate: descent's full-frame label-match work is
        >= 10x below the exhaustive grid's evaluations x frames."""
        evaluator = figure_evaluators[name]
        descent = coordinate_descent_search(evaluator, target_f_score=0.8, step=0.05)
        grid_rescores = descent.evaluations * PROFILE_FRAMES
        assert descent.frame_rescores * 10 <= grid_rescores

    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"])
    @pytest.mark.parametrize("step", [0.05, 0.1])
    def test_scans_the_brute_force_grid_score_for_score(self, figure_evaluators, name, step):
        """The tuner is one grid scan: its scores equal brute force's
        field for field, in grid order, one evaluation per grid pair."""
        evaluator = figure_evaluators[name]
        brute = brute_force_search(evaluator, target_f_score=0.8, step=step)
        descent = coordinate_descent_search(evaluator, target_f_score=0.8, step=step)
        assert descent.scores == brute.scores
        assert [score.pair for score in descent.scores] == _grid_pairs(step)
        assert descent.evaluations == len(_grid_pairs(step))

    def test_infeasible_target_reports_best_effort(self, figure_evaluators):
        evaluator = figure_evaluators["fig2-v1"]
        brute = brute_force_search(evaluator, target_f_score=1.01, step=0.05)
        descent = coordinate_descent_search(evaluator, target_f_score=1.01, step=0.05)
        assert not descent.feasible
        assert descent.best == brute.best


# -- the array grid fold vs brute force ---------------------------------------

#: Scorer operations of a runtime tuner: append frames, and tick (scan the grid).
tuner_operations = st.lists(
    st.one_of(frame_contents.map(lambda frame: ("add", frame)), st.just(("tick", None))),
    min_size=1,
    max_size=12,
)


def _assert_tick_is_brute_force(scorer, frames, target, step):
    """One tuner tick on ``scorer`` against brute force from scratch."""
    traces = _build_traces(frames)
    rescores_before = scorer.frame_rescores
    tick = scorer.search(target, step=step)
    descent = coordinate_descent_search(scorer, target, step=step)
    brute = brute_force_search(ThresholdEvaluator(traces), target, step=step)
    per_pair = brute_force_search(IncrementalThresholdScorer(traces), target, step=step)

    assert tick.best == descent.best == brute.best
    assert tick.feasible == descent.feasible == brute.feasible
    assert tick.evaluations == descent.evaluations == brute.evaluations
    assert descent.scores == brute.scores
    # Every (frame, state) the grid reaches is scored exactly once over
    # the scorer's life, as often as a per-pair scan from scratch scores it.
    assert scorer.frame_rescores == per_pair.frame_rescores
    assert tick.frame_rescores == scorer.frame_rescores - rescores_before
    assert descent.frame_rescores == 0


class TestGridFold:
    @given(trace_lists, tuner_operations, st.sampled_from([0.5, 0.8, 1.01]))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_adds_and_ticks_equal_brute_force(self, contents, operations, target):
        """A target of 1.01 is infeasible, so it exercises the highest-F
        fallback; the others the minimum-bandwidth rule."""
        frames = list(contents)
        scorer = IncrementalThresholdScorer(_build_traces(frames))
        for kind, frame in operations + [("tick", None)]:
            if kind == "add":
                frames.append(frame)
                scorer.add_frame(_build_traces(frames)[-1])
            else:
                _assert_tick_is_brute_force(scorer, frames, target, step=0.1)

    def test_bandwidth_ties_are_broken_by_latency(self):
        """Validating either frame meets the target at the same bandwidth.
        The cheaper final latency must win even though validating the
        other frame scores a higher F — latency ranks before F-score."""
        frames = [
            # a sure label, a spurious 0.3 one, and a missed cloud label;
            # cheap to validate
            ([(0, 0.99), (5, 0.3)], [0, 1], 0.01, 0.05),
            # the same at 0.7, but slow to validate
            ([(2, 0.99), (6, 0.7)], [2, 3], 0.01, 0.40),
        ]
        brute = brute_force_search(ThresholdEvaluator(_build_traces(frames)), 0.7, step=0.1)
        feasible = [score for score in brute.scores if score.f_score >= 0.7]
        cheapest = min(score.bandwidth_utilization for score in feasible)
        tied = [score for score in feasible if score.bandwidth_utilization == cheapest]
        assert len({score.average_final_latency for score in tied}) > 1
        assert len({score.f_score for score in tied}) > 1

        scorer = IncrementalThresholdScorer(_build_traces(frames))
        _assert_tick_is_brute_force(scorer, frames, 0.7, step=0.1)
        best = scorer.search(0.7, step=0.1).best
        assert best.upper < 0.7  # validates the cheap frame only
        assert best.f_score < max(score.f_score for score in tied)

    def test_a_tick_raises_no_numpy_warning(self):
        """Frames without labels make every precision and recall 0/0."""
        frames = [([], [], 0.01, 0.02), ([], [], 0.02, 0.03)]
        scorer = IncrementalThresholdScorer(_build_traces(frames))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = scorer.search(0.8, step=0.05)
            coordinate_descent_search(scorer, 0.8, step=0.05)
            scorer.add_frame(_build_traces(frames + [([(1, 0.5)], [1, 2], 0.01, 0.02)])[-1])
            scorer.search(0.8, step=0.05)
        assert result.best.f_score == 0.0 and not result.feasible

    def test_winner_is_scored_by_evaluate(self):
        traces = _build_traces([([(0, 0.4), (1, 0.6)], [0, 2], 0.01, 0.02)])
        scorer = IncrementalThresholdScorer(traces)
        result = scorer.search(0.5, step=0.1)
        assert scorer.evaluations == 1
        assert scorer.evaluate(*result.thresholds) is result.best
        assert result.scores == ()

    def test_empty_scorer_cannot_search(self):
        with pytest.raises(ValueError):
            IncrementalThresholdScorer().search(0.8)
        with pytest.raises(ValueError):
            IncrementalThresholdScorer(_build_traces([([], [], 0.1, 0.1)])).search(0.8, step=0.7)
