"""Tests for the inlined overlap kernel and match-report reuse.

``match_labels`` and ``evaluate_detections`` inline the overlap-ratio
arithmetic instead of calling :func:`repro.detection.geometry.overlap_ratio`
per box pair.  The contract is exactness: on any boxes — touching
edges, zero-area boxes, identical boxes, equal-overlap ties — both must
return what the straightforward loops over ``overlap_ratio`` return.

A validated frame is matched once, in the edge's final stage, and that
full-frame report also yields the client's view of the frame's
surviving labels; the view must equal one built by re-matching the
survivors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import observed_labels
from repro.core.thresholds import ThresholdPolicy
from repro.detection.geometry import BoundingBox, overlap_ratio
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import LabelMatch, MatchOutcome, MatchReport, match_labels
from repro.detection.metrics import AccuracyReport, evaluate_detections

from helpers import make_detection, make_label_set


# -- references built on geometry.overlap_ratio --------------------------------

def reference_match_labels(edge: LabelSet, cloud: LabelSet, min_overlap: float) -> MatchReport:
    matches = []
    claimed = set()
    for edge_detection in edge:
        best_index = None
        best_overlap = 0.0
        for index, cloud_detection in enumerate(cloud):
            overlap = overlap_ratio(edge_detection.box, cloud_detection.box)
            if overlap >= min_overlap and overlap > best_overlap:
                best_overlap = overlap
                best_index = index
        if best_index is None:
            matches.append(LabelMatch(edge_detection, None, MatchOutcome.MISSING, 0.0))
            continue
        cloud_detection = cloud.detections[best_index]
        claimed.add(best_index)
        outcome = (
            MatchOutcome.CONFIRMED
            if cloud_detection.name == edge_detection.name
            else MatchOutcome.CORRECTED
        )
        matches.append(
            LabelMatch(edge_detection, cloud_detection, outcome, best_overlap, best_index)
        )
    unmatched = tuple(d for index, d in enumerate(cloud) if index not in claimed)
    return MatchReport(matches=tuple(matches), unmatched_cloud=unmatched)


def reference_evaluate(observed: LabelSet, truth: LabelSet, min_overlap: float) -> AccuracyReport:
    claimed = set()
    true_positives = false_positives = 0
    for prediction in observed:
        for index, truth_label in enumerate(truth):
            if index in claimed or truth_label.name != prediction.name:
                continue
            if overlap_ratio(prediction.box, truth_label.box) >= min_overlap:
                claimed.add(index)
                true_positives += 1
                break
        else:
            false_positives += 1
    return AccuracyReport(true_positives, false_positives, len(truth) - len(claimed))


# -- strategies ------------------------------------------------------------------
#
# Coordinates come mostly from a coarse lattice, so boxes share edges,
# coincide, collapse to zero width or height, and tie on overlap; a
# share of arbitrary floats keeps the general case covered.

coordinates = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]),
    st.floats(0.0, 8.0, allow_nan=False),
)


@st.composite
def boxes(draw) -> BoundingBox:
    x0, x1 = sorted((draw(coordinates), draw(coordinates)))
    y0, y1 = sorted((draw(coordinates), draw(coordinates)))
    return BoundingBox(x0, y0, x1, y1)


detections = st.builds(
    Detection,
    name=st.sampled_from(["a", "b"]),
    confidence=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
    box=boxes(),
)


def label_sets(frame_id: int = 0):
    return st.lists(detections, max_size=6).map(
        lambda found: LabelSet(frame_id, tuple(found), "test")
    )


overlaps = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))


# -- the kernel ------------------------------------------------------------------

class TestInlinedKernel:
    @given(label_sets(), label_sets(), overlaps)
    @settings(max_examples=300, deadline=None)
    def test_match_labels_equals_the_overlap_ratio_reference(self, edge, cloud, min_overlap):
        assert match_labels(edge, cloud, min_overlap) == reference_match_labels(
            edge, cloud, min_overlap
        )

    @given(label_sets(), label_sets(), overlaps)
    @settings(max_examples=300, deadline=None)
    def test_evaluate_detections_equals_the_overlap_ratio_reference(
        self, observed, truth, min_overlap
    ):
        assert evaluate_detections(observed, truth, min_overlap) == reference_evaluate(
            observed, truth, min_overlap
        )

    @pytest.mark.parametrize("min_overlap", [0.0, 1.0])
    @given(edge=label_sets(), cloud=label_sets())
    @settings(max_examples=100, deadline=None)
    def test_extreme_overlap_floors(self, min_overlap, edge, cloud):
        assert match_labels(edge, cloud, min_overlap) == reference_match_labels(
            edge, cloud, min_overlap
        )
        assert evaluate_detections(edge, cloud, min_overlap) == reference_evaluate(
            edge, cloud, min_overlap
        )

    def test_equal_overlap_tie_goes_to_the_first_cloud_index(self):
        edge = make_label_set(0, make_detection("person", x=100, y=100, size=50))
        left = make_detection("left", x=75, y=100, size=50)
        right = make_detection("right", x=125, y=100, size=50)
        report = match_labels(edge, make_label_set(0, left, right))
        assert report.matches[0].cloud is left
        assert report.matches[0].cloud_index == 0
        assert report.unmatched_cloud == (right,)
        report = match_labels(edge, make_label_set(0, right, left))
        assert report.matches[0].cloud is right

    def test_touching_edges_never_match_but_score_at_a_zero_floor(self):
        edge = make_label_set(0, make_detection("person", x=0, y=0, size=10))
        cloud = make_label_set(0, make_detection("person", x=10, y=0, size=10))
        assert match_labels(edge, cloud, min_overlap=0.0).matches[0].outcome is MatchOutcome.MISSING
        assert evaluate_detections(edge, cloud, min_overlap=0.0) == AccuracyReport(1, 0, 0)
        assert evaluate_detections(edge, cloud, min_overlap=0.1) == AccuracyReport(0, 1, 1)

    def test_zero_area_box_has_zero_overlap(self):
        point = Detection("person", 0.9, BoundingBox(5.0, 5.0, 5.0, 5.0))
        box = make_detection("person", x=0, y=0, size=10)
        edge = make_label_set(0, point)
        cloud = make_label_set(0, box)
        assert match_labels(edge, cloud, min_overlap=0.0).matches[0].cloud is None
        assert evaluate_detections(edge, cloud, min_overlap=0.0) == AccuracyReport(1, 0, 0)
        assert evaluate_detections(edge, cloud, min_overlap=1e-9) == AccuracyReport(0, 1, 1)

    def test_identical_boxes_match_at_full_overlap(self):
        box = make_detection("person", x=0, y=0, size=10)
        report = match_labels(make_label_set(0, box), make_label_set(0, box, box), min_overlap=1.0)
        assert report.matches[0].overlap == 1.0
        assert report.matches[0].cloud_index == 0
        assert report.unmatched_cloud == (box,)


# -- one report per validated frame --------------------------------------------

thresholds = st.tuples(
    st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.6, 0.8]),
    st.sampled_from([0.2, 0.4, 0.5, 0.7, 0.95]),
).filter(lambda pair: pair[0] <= pair[1])


class TestReusedReport:
    @given(label_sets(7), label_sets(7), thresholds, overlaps)
    @settings(max_examples=300, deadline=None)
    def test_full_frame_report_gives_the_rematched_view(self, edge, cloud, pair, min_overlap):
        """The edge matches every label; the client sees only the survivors
        of θL.  Narrowing the full report must equal re-matching them."""
        survivors = ThresholdPolicy(*pair).surviving_labels(edge)
        full_report = match_labels(edge, cloud, min_overlap)
        reused = observed_labels(survivors, cloud, True, 7, min_overlap, full_report)
        rematched = observed_labels(survivors, cloud, True, 7, min_overlap)
        assert reused == rematched
        assert reused.model_name == "croesus-observed"

    def test_discarded_labels_release_their_cloud_match(self):
        confident = make_detection("person", confidence=0.9, x=0, y=0)
        doubtful = make_detection("dog", confidence=0.1, x=300, y=300)
        cloud_person = make_detection("person", x=2, y=0)
        cloud_cat = make_detection("cat", x=300, y=300)
        edge = make_label_set(3, confident, doubtful)
        cloud = make_label_set(3, cloud_person, cloud_cat)
        survivors = ThresholdPolicy(0.5, 0.95).surviving_labels(edge)
        view = observed_labels(
            survivors, cloud, True, 3, 0.1, match_labels(edge, cloud), model_name="hypothetical"
        )
        # The discarded "dog" claimed the cat; once dropped, the cat is a
        # cloud label the client missed and is added back.
        assert view.detections == (confident, cloud_cat)
        assert view.model_name == "hypothetical"

    def test_unsent_frames_show_the_survivors(self):
        edge = make_label_set(1, make_detection("person", confidence=0.9))
        cloud = make_label_set(1, make_detection("dog"))
        assert observed_labels(edge, cloud, False, 1, 0.1, match_labels(edge, cloud)) is edge

    def test_report_must_cover_the_survivors(self):
        edge = make_label_set(1, make_detection("person", confidence=0.9))
        other = make_label_set(1, make_detection("person", confidence=0.9), make_detection("dog"))
        cloud = make_label_set(1, make_detection("person"))
        with pytest.raises(ValueError):
            observed_labels(edge, cloud, True, 1, 0.1, match_labels(other, cloud))
