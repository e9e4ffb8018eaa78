"""Accuracy metrics: precision, recall and F-score.

The paper measures accuracy as the F-score of what the *client observes*
against the ground truth (which the paper takes to be YOLOv3's output).
A client observation is the edge label unless the frame was validated by
the cloud, in which case the corrected label counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.labels import LabelSet
from repro.detection.matching import box_extents


@dataclass(frozen=True, slots=True)
class AccuracyReport:
    """Precision / recall / F-score over a set of frames."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f_score(self) -> float:
        return f_score(self.precision, self.recall)

    def merged(self, other: "AccuracyReport") -> "AccuracyReport":
        """Combine counts from two reports."""
        return AccuracyReport(
            true_positives=self.true_positives + other.true_positives,
            false_positives=self.false_positives + other.false_positives,
            false_negatives=self.false_negatives + other.false_negatives,
        )


def f_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


#: Shared zero report for frames with no predictions and no truth labels.
#: AccuracyReport is frozen, so one instance can serve every such frame.
_EMPTY_REPORT = AccuracyReport(0, 0, 0)


def evaluate_detections(
    observed: LabelSet,
    truth: LabelSet,
    min_overlap: float = 0.10,
) -> AccuracyReport:
    """Score observed labels against ground-truth labels for one frame.

    A prediction counts as a true positive when some unclaimed truth label
    overlaps it by at least ``min_overlap`` and carries the same name —
    the same 10%-overlap rule the paper uses for its F-score.
    """
    if not observed.detections:
        truth_count = len(truth)
        if truth_count == 0:
            return _EMPTY_REPORT
        return AccuracyReport(0, 0, truth_count)
    truth_labels = truth.detections
    truth_extents = box_extents(truth_labels)
    claimed: set[int] = set()
    true_positives = 0
    false_positives = 0

    for prediction in observed.detections:
        name = prediction.name
        box = prediction.box
        px0, py0, px1, py1 = box.x_min, box.y_min, box.x_max, box.y_max
        prediction_area = (px1 - px0) * (py1 - py0)
        matched = False
        for index, truth_label in enumerate(truth_labels):
            if index in claimed:
                continue
            if truth_label.name != name:
                continue
            # overlap_ratio(prediction box, truth box), inlined.  The ratio
            # is compared even when it is 0.0: min_overlap may be 0.
            tx0, ty0, tx1, ty1, truth_area = truth_extents[index]
            x_overlap = (tx1 if tx1 < px1 else px1) - (tx0 if tx0 > px0 else px0)
            y_overlap = (ty1 if ty1 < py1 else py1) - (ty0 if ty0 > py0 else py0)
            if x_overlap <= 0 or y_overlap <= 0:
                overlap = 0.0
            else:
                intersection = x_overlap * y_overlap
                smaller = truth_area if truth_area < prediction_area else prediction_area
                if intersection == 0.0 or smaller <= 0.0:
                    overlap = 0.0
                else:
                    overlap = intersection / smaller
            if overlap >= min_overlap:
                claimed.add(index)
                matched = True
                break
        if matched:
            true_positives += 1
        else:
            false_positives += 1

    false_negatives = len(truth_labels) - len(claimed)
    return AccuracyReport(
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
    )


def aggregate_reports(reports: list[AccuracyReport]) -> AccuracyReport:
    """Sum a list of per-frame reports into one corpus-level report."""
    total = AccuracyReport(0, 0, 0)
    for report in reports:
        total = total.merged(report)
    return total
