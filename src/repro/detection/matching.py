"""Edge-to-cloud label matching (paper Section 3.3.2, "Final Transaction Section").

When the cloud labels ``Lc`` arrive, each edge label ``Le[i]`` is matched
to the cloud label with the largest bounding-box overlap (subject to a
minimum overlap fraction).  Three outcomes are possible:

* ``MISSING``   — no overlapping cloud label: the edge detection was
  spurious; the final section runs with an empty label.
* ``CONFIRMED`` — overlapping cloud label with the **same** name: the edge
  detection was correct.
* ``CORRECTED`` — overlapping cloud label with a **different** name: the
  edge detection was mislabelled; the final section runs with the cloud
  label.

Cloud labels that match no edge label are *unmatched* and trigger fresh
initial+final sections (step 4 of the execution pattern).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.detection.labels import Detection, LabelSet


class MatchOutcome(Enum):
    """Result of matching one edge label against the cloud labels."""

    CONFIRMED = "confirmed"
    CORRECTED = "corrected"
    MISSING = "missing"


@dataclass(frozen=True, slots=True)
class LabelMatch:
    """Pairing of one edge detection with its cloud counterpart (if any).

    ``cloud_index`` is the cloud label's position in the cloud label set
    (``None`` when the edge label is missing), so a report can be
    narrowed to a subset of its edge labels without re-matching.
    """

    edge: Detection
    cloud: Detection | None
    outcome: MatchOutcome
    overlap: float
    cloud_index: int | None = None

    @property
    def was_correct(self) -> bool:
        """True when the edge label needed no correction."""
        return self.outcome is MatchOutcome.CONFIRMED

    @property
    def corrected_label(self) -> Detection | None:
        """The label the final section should use (None when spurious)."""
        if self.outcome is MatchOutcome.MISSING:
            return None
        if self.outcome is MatchOutcome.CONFIRMED:
            return self.edge
        return self.cloud


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Full result of matching a frame's edge labels with its cloud labels."""

    matches: tuple[LabelMatch, ...]
    unmatched_cloud: tuple[Detection, ...]

    @property
    def corrections_needed(self) -> int:
        """Number of edge labels that turned out wrong (corrected or missing)."""
        return sum(1 for match in self.matches if not match.was_correct)

    @property
    def all_correct(self) -> bool:
        """True when every edge label was confirmed and nothing was missed."""
        return self.corrections_needed == 0 and not self.unmatched_cloud


def match_labels(
    edge_labels: LabelSet,
    cloud_labels: LabelSet,
    min_overlap: float = 0.10,
) -> MatchReport:
    """Match edge labels against cloud labels by bounding-box overlap.

    Parameters
    ----------
    edge_labels:
        Labels produced by the edge model (``Le``).
    cloud_labels:
        Labels produced by the cloud model (``Lc``), treated as truth.
    min_overlap:
        Minimum overlap fraction for two boxes to be considered the same
        object (the paper's X%, default 10%).

    Returns
    -------
    MatchReport
        Per-edge-label matches plus the cloud labels no edge label claimed.
    """
    if not 0.0 <= min_overlap <= 1.0:
        raise ValueError("min_overlap must be in [0, 1]")

    cloud = cloud_labels.detections
    cloud_extents = box_extents(cloud)
    matches: list[LabelMatch] = []
    claimed: set[int] = set()

    for edge_detection in edge_labels.detections:
        box = edge_detection.box
        ex0, ey0, ex1, ey1 = box.x_min, box.y_min, box.x_max, box.y_max
        edge_area = (ex1 - ex0) * (ey1 - ey0)
        best_index: int | None = None
        best_overlap = 0.0
        for index, (cx0, cy0, cx1, cy1, cloud_area) in enumerate(cloud_extents):
            # overlap_ratio(edge box, cloud box), inlined.  A zero overlap
            # never beats best_overlap (which starts at 0.0), so every
            # zero branch of the ratio just skips the candidate.
            x_overlap = (cx1 if cx1 < ex1 else ex1) - (cx0 if cx0 > ex0 else ex0)
            y_overlap = (cy1 if cy1 < ey1 else ey1) - (cy0 if cy0 > ey0 else ey0)
            if x_overlap <= 0 or y_overlap <= 0:
                continue
            intersection = x_overlap * y_overlap
            smaller = cloud_area if cloud_area < edge_area else edge_area
            if intersection == 0.0 or smaller <= 0.0:
                continue
            overlap = intersection / smaller
            # Strict ">" keeps the first cloud index on a tie.
            if overlap >= min_overlap and overlap > best_overlap:
                best_overlap = overlap
                best_index = index

        if best_index is None:
            matches.append(LabelMatch(edge_detection, None, MatchOutcome.MISSING, 0.0))
            continue

        cloud_detection = cloud[best_index]
        claimed.add(best_index)
        outcome = (
            MatchOutcome.CONFIRMED
            if cloud_detection.name == edge_detection.name
            else MatchOutcome.CORRECTED
        )
        matches.append(
            LabelMatch(edge_detection, cloud_detection, outcome, best_overlap, best_index)
        )

    unmatched = tuple(
        detection for index, detection in enumerate(cloud) if index not in claimed
    )
    return MatchReport(matches=tuple(matches), unmatched_cloud=unmatched)


def box_extents(detections: tuple[Detection, ...]) -> list[tuple[float, float, float, float, float]]:
    """``(x_min, y_min, x_max, y_max, area)`` of each detection's box.

    The area is computed exactly as :attr:`BoundingBox.area` computes it,
    so an overlap ratio built from these extents is bit-identical to
    :func:`~repro.detection.geometry.overlap_ratio`.
    """
    extents = []
    for detection in detections:
        box = detection.box
        x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max, box.y_max
        extents.append((x0, y0, x1, y1, (x1 - x0) * (y1 - y0)))
    return extents
