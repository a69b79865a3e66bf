"""End-to-end inference: proposal suppression followed by lane extraction."""

from dataclasses import dataclass

import numpy as np

from .graph import extract_lanes
from .nms import ProposalSet, point_nms


@dataclass(frozen=True)
class PipelineResult:
    lanes: tuple
    kept_indices: np.ndarray
    kept: ProposalSet


def infer_nms_thresholds(proposals):
    """Suppression radii from the geometry of the anchors actually present.

    Lateral threshold is twice the largest per-row minimum anchor gap,
    longitudinal half the smallest row gap (1.0 when only one row occurs).
    """
    rows, xs, ys = proposals.grid_index[:, 0], proposals.x, proposals.y
    # Sorted by (row, x), consecutive distinct x in one row are the gaps.
    order = np.lexsort((xs, rows))
    rows, step = rows[order], np.diff(xs[order])
    in_row = (rows[1:] == rows[:-1]) & (step > 0)
    gap_rows, gaps = rows[1:][in_row], step[in_row]
    x_gap = 0.0
    if gaps.size:
        # the smallest gap of each row, then the largest of those
        row_starts = np.flatnonzero(np.r_[True, gap_rows[1:] != gap_rows[:-1]])
        x_gap = np.minimum.reduceat(gaps, row_starts).max()
    distinct_y = np.unique(ys)
    y_gap = np.diff(distinct_y).min() if distinct_y.size > 1 else 2.0
    return 2.0 * (x_gap if x_gap > 0 else 1.0), 0.5 * y_gap


def run_pipeline(frame, t_a=0.5, thresh_x=None, thresh_y=None, r=10,
                 iou_thresh=0.1, min_lane_points=2):
    """Runs PointNMS on the frame, prunes the adjacency to the survivors and
    extracts lane instances, dropping any shorter than ``min_lane_points``."""
    proposals = frame.keypoints
    if thresh_x is None or thresh_y is None:
        auto_x, auto_y = infer_nms_thresholds(proposals)
        thresh_x = auto_x if thresh_x is None else thresh_x
        thresh_y = auto_y if thresh_y is None else thresh_y
    keep = np.sort(point_nms(proposals.refined_xy, proposals.confidences,
                             thresh_x, thresh_y, r=r, iou_thresh=iou_thresh))
    kept = proposals.subset(keep)
    adjacency = frame.adjacency[np.ix_(keep, keep)]
    lanes = extract_lanes(kept, adjacency, t_a=t_a)
    lanes = tuple(l for l in lanes if len(l.path) >= min_lane_points)
    return PipelineResult(lanes=lanes, kept_indices=keep, kept=kept)
