"""End-to-end inference: proposal suppression followed by lane extraction."""

from dataclasses import dataclass

import numpy as np

from .graph import extract_lanes
from .nms import ProposalSet, infer_nms_thresholds, point_nms


@dataclass(frozen=True)
class PipelineResult:
    lanes: tuple
    kept_indices: np.ndarray
    kept: ProposalSet


def suppress(frame, thresh_x=None, thresh_y=None, r=10, iou_thresh=0.1):
    """PointNMS on a frame's proposals.

    A threshold left as None is inferred with ``infer_nms_thresholds``.
    Returns the kept indices in ascending order, the kept proposals and the
    adjacency pruned to them.
    """
    proposals = frame.keypoints
    if thresh_x is None or thresh_y is None:
        auto_x, auto_y = infer_nms_thresholds(proposals)
        thresh_x = auto_x if thresh_x is None else thresh_x
        thresh_y = auto_y if thresh_y is None else thresh_y
    keep = np.sort(point_nms(proposals.refined_xy, proposals.confidences,
                             thresh_x, thresh_y, r=r, iou_thresh=iou_thresh))
    return keep, proposals.subset(keep), frame.adjacency[np.ix_(keep, keep)]


def run_pipeline(frame, t_a=0.5, thresh_x=None, thresh_y=None, r=10,
                 iou_thresh=0.1, min_lane_points=2):
    """Runs PointNMS on the frame (see ``suppress``) and extracts lane
    instances from the survivors, dropping any shorter than
    ``min_lane_points``."""
    keep, kept, adjacency = suppress(frame, thresh_x, thresh_y, r=r, iou_thresh=iou_thresh)
    lanes = extract_lanes(kept, adjacency, t_a=t_a)
    lanes = tuple(l for l in lanes if len(l.path) >= min_lane_points)
    return PipelineResult(lanes=lanes, kept_indices=keep, kept=kept)
