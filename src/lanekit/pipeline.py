"""End-to-end inference: proposal suppression followed by lane extraction."""

from dataclasses import dataclass

import numpy as np

from .errors import check_int
from .graph import EDGE_THRESHOLD, extract_lanes
from .nms import NMS_IOU_THRESH, NMS_R, ProposalSet, infer_nms_thresholds, point_nms


@dataclass(frozen=True)
class PipelineResult:
    lanes: tuple
    kept_indices: np.ndarray
    kept: ProposalSet


def _survivors(frame, thresh_x, thresh_y, r, iou_thresh):
    """The indices of the proposals PointNMS keeps, in ascending order."""
    proposals = frame.keypoints
    if thresh_x is None or thresh_y is None:
        auto_x, auto_y = infer_nms_thresholds(proposals)
        thresh_x = auto_x if thresh_x is None else thresh_x
        thresh_y = auto_y if thresh_y is None else thresh_y
    return np.sort(point_nms(proposals.refined_xy, proposals.confidences,
                             thresh_x, thresh_y, r=r, iou_thresh=iou_thresh))


def suppress(frame, thresh_x=None, thresh_y=None, r=NMS_R, iou_thresh=NMS_IOU_THRESH):
    """PointNMS on a frame's proposals.

    A threshold left as None is inferred with ``infer_nms_thresholds``.
    Returns the kept indices in ascending order, the kept proposals and the
    adjacency pruned to them.
    """
    keep = _survivors(frame, thresh_x, thresh_y, r, iou_thresh)
    return keep, frame.keypoints.subset(keep), frame.adjacency[np.ix_(keep, keep)]


def run_pipeline(frame, t_a=EDGE_THRESHOLD, thresh_x=None, thresh_y=None, r=NMS_R,
                 iou_thresh=NMS_IOU_THRESH, min_lane_points=2):
    """Runs PointNMS on the frame (as ``suppress`` does) and extracts lane
    instances from the survivors, dropping any shorter than
    ``min_lane_points``.  The lane graph is read from the survivors' rows
    of the frame's adjacency; the pruned matrix is never built."""
    check_int(min_lane_points, "min_lane_points", 0)
    keep = _survivors(frame, thresh_x, thresh_y, r, iou_thresh)
    kept = frame.keypoints.subset(keep)
    lanes = extract_lanes(kept, frame.adjacency, t_a=t_a, nodes=keep)
    lanes = tuple(l for l in lanes if len(l.path) >= min_lane_points)
    return PipelineResult(lanes=lanes, kept_indices=keep, kept=kept)
