"""Lane-level evaluation: 75%-rule matching, F1/AP, near/far X/Z errors.

Both lane sets are resampled by linear interpolation onto a shared
longitudinal grid (1 m steps over 1..100 m).  A predicted lane is admissible
for a ground-truth lane when at least 75% of the GT's valid samples lie
within the distance threshold of the prediction (samples the prediction does
not cover count as misses).  Admissible pairs are matched one-to-one by
minimum mean distance; matched pairs contribute to the error statistics,
split into near and far halves at a configurable boundary.

Lanes with no valid samples inside the grid cannot participate and are
excluded from the counts on both sides.
"""

from dataclasses import dataclass

import numpy as np

from .config import (
    EVAL_THRESHOLDS_M,
    EVAL_Y_MAX_M,
    EVAL_Y_MIN_M,
    EVAL_Y_STEP_M,
    NEAR_FAR_SPLIT_M,
)
from .matching import solve_assignment

INLIER_FRACTION = 0.75
AP_CONF_STEPS = tuple(np.round(np.arange(0.05, 0.951, 0.05), 2))


def default_y_samples():
    return np.arange(EVAL_Y_MIN_M, EVAL_Y_MAX_M + EVAL_Y_STEP_M / 2, EVAL_Y_STEP_M)


@dataclass(frozen=True, eq=False)
class GroundTruthLane:
    """An annotated lane polyline with a category label."""

    points: np.ndarray
    category: int = 0

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
            raise ValueError(f"lane needs >= 2 (x, y, z) points, got shape {points.shape}")
        if np.any(np.diff(points[:, 1]) < 0):
            raise ValueError("lane y coordinates must be non-decreasing")
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate detection quality at one distance threshold."""

    threshold: float
    f1: float
    precision: float
    recall: float
    ap: float
    x_err_near: float
    x_err_far: float
    z_err_near: float
    z_err_far: float
    tp: int
    fp: int
    fn: int

    def as_dict(self):
        return {
            "threshold": self.threshold, "f1": self.f1,
            "precision": self.precision, "recall": self.recall, "ap": self.ap,
            "x_err_near": self.x_err_near, "x_err_far": self.x_err_far,
            "z_err_near": self.z_err_near, "z_err_far": self.z_err_far,
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
        }


def resample_lane(lane, y_samples):
    """Linear x(y), z(y) interpolation; samples beyond the extent are invalid."""
    points = np.asarray(getattr(lane, "points", lane), dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
        raise ValueError(f"lane needs >= 2 (x, y, z) points, got shape {points.shape}")
    y_samples = np.asarray(y_samples, dtype=float)
    if np.any(np.diff(y_samples) < 0):
        raise ValueError("y_samples must be ascending")
    ys = points[:, 1]
    valid = (y_samples >= ys[0]) & (y_samples <= ys[-1])
    out = np.zeros((len(y_samples), 3))
    out[:, 1] = y_samples
    out[valid, 0] = np.interp(y_samples[valid], ys, points[:, 0])
    out[valid, 2] = np.interp(y_samples[valid], ys, points[:, 2])
    return out, valid


def _stack_resampled(lanes, y_samples):
    xs = np.zeros((len(lanes), len(y_samples)))
    zs = np.zeros_like(xs)
    valid = np.zeros(xs.shape, dtype=bool)
    for i, lane in enumerate(lanes):
        pts, v = resample_lane(lane, y_samples)
        xs[i], zs[i], valid[i] = pts[:, 0], pts[:, 2], v
    return xs, zs, valid


class _Resampled:
    """One frame's lanes on the shared grid, with empty lanes dropped."""

    def __init__(self, pred_lanes, gt_lanes, y_samples):
        px, pz, pv = _stack_resampled(pred_lanes, y_samples)
        keep_p = pv.any(axis=1)
        gx, gz, gv = _stack_resampled(gt_lanes, y_samples)
        keep_g = gv.any(axis=1)
        self.px, self.pz, self.pv = px[keep_p], pz[keep_p], pv[keep_p]
        self.gx, self.gz, self.gv = gx[keep_g], gz[keep_g], gv[keep_g]
        self.conf = np.array([getattr(p, "confidence", 1.0)
                              for p, k in zip(pred_lanes, keep_p) if k])
        self.n_pred = int(keep_p.sum())
        self.n_gt = int(keep_g.sum())

    def admissible_cost(self, threshold):
        """Pair cost matrix: mean both-valid distance, inf when inadmissible."""
        px, pz, pv = self.px, self.pz, self.pv
        if len(px) == 0 or self.n_gt == 0:
            return np.full((len(px), self.n_gt), np.inf)
        dist = np.hypot(px[:, None, :] - self.gx[None, :, :],
                        pz[:, None, :] - self.gz[None, :, :])
        both = pv[:, None, :] & self.gv[None, :, :]
        gt_counts = self.gv.sum(axis=1)
        inliers = (both & (dist <= threshold)).sum(axis=2)
        admissible = inliers / gt_counts[None, :] >= INLIER_FRACTION
        both_counts = both.sum(axis=2)
        sums = np.where(both, dist, 0.0).sum(axis=2)
        mean_dist = np.where(both_counts > 0, sums / np.maximum(both_counts, 1), np.inf)
        return np.where(admissible & (both_counts > 0), mean_dist, np.inf)

    def pair_errors(self, pairs, near_mask):
        """Sums/counts of |dx|, |dz| on matched both-valid samples,
        ordered (x near, x far, z near, z far)."""
        sums = np.zeros(4)
        counts = np.zeros(4)
        for p, g in pairs:
            both = self.pv[p] & self.gv[g]
            adx = np.abs(self.px[p] - self.gx[g])
            adz = np.abs(self.pz[p] - self.gz[g])
            for idx, mask in enumerate((both & near_mask, both & ~near_mask)):
                sums[idx] += adx[mask].sum()
                counts[idx] += mask.sum()
                sums[idx + 2] += adz[mask].sum()
                counts[idx + 2] += mask.sum()
        return sums, counts


def match_lanes(pred_lanes, gt_lanes, dist_threshold, y_samples=None):
    """One-to-one lane matching under the 75% rule at ``dist_threshold``.

    Indices in the result refer to positions among the lanes that have at
    least one valid sample; lanes entirely outside the grid are dropped.
    """
    if dist_threshold <= 0:
        raise ValueError("dist_threshold must be positive")
    if y_samples is None:
        y_samples = default_y_samples()
    frame = _Resampled(pred_lanes, gt_lanes, y_samples)
    return solve_assignment(frame.admissible_cost(dist_threshold))


def _normalize_frames(frames):
    if hasattr(frames, "keys"):
        return dict(frames)
    return {0: list(frames)}


def evaluate(pred_frames, gt_frames, thresholds=EVAL_THRESHOLDS_M,
             near_far_split=NEAR_FAR_SPLIT_M, conf_steps=AP_CONF_STEPS,
             y_samples=None):
    """Evaluates predictions against ground truth, one report per threshold.

    ``pred_frames``/``gt_frames`` are mappings from frame id to lane lists (a
    bare list is treated as a single frame).  Predicted lanes expose
    ``points`` and optionally ``confidence`` (default 1.0).  AP averages
    precision over the confidence cutoffs that retain at least one
    prediction; if no cutoff retains any, AP is 0.
    """
    preds = _normalize_frames(pred_frames)
    gts = _normalize_frames(gt_frames)
    if set(preds) != set(gts):
        missing = set(preds) ^ set(gts)
        raise ValueError(f"frame ids do not align; unpaired: {sorted(missing)!r}")
    if y_samples is None:
        y_samples = default_y_samples()
    y_samples = np.asarray(y_samples, dtype=float)
    near_mask = y_samples < near_far_split

    frames = [_Resampled(preds[fid], gts[fid], y_samples) for fid in sorted(preds)]

    reports = []
    for threshold in thresholds:
        tp = fp = fn = 0
        err_sums = np.zeros(4)
        err_counts = np.zeros(4)
        cutoff_tp = np.zeros(len(conf_steps))
        cutoff_pred = np.zeros(len(conf_steps))

        for frame in frames:
            costs = frame.admissible_cost(threshold)
            pairs = solve_assignment(costs).pairs
            tp += len(pairs)
            fp += frame.n_pred - len(pairs)
            fn += frame.n_gt - len(pairs)
            sums, counts = frame.pair_errors(pairs, near_mask)
            err_sums += sums
            err_counts += counts

            for c_idx, cutoff in enumerate(conf_steps):
                rows = np.nonzero(frame.conf >= cutoff)[0]
                cutoff_pred[c_idx] += len(rows)
                if len(rows) == 0:
                    continue
                sub_pairs = solve_assignment(costs[rows]).pairs
                cutoff_tp[c_idx] += len(sub_pairs)

        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        achieved = cutoff_pred > 0
        ap = float((cutoff_tp[achieved] / cutoff_pred[achieved]).mean()) \
            if achieved.any() else 0.0
        errs = np.where(err_counts > 0, err_sums / np.maximum(err_counts, 1), 0.0)
        reports.append(EvalReport(threshold=float(threshold), f1=f1,
                                  precision=precision, recall=recall, ap=ap,
                                  x_err_near=float(errs[0]), x_err_far=float(errs[1]),
                                  z_err_near=float(errs[2]), z_err_far=float(errs[3]),
                                  tp=tp, fp=fp, fn=fn))
    return reports
