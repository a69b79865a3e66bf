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

from dataclasses import asdict, dataclass

import numpy as np

from .config import (
    EVAL_THRESHOLDS_M,
    EVAL_Y_MAX_M,
    EVAL_Y_MIN_M,
    EVAL_Y_STEP_M,
    NEAR_FAR_SPLIT_M,
)
from .errors import ValidationError, check_lane
from .graph import LaneRecord
from .matching import max_cardinality, solve_assignment

INLIER_FRACTION = 0.75
AP_CONF_STEPS = tuple(np.round(np.arange(0.05, 0.951, 0.05), 2))


def default_y_samples():
    return np.arange(EVAL_Y_MIN_M, EVAL_Y_MAX_M + EVAL_Y_STEP_M / 2, EVAL_Y_STEP_M)


GroundTruthLane = LaneRecord


def _checked_lane(lane, name):
    """The points and confidence of ``lane`` (a LaneRecord, checked when made,
    anything with ``points``, or a point array), named ``name`` in errors."""
    if isinstance(lane, LaneRecord):
        return lane.points, lane.confidence
    confidence = getattr(lane, "confidence", 1.0)
    try:
        return check_lane(getattr(lane, "points", lane), confidence), confidence
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


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
        return asdict(self)


def _y_grid(y_samples):
    """``y_samples`` as an ascending float array; None gives the default grid."""
    y_samples = default_y_samples() if y_samples is None else np.asarray(y_samples, float)
    if np.any(np.diff(y_samples) < 0):
        raise ValueError("y_samples must be ascending")
    return y_samples


def _resample(points, y_samples):
    ys = points[:, 1]
    valid = (y_samples >= ys[0]) & (y_samples <= ys[-1])
    out = np.zeros((len(y_samples), 3))
    out[:, 1] = y_samples
    out[valid, 0] = np.interp(y_samples[valid], ys, points[:, 0])
    out[valid, 2] = np.interp(y_samples[valid], ys, points[:, 2])
    return out, valid


def resample_lane(lane, y_samples):
    """Linear x(y), z(y) interpolation; samples beyond the extent are invalid."""
    return _resample(_checked_lane(lane, "lane")[0], _y_grid(y_samples))


def _stack_resampled(lanes, y_samples, name):
    """Resamples each lane onto ``y_samples`` (an ascending float array) and
    gathers the confidences; lane i is called ``name[i]`` in errors."""
    xs = np.zeros((len(lanes), len(y_samples)))
    zs = np.zeros_like(xs)
    valid = np.zeros(xs.shape, dtype=bool)
    conf = np.zeros(len(lanes))
    for i, lane in enumerate(lanes):
        points, conf[i] = _checked_lane(lane, f"{name}[{i}]")
        pts, v = _resample(points, y_samples)
        xs[i], zs[i], valid[i] = pts[:, 0], pts[:, 2], v
    return xs, zs, valid, conf


class _Resampled:
    """One frame's lanes on the shared grid, with empty lanes dropped."""

    def __init__(self, pred_lanes, gt_lanes, y_samples, names=("pred_lanes", "gt_lanes")):
        px, pz, pv, conf = _stack_resampled(pred_lanes, y_samples, names[0])
        keep_p = pv.any(axis=1)
        gx, gz, gv, _ = _stack_resampled(gt_lanes, y_samples, names[1])
        keep_g = gv.any(axis=1)
        self.px, self.pz, self.pv = px[keep_p], pz[keep_p], pv[keep_p]
        self.gx, self.gz, self.gv = gx[keep_g], gz[keep_g], gv[keep_g]
        self.conf = conf[keep_p]
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


def _check_threshold(threshold):
    """Raises ValidationError unless the distance ``threshold`` is finite
    and positive."""
    # NaN fails both comparisons.
    if not 0.0 < threshold < np.inf:
        raise ValidationError(f"distance threshold must be finite and positive, "
                              f"got {threshold!r}")


def match_lanes(pred_lanes, gt_lanes, dist_threshold, y_samples=None):
    """One-to-one lane matching under the 75% rule at ``dist_threshold``,
    which must be finite and positive.

    Indices in the result refer to positions among the lanes that have at
    least one valid sample; lanes entirely outside the grid are dropped.
    """
    _check_threshold(dist_threshold)
    frame = _Resampled(pred_lanes, gt_lanes, _y_grid(y_samples))
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
    bare list is treated as a single frame).  A lane is anything with
    ``points`` and optionally ``confidence`` (default 1.0), or a bare point
    array; one breaking ``errors.check_lane`` raises, as does a threshold
    that is not finite and positive.  AP averages precision over the
    confidence cutoffs that retain at least one prediction; if no cutoff
    retains any, AP is 0.
    """
    preds = _normalize_frames(pred_frames)
    gts = _normalize_frames(gt_frames)
    if set(preds) != set(gts):
        missing = set(preds) ^ set(gts)
        raise ValueError(f"frame ids do not align; unpaired: {sorted(missing)!r}")
    y_samples = _y_grid(y_samples)
    near_mask = y_samples < near_far_split
    steps = np.asarray(conf_steps, dtype=float)

    frames = [_Resampled(preds[fid], gts[fid], y_samples,
                         (f"pred_frames[{fid!r}]", f"gt_frames[{fid!r}]"))
              for fid in sorted(preds)]

    reports = []
    for threshold in thresholds:
        _check_threshold(threshold)
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

            # AP needs only the size of a maximum matching on the rows each
            # cutoff retains.  Retained sets are nested, so a count names
            # its set: one solve per distinct count, none for the full set.
            retained = (frame.conf[None, :] >= steps[:, None]).sum(axis=1)
            cutoff_pred += retained
            sizes = {0: 0, frame.n_pred: len(pairs)}
            for count, step in zip(retained, steps):
                if count not in sizes:
                    sizes[count] = max_cardinality(costs[frame.conf >= step])
            cutoff_tp += [sizes[count] for count in retained]

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
