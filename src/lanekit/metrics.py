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

``evaluate`` scores a sequence in one pass.  All the lanes of a side, every
frame's, are resampled together by one interpolation that equals
``np.interp`` bit for bit.  Frames are the outer loop: a frame's pair
distances are computed once and serve every threshold.  At each threshold,
``matching.solve_assignment`` gives the one-to-one matching, and
the maximum-matching sizes that AP needs at each confidence cutoff come
from one augmenting-path pass over the admissible pairs, taking
predictions by falling confidence.  Each frame's counts are kept apart and
added in frame order, so a frame's own report (``eval --per-frame``) comes
from the same pass.
"""

from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .config import (
    EVAL_THRESHOLDS_M,
    EVAL_Y_MAX_M,
    EVAL_Y_MIN_M,
    EVAL_Y_STEP_M,
    NEAR_FAR_SPLIT_M,
)
from .errors import FINITE, UNIT, ValidationError, check_real, float_array
from .graph import LaneRecord
from .matching import solve_assignment

INLIER_FRACTION = 0.75
AP_CONF_STEPS = tuple(np.round(np.arange(0.05, 0.951, 0.05), 2))


def default_y_samples():
    return np.arange(EVAL_Y_MIN_M, EVAL_Y_MAX_M + EVAL_Y_STEP_M / 2, EVAL_Y_STEP_M)


GroundTruthLane = LaneRecord


def _lane_record(lane, name):
    """``lane``, which must be a LaneRecord; ``name`` names it in errors."""
    if not isinstance(lane, LaneRecord):
        raise ValidationError(f"{name}: expected a LaneRecord, got {type(lane).__name__}")
    return lane


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
    """``y_samples`` as a 1-D, finite, ascending float array; None gives the
    default grid."""
    if y_samples is None:
        return default_y_samples()
    y_samples = float_array(y_samples, "y_samples", (None,), within=FINITE)
    if not (np.diff(y_samples) >= 0).all():
        raise ValidationError("y_samples must be ascending")
    return y_samples


def _resample(lanes, y_samples):
    """``(x, z, valid)``, each ``(len(lanes), len(y_samples))``: the
    LaneRecords ``lanes`` interpolated linearly, x(y) and z(y), onto the
    ascending ``y_samples`` in one pass.  A sample outside a lane's y extent
    is invalid and reads 0.

    The values equal ``np.interp``'s bit for bit.  For a sample y, j is the
    lane's last knot with y_j <= y.  The value is v_j where y sits on knot j
    or j is the lane's last knot, else
    ``(v[j+1] - v[j]) / (y[j+1] - y[j]) * (y - y[j]) + v[j]``.  j is found
    exactly: each knot is binned at the first sample at or above it, and a
    running count of a lane's bins gives, per sample, how many of the
    lane's knots lie at or below it.
    """
    shape = (len(lanes), len(y_samples))
    if 0 in shape:
        return np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    knots = np.concatenate([lane.points for lane in lanes])
    knot_y = knots[:, 1]
    sizes = np.array([len(lane.points) for lane in lanes])
    starts = np.cumsum(sizes) - sizes
    width = len(y_samples) + 1
    bins = np.repeat(np.arange(len(lanes)) * width, sizes) + np.searchsorted(y_samples, knot_y)
    below = np.bincount(bins, minlength=len(lanes) * width).reshape(-1, width)[:, :-1]
    below = below.cumsum(axis=1)
    j = starts[:, None] + below - 1
    valid = (below > 0) & (y_samples <= knot_y[starts + sizes - 1, None])
    knot_at = (below == sizes[:, None]) | (knot_y[j] == y_samples)
    offset = y_samples - knot_y[j]
    # A slope across a lane boundary or a repeated knot may divide by zero,
    # but only samples on a knot or out of range would read it; np.interp
    # does not warn on overflow either.
    x, z = np.zeros(shape), np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dy = np.diff(knot_y, append=knot_y[-1])
        for out, v in ((x, knots[:, 0]), (z, knots[:, 2])):
            slope = np.diff(v, append=v[-1]) / dy
            np.copyto(out, np.where(knot_at, v[j], slope[j] * offset + v[j]), where=valid)
    return x, z, valid


def resample_lane(lane, y_samples):
    """Linear x(y), z(y) interpolation of the LaneRecord ``lane`` onto
    ``y_samples`` (1-D, finite, ascending); samples beyond its extent are
    invalid."""
    lane = _lane_record(lane, "lane")
    y_samples = _y_grid(y_samples)
    x, z, valid = _resample([lane], y_samples)
    return np.column_stack([x[0], y_samples, z[0]]), valid[0]


def _on_grid(frames, names, y_samples):
    """Per frame, ``(x, z, valid, confidence)`` of its lanes that have a
    valid sample on ``y_samples``, all frames resampled together.
    ``frames`` are lists of LaneRecords; lane i of frame f is called
    ``names[f][i]`` in errors."""
    lanes = [_lane_record(lane, f"{name}[{i}]")
             for name, frame in zip(names, frames) for i, lane in enumerate(frame)]
    x, z, valid = _resample(lanes, y_samples)
    conf = np.array([lane.confidence for lane in lanes], dtype=float)
    keep = valid.any(axis=1)
    frame_of = np.repeat(np.arange(len(frames)), [len(frame) for frame in frames])
    bounds = np.searchsorted(frame_of[keep], np.arange(len(frames) + 1))
    x, z, valid, conf = x[keep], z[keep], valid[keep], conf[keep]
    return [(x[a:b], z[a:b], valid[a:b], conf[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


class _FramePairs:
    """One frame's prediction x ground-truth pairs on the shared grid, with
    the distances every threshold reads computed once."""

    def __init__(self, pred, gt):
        self.px, self.pz, self.pv, self.conf = pred
        self.gx, self.gz, self.gv, _ = gt
        self.dist = np.hypot(self.px[:, None, :] - self.gx[None, :, :],
                             self.pz[:, None, :] - self.gz[None, :, :])
        self.both = self.pv[:, None, :] & self.gv[None, :, :]
        both_counts = self.both.sum(axis=2)
        sums = np.where(self.both, self.dist, 0.0).sum(axis=2)
        self.mean_dist = np.where(both_counts > 0, sums / np.maximum(both_counts, 1), np.inf)
        self.gt_counts = self.gv.sum(axis=1)

    def admissible_cost(self, threshold):
        """Pair cost matrix: mean both-valid distance, inf when inadmissible.
        An admissible pair has inliers, so its mean distance is defined."""
        inliers = (self.both & (self.dist <= threshold)).sum(axis=2)
        admissible = inliers / self.gt_counts >= INLIER_FRACTION
        return np.where(admissible, self.mean_dist, np.inf)

    def pair_errors(self, pairs, near_mask):
        """Sums and counts of |dx|, |dz| on matched both-valid samples,
        ordered (x near, x far, z near, z far).  ``pairs`` are a Matching's,
        already checked, so they are read without the array rule.  Each
        pair's sums are taken over its own samples and added in pair order."""
        sums = np.zeros(4)
        p, g = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)).reshape(-1, 2).T
        both = self.pv[p] & self.gv[g]
        near, far = both & near_mask, both & ~near_mask
        adx = np.abs(self.px[p] - self.gx[g])
        adz = np.abs(self.pz[p] - self.gz[g])
        for k in range(len(pairs)):
            sums += (adx[k][near[k]].sum(), adx[k][far[k]].sum(),
                     adz[k][near[k]].sum(), adz[k][far[k]].sum())
        n_near, n_far = near.sum(), far.sum()
        return sums, np.array([n_near, n_far, n_near, n_far], dtype=float)


def _prefix_matching_sizes(admissible, order):
    """``sizes[k]``: the size of a maximum matching of the boolean
    (rows x columns) ``admissible`` restricted to the rows ``order[:k]``,
    for every k from 0 to ``len(order)``.

    Rows join in turn, each with one augmenting-path search from it (Kuhn):
    a maximum matching stays maximum when a row joins, unless a path that
    augments it starts at that row.
    """
    adjacent = [[] for _ in range(admissible.shape[0])]
    rows, cols = np.nonzero(admissible)
    for row, col in zip(rows.tolist(), cols.tolist()):
        adjacent[row].append(col)
    owner = [-1] * admissible.shape[1]   # row matched to each column, -1 for none
    sizes = [0]
    for root in order.tolist():
        grew = bool(adjacent[root]) and _augment(root, adjacent, owner)
        sizes.append(sizes[-1] + grew)
    return sizes


def _augment(root, adjacent, owner):
    """Depth-first search for an augmenting path from the unmatched row
    ``root``; flips it into ``owner`` (column -> row) and returns whether
    there was one.  The search keeps its own stack, so a path may be longer
    than the recursion limit."""
    seen = set()
    rows, cols = [root], []   # the path: rows[i] takes cols[i], now owned by rows[i + 1]
    todo = [iter(adjacent[root])]
    while todo:
        for col in todo[-1]:
            if col not in seen:
                break
        else:   # rows[-1] leads nowhere new
            del todo[-1], rows[-1], cols[-1:]
            continue
        seen.add(col)
        cols.append(col)
        if owner[col] < 0:
            for row, c in zip(rows, cols):
                owner[c] = row
            return True
        rows.append(owner[col])
        todo.append(iter(adjacent[owner[col]]))
    return False


def match_lanes(pred_lanes, gt_lanes, dist_threshold, y_samples=None):
    """One-to-one matching of two LaneRecord lists under the 75% rule at
    ``dist_threshold``, which must be finite and positive, on ``y_samples``
    (1-D, finite, ascending; None gives the default grid).  A lane that is
    not a LaneRecord raises ValidationError naming it, e.g. ``pred_lanes[1]``.

    Indices in the result refer to positions among the lanes that have at
    least one valid sample; lanes entirely outside the grid are dropped.
    """
    check_real(dist_threshold, "dist_threshold", 0)
    y_samples = _y_grid(y_samples)
    pred, = _on_grid([pred_lanes], ["pred_lanes"], y_samples)
    gt, = _on_grid([gt_lanes], ["gt_lanes"], y_samples)
    return solve_assignment(_FramePairs(pred, gt).admissible_cost(dist_threshold))


def _normalize_frames(frames):
    if hasattr(frames, "keys"):
        return dict(frames)
    return {0: list(frames)}


def _sorted_ids(ids, name):
    """``ids`` in ascending order; ids that do not compare, such as ``0`` and
    ``'a'``, are rejected as ``name``."""
    try:
        return sorted(ids)
    except TypeError as exc:
        raise ValidationError(f"{name}: frame ids are not mutually orderable ({exc})") from exc


# A tally holds one frame's (or a sequence's) counts at one threshold: tp,
# fp and fn, the four error sums and their sample counts (x near, x far,
# z near, z far), then per AP cutoff the matched and the retained
# predictions.  Tallies add elementwise.
_HEAD = 11


def _tally(frame, threshold, near_mask, order, retained):
    """``frame``'s tally at ``threshold``; ``order`` ranks its predictions
    by falling confidence, and each AP cutoff retains the first
    ``retained[i]`` of them."""
    costs = frame.admissible_cost(threshold)
    pairs = solve_assignment(costs).pairs
    sums, counts = frame.pair_errors(pairs, near_mask)
    # Retained sets are prefixes of ``order``, so AP's cutoffs need only the
    # size of a maximum matching on each prefix.
    sizes = _prefix_matching_sizes(np.isfinite(costs), order)
    n_pred, n_gt = costs.shape
    return np.concatenate([(len(pairs), n_pred - len(pairs), n_gt - len(pairs)),
                           sums, counts, np.take(sizes, retained), retained])


def _report(threshold, tally):
    """The EvalReport at ``threshold`` of the summed ``tally``."""
    tp, fp, fn = (int(n) for n in tally[:3])
    err_sums, err_counts = tally[3:7], tally[7:_HEAD]
    cutoff_tp, cutoff_pred = np.split(tally[_HEAD:], 2)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    achieved = cutoff_pred > 0
    ap = float((cutoff_tp[achieved] / cutoff_pred[achieved]).mean()) \
        if achieved.any() else 0.0
    errs = np.where(err_counts > 0, err_sums / np.maximum(err_counts, 1), 0.0)
    return EvalReport(threshold=float(threshold), f1=f1, precision=precision,
                      recall=recall, ap=ap,
                      x_err_near=float(errs[0]), x_err_far=float(errs[1]),
                      z_err_near=float(errs[2]), z_err_far=float(errs[3]),
                      tp=tp, fp=fp, fn=fn)


def evaluate(pred_frames, gt_frames, thresholds=EVAL_THRESHOLDS_M,
             near_far_split=NEAR_FAR_SPLIT_M, conf_steps=AP_CONF_STEPS,
             y_samples=None):
    """Evaluates predictions against ground truth, one report per threshold.

    ``pred_frames``/``gt_frames`` are mappings from frame id to lists of
    ``LaneRecord``s (a bare list is treated as a single frame); any other
    lane raises ValidationError naming it, e.g. ``pred_frames['a'][1]:
    expected a LaneRecord, got ndarray``.  So does an argument out of its
    domain: frame ids that differ between the two mappings, a threshold
    that is not finite and positive, ``y_samples`` that are not 1-D, finite
    and ascending, a NaN ``near_far_split``, or ``conf_steps`` outside
    [0, 1].  AP averages precision over the confidence cutoffs that retain
    at least one prediction; if no cutoff retains any, AP is 0.
    """
    return _evaluate(pred_frames, gt_frames, thresholds, near_far_split, conf_steps,
                     y_samples)[0]


def _evaluate(pred_frames, gt_frames, thresholds=EVAL_THRESHOLDS_M,
              near_far_split=NEAR_FAR_SPLIT_M, conf_steps=AP_CONF_STEPS,
              y_samples=None, per_frame=False):
    """``evaluate``'s reports and, with ``per_frame``, ``{frame id: the
    reports evaluate gives for that frame alone}`` from the same pass (else
    None), in sorted frame id order."""
    preds = _normalize_frames(pred_frames)
    gts = _normalize_frames(gt_frames)
    fids = _sorted_ids(preds, "pred_frames")
    if set(preds) != set(gts):
        missing = set(preds) ^ set(gts)
        raise ValidationError(f"gt_frames: frame ids do not align with pred_frames; "
                              f"unpaired: {_sorted_ids(missing, 'gt_frames')!r}")
    y_samples = _y_grid(y_samples)
    check_real(near_far_split, "near_far_split", ends="[]")
    near_mask = y_samples < near_far_split
    steps = float_array(conf_steps, "conf_steps", (None,), within=UNIT)

    pred_side = _on_grid([preds[fid] for fid in fids],
                         [f"pred_frames[{fid!r}]" for fid in fids], y_samples)
    gt_side = _on_grid([gts[fid] for fid in fids],
                       [f"gt_frames[{fid!r}]" for fid in fids], y_samples)
    thresholds = tuple(check_real(t, f"thresholds[{i}]", 0) for i, t in enumerate(thresholds))

    # Frames are the outer loop, so a frame's pair distances serve every
    # threshold; its tallies are added into the totals in frame order.
    totals = np.zeros((len(thresholds), _HEAD + 2 * len(steps)))
    frame_reports = {} if per_frame else None
    for fid, pred, gt in zip(fids, pred_side, gt_side):
        frame = _FramePairs(pred, gt)
        order = np.argsort(-frame.conf, kind="stable")
        retained = (frame.conf[None, :] >= steps[:, None]).sum(axis=1)
        tallies = [_tally(frame, threshold, near_mask, order, retained)
                   for threshold in thresholds]
        for total, tally in zip(totals, tallies):
            total += tally
        if per_frame:
            frame_reports[fid] = [_report(t, tally) for t, tally in zip(thresholds, tallies)]
    return [_report(t, total) for t, total in zip(thresholds, totals)], frame_reports
