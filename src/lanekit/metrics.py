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
``np.interp`` bit for bit.  The sequence is then one table of pairs
(``_PairTable``), a row per (prediction, GT lane) of one frame, frames in
order and predictions first within a frame, leaving out pairs that no
threshold can admit; one vectorised pass gives every row's distances and
mean distance, read at every threshold.  Frames enter
the table whole, in blocks of at most ``_BLOCK_ENTRIES`` entries (a larger
frame is a block alone).  At each threshold one
``matching.solve_assignment`` call on a block's block-diagonal cost matches
every frame in it, since the solver solves each connected component on its
own, and one augmenting-path pass over its predictions, frame by frame and
by falling confidence, gives the maximum-matching sizes that AP needs at
each confidence cutoff.  A lane's valid samples are one run, so a matched
pair's near and far samples are one slice each; its four error sums are
taken once and serve every threshold that matches it.  Each frame's counts
are kept apart and added in frame order, so a frame's own report (``eval
--per-frame``) comes from the same pass.
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
    """``(x, z, valid, conf, bounds)`` of the lanes of ``frames`` (lists of
    LaneRecords) that have a valid sample on ``y_samples``, all frames
    resampled together, in frame order: frame f's lanes are rows
    ``bounds[f]:bounds[f + 1]``.  Lane i of frame f is called
    ``names[f][i]`` in errors."""
    lanes = [_lane_record(lane, f"{name}[{i}]")
             for name, frame in zip(names, frames) for i, lane in enumerate(frame)]
    x, z, valid = _resample(lanes, y_samples)
    conf = np.array([lane.confidence for lane in lanes], dtype=float)
    keep = valid.any(axis=1)
    frame_of = np.repeat(np.arange(len(frames)), [len(frame) for frame in frames])
    bounds = np.searchsorted(frame_of[keep], np.arange(len(frames) + 1))
    return x[keep], z[keep], valid[keep], conf[keep], bounds


def _frames(side, a, b):
    """Frames ``a`` to ``b`` - 1 of an ``_on_grid`` side, in its form."""
    x, z, valid, conf, bounds = side
    lo, hi = bounds[a], bounds[b]
    return x[lo:hi], z[lo:hi], valid[lo:hi], conf[lo:hi], bounds[a:b + 1] - lo


class _PairTable:
    """The (prediction, GT lane) pairs of the frames of two ``_on_grid``
    sides that may be admissible at a threshold up to ``reach``, one row
    each: frame by frame, prediction-major within a frame.  What every
    threshold reads is computed once, for all rows together: the distance
    and the both-valid mask per sample, and the both-valid mean distance.

    A pair's distance at a sample is at least its |dx|, so a pair is left
    out when fewer than 75% of the GT lane's valid samples have a
    both-valid |dx| within ``reach``: no threshold up to it admits it.  The
    2 ** -20 margin on ``reach`` leaves room for a ``hypot`` that rounds
    below |dx|."""

    def __init__(self, pred, gt, reach):
        self.px, self.pz, pv, self.conf, self.pred_bounds = pred
        self.gx, self.gz, gv, _, self.gt_bounds = gt
        self.shape = (len(self.px), len(self.gx))
        n_gt = np.diff(self.gt_bounds)
        sizes = np.diff(self.pred_bounds) * n_gt
        frame = np.repeat(np.arange(len(sizes)), sizes)
        k = np.arange(len(frame)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        p = self.pred_bounds[frame] + k // n_gt[frame]
        g = self.gt_bounds[frame] + k % n_gt[frame]
        both = pv[p] & gv[g]
        gt_counts = gv.sum(axis=1)[g]
        # |dx| in place, so at most two (rows, samples) float arrays are
        # live at once; hypot(|dx|, dz) is hypot(dx, dz).
        adx = self.px[p]
        adx -= self.gx[g]
        np.abs(adx, out=adx)
        within = (both & (adx <= reach * (1 + 2 ** -20))).sum(axis=1)
        keep = np.flatnonzero(within / gt_counts >= INLIER_FRACTION)
        self.frame, self.p, self.g = frame[keep], p[keep], g[keep]
        self.both, self.gt_counts = both[keep], gt_counts[keep]
        self.dist = np.hypot(adx[keep], self.pz[self.p] - self.gz[self.g])
        # A kept row has a both-valid sample, so its mean is defined.
        self.mean_dist = np.where(self.both, self.dist, 0.0).sum(axis=1) / self.both.sum(axis=1)

    def admissible_cost(self, threshold):
        """The dense prediction x GT cost matrix: a row's mean both-valid
        distance where admissible, inf elsewhere, and so between frames."""
        inliers = (self.both & (self.dist <= threshold)).sum(axis=1)
        admissible = inliers / self.gt_counts >= INLIER_FRACTION
        costs = np.full(self.shape, np.inf)
        costs[self.p, self.g] = np.where(admissible, self.mean_dist, np.inf)
        return costs

    def pair_errors(self, rows, near):
        """Per row in ``rows``, the sums of |dx|, |dz| on its both-valid
        samples and their counts, two ``(len(rows), 4)`` arrays ordered
        (x near, x far, z near, z far); the first ``near`` grid samples are
        near.  Each lane's valid samples are one run (``_resample``), so a
        pair's both-valid samples are one run too, its near and its far
        samples one slice each, and each sum is numpy's sum of that
        contiguous slice."""
        p, g, both = self.p[rows], self.g[rows], self.both[rows]
        start = np.count_nonzero(both.cumsum(axis=1) == 0, axis=1)
        stop = start + np.count_nonzero(both, axis=1)
        cut = np.clip(near, start, stop)
        errors = np.abs(np.stack([self.px[p] - self.gx[g], self.pz[p] - self.gz[g]], axis=1))
        sums = np.empty((len(rows), 4))
        for k, (a, b, c) in enumerate(zip(start.tolist(), cut.tolist(), stop.tolist())):
            sums[k, 0::2] = np.add.reduce(errors[k, :, a:b], axis=1)
            sums[k, 1::2] = np.add.reduce(errors[k, :, b:c], axis=1)
        counts = np.column_stack([cut - start, stop - cut] * 2).astype(float)
        return sums, counts


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
    table = _PairTable(_on_grid([pred_lanes], ["pred_lanes"], y_samples),
                       _on_grid([gt_lanes], ["gt_lanes"], y_samples), dist_threshold)
    return solve_assignment(table.admissible_cost(dist_threshold))


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

# Entries a block of frames may hold: its pair table's rows times the grid
# samples, plus its dense cost matrix's cells.  A frame that alone holds
# more is a block of its own.  At 2 ** 16 each float array of a block is at
# most 512 KB, so a block's few such arrays stay below what resampling a
# long sequence's lanes takes; larger blocks save no time, and a 400-frame
# sequence evaluated as one block takes about six times the peak memory
# and twice the time.
_BLOCK_ENTRIES = 1 << 16


def _frame_blocks(pred_bounds, gt_bounds, samples):
    """``[(a, b), ...]``: consecutive ranges of whole frames, from the
    first to the last, each within ``_BLOCK_ENTRIES`` or one frame."""
    n_pred, n_gt = np.diff(pred_bounds).tolist(), np.diff(gt_bounds).tolist()
    blocks, a, rows, preds, gts = [], 0, 0, 0, 0
    for f, (p, g) in enumerate(zip(n_pred, n_gt)):
        rows, preds, gts = rows + p * g, preds + p, gts + g
        if f > a and rows * samples + preds * gts > _BLOCK_ENTRIES:
            blocks.append((a, f))
            a, rows, preds, gts = f, p * g, p, g
    return blocks + [(a, len(n_pred))] if n_pred else blocks


def _tallies(table, thresholds, near, steps):
    """The tallies of ``table``'s frames, ``(threshold, frame, field)``.

    Per threshold one ``solve_assignment`` call on the block-diagonal cost
    matches every frame, as the solver takes each connected component on
    its own.  AP's retained sets are a frame's predictions by falling
    confidence, so one augmenting-path pass over the predictions, frame by
    frame, gives a running maximum-matching size whose differences are
    each frame's cutoff counts.  A pair matched at several thresholds has
    its error sums taken once."""
    bounds = table.pred_bounds
    n_pred, n_gt = np.diff(bounds), np.diff(table.gt_bounds)
    order = np.lexsort((-table.conf, np.repeat(np.arange(len(n_pred)), n_pred)))
    above = np.zeros((len(steps), len(table.conf) + 1), dtype=int)
    np.cumsum(table.conf >= steps[:, None], axis=1, out=above[:, 1:])
    retained = (above[:, bounds[1:]] - above[:, bounds[:-1]]).T
    row_at = np.zeros(table.shape, dtype=np.intp)
    row_at[table.p, table.g] = np.arange(len(table.p))
    tallies = np.zeros((len(thresholds), len(n_pred), _HEAD + 2 * len(steps)))
    matched = []
    for tally, threshold in zip(tallies, thresholds):
        costs = table.admissible_cost(threshold)
        pairs = solve_assignment(costs).pairs
        p, g = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)).reshape(-1, 2).T
        matched.append(row_at[p, g])
        tp = np.bincount(table.frame[matched[-1]], minlength=len(n_pred))
        sizes = np.array(_prefix_matching_sizes(np.isfinite(costs), order))
        tally[:, :3] = np.column_stack([tp, n_pred - tp, n_gt - tp])
        tally[:, _HEAD:] = np.hstack([sizes[bounds[:-1, None] + retained]
                                      - sizes[bounds[:-1, None]], retained])
    # Each frame's sums are added in pair order, as a frame's own pass adds them.
    rows, which = np.unique(np.concatenate(matched or [np.empty(0, np.intp)]),
                            return_inverse=True)
    sums, counts = table.pair_errors(rows, near)
    for tally, pairs in zip(tallies, np.split(which, np.cumsum([len(m) for m in matched])[:-1])):
        frame = table.frame[rows[pairs]]
        np.add.at(tally[:, 3:7], frame, sums[pairs])
        np.add.at(tally[:, 7:_HEAD], frame, counts[pairs])
    return tallies


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
    steps = float_array(conf_steps, "conf_steps", (None,), within=UNIT)

    pred_side = _on_grid([preds[fid] for fid in fids],
                         [f"pred_frames[{fid!r}]" for fid in fids], y_samples)
    gt_side = _on_grid([gts[fid] for fid in fids],
                       [f"gt_frames[{fid!r}]" for fid in fids], y_samples)
    thresholds = tuple(check_real(t, f"thresholds[{i}]", 0) for i, t in enumerate(thresholds))

    near = int(np.count_nonzero(y_samples < near_far_split))
    reach = max(thresholds, default=0.0)
    tallies = np.zeros((len(thresholds), len(fids), _HEAD + 2 * len(steps)))
    for a, b in _frame_blocks(pred_side[-1], gt_side[-1], len(y_samples)):
        table = _PairTable(_frames(pred_side, a, b), _frames(gt_side, a, b), reach)
        tallies[:, a:b] = _tallies(table, thresholds, near, steps)
    reports = []
    for threshold, frame_tallies in zip(thresholds, tallies):
        total = np.zeros(tallies.shape[2])
        for tally in frame_tallies:   # in frame order, as the error sums need
            total += tally
        reports.append(_report(threshold, total))
    frame_reports = None
    if per_frame:
        frame_reports = {fid: [_report(t, tally) for t, tally in zip(thresholds, tallies[:, f])]
                         for f, fid in enumerate(fids)}
    return reports, frame_reports
