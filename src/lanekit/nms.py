"""Keypoint proposals and point non-maximum suppression.

Proposals are grid cells with foreground scores, the candidate keypoints a
detection head selects, each refined by a lateral offset ``dx`` and a
height ``z``.  PointNMS turns every refined point into an axis-aligned
integer box (scale factor ``r``, side lengths ``r * thresh_x`` by
``r * thresh_y``) and runs greedy box suppression at IoU ``t`` = 0.1.  Of
several proposals aimed at the same target, only the most confident
survives if they lie closer than the distance below.

What that suppresses on one row: two boxes share their height, so with
integer widths ``w1``, ``w2`` and lateral overlap ``o`` their IoU is
``o / (w1 + w2 - o)``, and the lower-scored proposal goes exactly when the
height is positive and ``o > t * (w1 + w2) / (1 + t)``.  In metres, two
proposals whose refined x lie ``d`` apart conflict when
``d < (1 - t) / (1 + t) * thresh_x``, about ``0.82 * thresh_x`` at t = 0.1,
up to the rounding of the box edges to ``1/r`` m (at most
``(1 + 3t) / ((1 + t) r)`` m either way).

``box_nms`` tests only boxes that can conflict.  A conflict needs an overlap
of positive area, so the boxes are bucketed into cells as wide as the widest
box and as tall as the tallest; each box is tested against the boxes in the
3x3 block of cells around it (the locality idea of Neubeck & Van Gool,
*Efficient Non-Maximum Suppression*, ICPR 2006), each pair once.  Candidate
IoUs use the same float formulas as a dense pairwise matrix, so the result,
keep order included, is exactly the dense greedy one.

A ``ProposalSet`` is its columns and nothing else: ``grid_index`` (N, 2),
``x``, ``y``, ``dx``, ``z``, ``fg_score`` (N,) and ``class_scores`` (N, C).
Every proposal carries the same number C >= 0 of class scores, the
``categories`` of a prediction frame; a proposal with none falls back to its
``fg_score`` for confidence.  The columns are validated once, when the set is
made, refined positions ``x + dx`` included, and are read-only.
``ProposalSet.from_arrays`` takes them directly and is the one place they
are checked: ``ProposalSet(keypoints)`` gathers the fields of ``Keypoint``
objects, whose score vectors must all have one length, into columns and
hands them to it; a ``Keypoint``, a plain record, is checked there, and
every function that takes Keypoints makes a set of them first.  A
``subset`` copies the chosen rows.  Indexing or iterating a set makes a
new ``Keypoint`` from each row.

``infer_nms_thresholds`` is the one rule for the suppression window: twice
the widest row's anchor step laterally, half the smallest row gap
longitudinally.  ``default_nms_thresholds`` applies it to a whole grid.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (FINITE, INT64, UNIT, ValidationError, check_int, check_real, float_array,
                     int_array)

# PointNMS's box scale factor ``r`` and IoU threshold ``t``, the defaults of
# ``point_nms`` and of ``pipeline.suppress`` and ``run_pipeline``.
NMS_R = 10
NMS_IOU_THRESH = 0.1


@dataclass(frozen=True, eq=False)
class Keypoint:
    """One lane keypoint proposal anchored at a grid cell, a plain record.

    ``x``/``y`` are the anchor's lateral/longitudinal position in meters;
    the refined lateral position is ``x + dx``.  ``fg_score`` is the
    foreground probability from the score map; ``class_scores`` holds
    per-category probabilities, None for none.  Two Keypoints are equal when
    every field is.  The fields are checked when it enters a ProposalSet.
    """

    grid_index: tuple[int, int]
    x: float
    y: float
    dx: float = 0.0
    z: float = 0.0
    fg_score: float = 0.0
    class_scores: np.ndarray = None

    def _scores(self):
        return () if self.class_scores is None else tuple(np.ravel(self.class_scores).tolist())

    def _key(self):
        return (tuple(self.grid_index), self.x, self.y, self.dx, self.z, self.fg_score,
                self._scores())

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Keypoint) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def refined_x(self):
        return self.x + self.dx

    @property
    def confidence(self):
        """Max class score; falls back to fg_score before classification."""
        scores = self._scores()
        return max(scores) if scores else self.fg_score

    @property
    def category(self):
        scores = self._scores()
        return int(np.argmax(scores)) if scores else 0


_COLUMNS = ("grid_index", "x", "y", "dx", "z", "fg_score", "class_scores")


def _read_only(array):
    array.flags.writeable = False
    return array


class ProposalSet:
    """Ordered keypoint proposals, ``repeats_n`` of them per intended target.

    Built from ``Keypoint`` objects, whose fields are gathered into
    ``from_arrays``, or with ``from_arrays`` from columns; see the module
    docstring for the storage.
    """

    def __init__(self, keypoints=(), repeats_n=1):
        keypoints = tuple(keypoints)
        columns = {name: [getattr(k, name) for k in keypoints] for name in _COLUMNS}
        columns["class_scores"] = [() if s is None else s for s in columns["class_scores"]]
        vars(self).update(vars(self.from_arrays(**columns, repeats_n=repeats_n)))

    @classmethod
    def from_arrays(cls, grid_index, x, y, dx=None, z=None, fg_score=None,
                    class_scores=None, repeats_n=1):
        """A set straight from columns: ``grid_index`` (N, 2) integers, the
        rest (N,) floats and ``class_scores`` (N, C).  Omitted columns take
        the ``Keypoint`` defaults: zero offsets, heights and fg scores, and
        no class scores.  The columns are validated and kept as read-only
        copies; a bad entry is named by its row, as ``keypoints[2].fg_score``.
        The refined position ``x + dx`` must be finite too."""
        x = float_array(x, "x", (None,), "keypoints[{}].x")
        n = len(x)
        self = cls.__new__(cls)
        self.grid_index = _read_only(int_array(grid_index, "grid_index", (n, 2),
                                               "keypoints[{}].grid_index").copy())
        columns = {"x": x, "y": y, "dx": dx, "z": z, "fg_score": fg_score}
        for name, values in columns.items():
            values = float_array(np.zeros(n) if values is None else values, name, (n,),
                                 f"keypoints[{{}}].{name}",
                                 UNIT if name == "fg_score" else FINITE).copy()
            setattr(self, name, _read_only(values))
        with np.errstate(over="ignore"):   # an overflow to inf is the error below
            float_array(self.refined_x, "x + dx", row_name="keypoints[{}].x + dx",
                        within=FINITE)
        class_scores = float_array(np.empty((n, 0)) if class_scores is None else class_scores,
                                   "class_scores", (n, None), "keypoints[{}].class_scores",
                                   UNIT).copy()
        self.class_scores = _read_only(class_scores)
        self.repeats_n = check_int(repeats_n, "repeats_n", 1)
        return self

    def __len__(self):
        return len(self.x)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        """Row ``i`` as a new ``Keypoint``."""
        i = range(len(self))[operator.index(i)]
        return Keypoint(grid_index=tuple(self.grid_index[i].tolist()), x=float(self.x[i]),
                        y=float(self.y[i]), dx=float(self.dx[i]), z=float(self.z[i]),
                        fg_score=float(self.fg_score[i]),
                        class_scores=self.class_scores[i])

    @property
    def refined_x(self):
        """(N,) refined lateral positions ``x + dx``."""
        return self.x + self.dx

    @property
    def refined_xy(self):
        """(N, 2) refined lateral and longitudinal positions."""
        return np.column_stack([self.refined_x, self.y])

    @property
    def confidences(self):
        """Per-proposal max class score, or fg_score when there are none."""
        return self.class_scores.max(axis=1) if self.class_scores.shape[1] else self.fg_score

    def subset(self, indices):
        """The proposals at ``indices``, in that order, as a set of their own;
        each index must lie in [0, len)."""
        rows = int_array(indices, "indices", (None,), within=(0, len(self), "[)"))
        out = ProposalSet.__new__(ProposalSet)
        for name in _COLUMNS:
            setattr(out, name, _read_only(getattr(self, name)[rows]))
        out.repeats_n = self.repeats_n
        return out


def as_proposal_set(proposals):
    """``proposals`` as a ProposalSet; a sequence of Keypoints is converted."""
    return proposals if isinstance(proposals, ProposalSet) else ProposalSet(proposals)


def round_half_away(values):
    """Rounds to the nearest integer, halves away from zero; a value outside
    the int64 range is rejected."""
    values = float_array(values, "values", within=INT64)
    return np.trunc(values + np.copysign(0.5, values)).astype(np.int64)


def build_nms_boxes(points_xy, thresh_x, thresh_y, r=NMS_R):
    """Integer boxes of size (r*thresh_x, r*thresh_y) centered at r*point.

    Rows are (x1, y1, x2, y2).  ``thresh_x``, ``thresh_y`` and ``r`` must be
    positive and finite, and each half-window ``r * thresh / 2`` must lie
    inside the int64 range; a point that is not finite, or whose box edge
    would fall outside the int64 range, is rejected.
    """
    check_real(r, "r", 0)
    for name, value in (("thresh_x", thresh_x), ("thresh_y", thresh_y)):
        # Python floats overflow to inf without a warning.
        half = float(r) / 2.0 * float(check_real(value, name, 0))
        if not half < 2.0 ** 63:
            raise ValidationError(f"{name}: half-window r * {name} / 2 = {half:g} lies "
                                  f"outside the int64 range")
    pts = float_array(points_xy, "points_xy", (None, 2), within=FINITE)
    # An edge that overflows to inf fails the range test below.
    with np.errstate(over="ignore"):
        half = (r / 2.0) * np.array([thresh_x, thresh_y], dtype=float)
        edges = np.concatenate([pts * r - half, pts * r + half], axis=1)
    return round_half_away(float_array(edges, "edges", row_name="points_xy[{}] box edge",
                                       within=INT64))


# Candidate pairs are tested this many at a time.
_PAIR_BLOCK = 1 << 20


def _cell_ranks(lower, extent):
    """Ranks of the cells, one box extent wide, holding each lower edge.

    Two boxes overlap along an axis only if their lower edges lie less than
    ``extent`` (the largest box side) apart, and then their cells differ by
    at most one.  The cells are widened by a margin that covers the rounding
    of the side lengths and of the division, which also keeps every quotient
    below 2**48.  Ranking the distinct cells can put empty cells' neighbours
    side by side, which only adds candidates.
    """
    width = extent + (extent + np.abs(lower).max()) * 2.0 ** -48
    if not width > 0:       # every edge at 0 and every side 0: nothing overlaps
        width = 1.0
    _, ranks = np.unique(np.floor(lower / width), return_inverse=True)
    return ranks


def _cell_keys(boxes):
    """The cell key of every box, and the key stride from one row of cells
    to the next."""
    x1, y1, x2, y2 = boxes.T
    cx = _cell_ranks(x1, (x2 - x1).max())
    cy = _cell_ranks(y1, (y2 - y1).max())
    stride = int(cx.max()) + 2   # a spare column keeps cx +- 1 inside a row of cells
    return cy * stride + cx, stride


def _candidate_pairs(key, stride):
    """Candidate pairs among boxes sorted by cell ``key``, as positions in
    that order: for every box, each box after it in the 3x3 block of cells
    around it.  Cells are neighbours both ways, so every unordered pair is
    met once, as ``src < dst``: the row of cells below holds only earlier
    boxes, and in the box's own row only the ones after it count.  Yields
    blocks ``(src, dst)`` grouped by ``src`` in increasing order; a block
    holds about ``_PAIR_BLOCK`` pairs, so that boxes crowded into a few
    cells need bounded memory."""
    n = len(key)
    # In its own row of cells and the one above, columns cx-1..cx+1 are one
    # run of consecutive keys.  Each row offset queries in ascending key
    # order, which is the order that searchsorted handles fastest.
    centre = (key + stride * np.array([[0], [1]])).ravel()
    first = np.searchsorted(key, centre - 1, side="left")
    first[:n] = np.arange(1, n + 1)   # its own row: only the boxes after it
    count = np.searchsorted(key, centre + 1, side="right") - first
    first, count = (a.reshape(2, n).T.ravel() for a in (first, count))   # box-major
    per_box = count.reshape(n, 2).sum(axis=1)
    before = np.concatenate([[0], np.cumsum(per_box)])
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(before, before[start] + _PAIR_BLOCK,
                                                  side="right")) - 1)
        ranges = slice(2 * start, 2 * stop)
        length = count[ranges]
        # Ragged aranges first[k] .. first[k] + length[k] - 1, concatenated.
        offset = np.repeat(first[ranges] - (np.cumsum(length) - length), length)
        src = np.repeat(np.arange(start, stop), per_box[start:stop])
        yield src, np.arange(len(src)) + offset
        start = stop


def _conflicts(boxes, key, stride, iou_thresh):
    """For boxes sorted by cell ``key``, the pairs that conflict (IoU above
    ``iou_thresh``), as arrays ``(src, dst)`` of positions in that order,
    each pair once with ``src < dst``.

    Each candidate pair's IoU uses the elementwise formulas of the dense
    pairwise matrix, which give the same bits with the boxes swapped, so
    the conflict set is exactly the dense one.
    """
    x1, y1, x2, y2 = (np.ascontiguousarray(column) for column in boxes.T)
    areas = (x2 - x1) * (y2 - y1)
    sources, targets = [], []
    for src, dst in _candidate_pairs(key, stride):
        iw = np.clip(np.minimum(x2[src], x2[dst]) - np.maximum(x1[src], x1[dst]), 0.0, None)
        ih = np.clip(np.minimum(y2[src], y2[dst]) - np.maximum(y1[src], y1[dst]), 0.0, None)
        inter = iw * ih
        union = areas[src] + areas[dst] - inter
        # union >= inter always, so union == 0 forces inter == 0; the 0/0
        # NaN compares False, the defined zero-union IoU 0.
        with np.errstate(invalid="ignore"):
            hit = inter / union > iou_thresh
        sources.append(src[hit])
        targets.append(dst[hit])
    return np.concatenate(sources), np.concatenate(targets)


def box_nms(boxes, scores, iou_thresh):
    """Greedy box suppression in descending score order, ties by index.

    A box is kept iff its IoU with every previously kept box is at or below
    ``iou_thresh``, which must lie in [0, 1].  Areas are plain side products;
    zero-area overlap counts as IoU 0.  Returns kept indices in the order
    they were kept.

    A conflict needs an overlap of positive area, so boxes are bucketed into
    cells as wide and tall as the largest box and only boxes in neighbouring
    cells are tested, each pair once.  One vectorised round then keeps every
    box with no conflicting box above it in score order, and suppresses
    every box below one of those that it conflicts with.  The greedy sweep,
    in score order, runs over the remaining open boxes only: a box kept in
    that round conflicts with no open box above it, so the sweep skips an
    open box exactly when it conflicts with an open box the sweep kept.
    """
    check_real(iou_thresh, "iou_thresh", 0, 1, "[]")
    boxes = float_array(boxes, "boxes", (None, 4), within=FINITE)
    scores = float_array(scores, "scores", (len(boxes),), within=FINITE)
    if len(boxes) == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(boxes[:, 0] > boxes[:, 2]) or np.any(boxes[:, 1] > boxes[:, 3]):
        raise ValidationError("boxes must satisfy x1 <= x2 and y1 <= y2")

    key, stride = _cell_keys(boxes)
    by_key = np.argsort(key, kind="stable")
    src, dst = _conflicts(boxes[by_key], key[by_key], stride, iou_thresh)
    order = np.argsort(-scores, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # Each conflict as the ranks in score order of its upper and lower box.
    a, b = rank[by_key[src]], rank[by_key[dst]]
    upper, lower = np.minimum(a, b), np.maximum(a, b)
    kept = np.ones(len(boxes), dtype=bool)   # by rank
    kept[lower] = False
    is_open = ~kept
    is_open[lower[kept[upper]]] = False   # suppressed by a box kept in the round
    # The greedy sweep over the open boxes, through their conflicts with
    # each other, grouped by upper box.
    chain = is_open[upper] & is_open[lower]
    below = {}
    for u, l in zip(upper[chain].tolist(), lower[chain].tolist()):
        below.setdefault(u, []).append(l)
    blocked = set()
    for r in np.flatnonzero(is_open).tolist():
        if r not in blocked:
            kept[r] = True
            blocked.update(below.get(r, ()))
    return order[kept]


def point_nms(points_xy, scores, thresh_x, thresh_y, r=NMS_R, iou_thresh=NMS_IOU_THRESH):
    """Point suppression via box construction; returns kept indices by score.
    The arguments follow ``build_nms_boxes`` and ``box_nms``."""
    return box_nms(build_nms_boxes(points_xy, thresh_x, thresh_y, r), scores, iou_thresh)


def infer_nms_thresholds(proposals):
    """The suppression window ``(thresh_x, thresh_y)`` from the anchors the
    proposals sit on.

    Lateral: twice the widest row's anchor step.  A row's step is its
    smallest positive dx/dcol between proposals at consecutive present
    columns, taken from the largest x in the lower column to the smallest x
    in the upper one; with no such step in any row it is 1.0.
    Longitudinal: half the smallest gap between distinct y (the rows), or
    half of 2.0 when only one y occurs.
    """
    rows, cols, xs = proposals.grid_index[:, 0], proposals.grid_index[:, 1], proposals.x
    # In (row, col, x) order, neighbours in one row but in different columns
    # are the largest x of one present column and the smallest of the next.
    order = np.lexsort((xs, cols, rows))
    rows, cols, xs = rows[order], cols[order], xs[order]
    across = (rows[1:] == rows[:-1]) & (cols[1:] != cols[:-1])
    steps = np.diff(xs)[across] / np.diff(cols)[across]
    step_rows, steps = rows[1:][across][steps > 0], steps[steps > 0]
    x_step = 1.0
    if steps.size:
        # the smallest step of each row, then the largest of those
        row_starts = np.flatnonzero(np.r_[True, step_rows[1:] != step_rows[:-1]])
        x_step = np.minimum.reduceat(steps, row_starts).max()
    distinct_y = np.unique(proposals.y)
    y_gap = np.diff(distinct_y).min() if distinct_y.size > 1 else 2.0
    return 2.0 * x_step, 0.5 * y_gap


def default_nms_thresholds(grid):
    """``infer_nms_thresholds`` over every anchor of ``grid``."""
    rows, cols = np.indices((grid.rows, grid.cols)).reshape(2, -1)
    x, y = grid.positions.reshape(-1, 2).T
    return infer_nms_thresholds(ProposalSet.from_arrays(np.column_stack([rows, cols]), x, y))
