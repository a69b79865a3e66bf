"""Keypoint proposal selection and point non-maximum suppression.

Proposals are grid cells with foreground scores; the top-N by score become
candidate keypoints, each refined by a lateral offset ``dx`` and a height
``z``.  PointNMS turns every refined point into an axis-aligned integer box
(scale factor ``r``, side lengths ``r * thresh_x`` by ``r * thresh_y``) and
runs greedy box suppression at IoU 0.1, so that of several proposals aimed at
the same target only the most confident survives.

``box_nms`` tests only boxes that can conflict.  A conflict needs an overlap
of positive area, so the boxes are bucketed into cells as wide as the widest
box and as tall as the tallest; each box is tested against the boxes in the
3x3 block of cells around it (the locality idea of Neubeck & Van Gool,
*Efficient Non-Maximum Suppression*, ICPR 2006).  Candidate IoUs use the same
float formulas as a dense pairwise matrix, so the result, keep order
included, is exactly the dense greedy one.

A ``ProposalSet`` is its columns and nothing else: ``grid_index`` (N, 2),
``x``, ``y``, ``dx``, ``z``, ``fg_score`` (N,) and ``class_scores`` (N, C).
Every proposal carries the same number C >= 0 of class scores, the
``categories`` of a prediction frame; a proposal with none falls back to its
``fg_score`` for confidence.  The columns are validated once, when the set is
made, and are read-only.  ``ProposalSet(keypoints)`` builds them from
``Keypoint`` objects, whose score vectors must then all have one length;
``ProposalSet.from_arrays`` takes them directly, and a ``subset`` copies the
chosen rows.  Indexing or iterating a set makes a new ``Keypoint`` from each
row.

``infer_nms_thresholds`` is the one rule for the suppression window: twice
the widest row's anchor step laterally, half the smallest row gap
longitudinally.  ``default_nms_thresholds`` applies it to a whole grid.
"""

import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ValidationError, reject_non_finite, reject_rows

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True, eq=False)
class Keypoint:
    """One lane keypoint proposal anchored at a grid cell.

    ``x``/``y`` are the anchor's lateral/longitudinal position in meters;
    the refined lateral position is ``x + dx``.  ``fg_score`` is the
    foreground probability from the score map; ``class_scores`` holds
    per-category probabilities.  Keypoints are values: two are equal when
    every field is.
    """

    grid_index: tuple[int, int]
    x: float
    y: float
    dx: float = 0.0
    z: float = 0.0
    fg_score: float = 0.0
    class_scores: np.ndarray = None

    def __post_init__(self):
        scores = np.atleast_1d(np.asarray(
            self.class_scores if self.class_scores is not None else [], dtype=float))
        if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
            raise ValueError("class_scores must lie in [0, 1]")
        if not 0.0 <= self.fg_score <= 1.0:
            raise ValueError("fg_score must lie in [0, 1]")
        # bool is an int; a grid cell is not a truth value.
        if not (len(self.grid_index) == 2 and all(
                isinstance(v, Integral) and not isinstance(v, bool) for v in self.grid_index)):
            raise ValidationError(f"grid_index must be two integers, got {self.grid_index!r}")
        object.__setattr__(self, "class_scores", scores)
        object.__setattr__(self, "grid_index", (int(self.grid_index[0]), int(self.grid_index[1])))

    def _key(self):
        return (self.grid_index, self.x, self.y, self.dx, self.z, self.fg_score,
                tuple(self.class_scores.tolist()))

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
        if self.class_scores.size == 0:
            return self.fg_score
        return float(self.class_scores.max())

    @property
    def category(self):
        return int(np.argmax(self.class_scores)) if self.class_scores.size else 0


def _read_only(array):
    array.flags.writeable = False
    return array


class ProposalSet:
    """Ordered keypoint proposals, ``repeats_n`` of them per intended target.

    Built from ``Keypoint`` objects, or with ``from_arrays`` from columns;
    see the module docstring for the storage.
    """

    def __init__(self, keypoints=(), repeats_n=1):
        keypoints = tuple(keypoints)
        width = keypoints[0].class_scores.size if keypoints else 0
        for i, k in enumerate(keypoints):
            if k.class_scores.size != width:
                raise ValidationError(f"keypoints[{i}].class_scores: {k.class_scores.size} "
                                      f"scores, keypoints[0] has {width}")
        try:
            grid_index = np.array([k.grid_index for k in keypoints], dtype=np.int64)
        except OverflowError:
            i = next(i for i, k in enumerate(keypoints)
                     if not all(_INT64.min <= v <= _INT64.max for v in k.grid_index))
            raise ValidationError(f"keypoints[{i}].grid_index: outside the int64 range") from None
        fields = np.array([(k.x, k.y, k.dx, k.z, k.fg_score) for k in keypoints],
                          dtype=float).reshape(-1, 5)
        scores = np.array([k.class_scores for k in keypoints]).reshape(len(keypoints), width)
        self._store(grid_index.reshape(-1, 2), *fields.T, scores, repeats_n)

    @classmethod
    def from_arrays(cls, grid_index, x, y, dx=None, z=None, fg_score=None,
                    class_scores=None, repeats_n=1):
        """A set straight from columns: ``grid_index`` (N, 2) integers, the
        rest (N,) floats and ``class_scores`` (N, C).  Omitted columns take
        the ``Keypoint`` defaults: zero offsets, heights and fg scores, and
        no class scores."""
        x = np.asarray(x, dtype=float)
        n = len(x)
        grid_index = np.asarray(grid_index)
        if grid_index.size == 0:
            grid_index = np.empty((0, 2), dtype=np.int64)
        if grid_index.shape != (n, 2) or grid_index.dtype.kind not in "iu":
            raise ValidationError(f"grid_index must be ({n}, 2) integers, "
                                  f"got {grid_index.shape} {grid_index.dtype}")
        if grid_index.dtype.kind == "u":
            reject_rows((grid_index > _INT64.max).any(axis=1), "keypoints", ".grid_index",
                        "outside the int64 range")
        scores = np.empty((n, 0)) if class_scores is None \
            else np.asarray(class_scores, dtype=float)
        if scores.ndim != 2 or len(scores) != n:
            raise ValidationError(f"class_scores must be ({n}, C), got {scores.shape}")
        default = np.zeros(n)
        self = cls.__new__(cls)
        self._store(grid_index, x, y, default if dx is None else dx,
                    default if z is None else z,
                    default if fg_score is None else fg_score, scores, repeats_n)
        return self

    def _store(self, grid_index, x, y, dx, z, fg_score, class_scores, repeats_n):
        """Validates and keeps copies of the columns, as read-only arrays."""
        if repeats_n < 1:
            raise ValidationError("repeats_n must be >= 1")
        n = len(grid_index)
        columns = {"x": x, "y": y, "dx": dx, "z": z, "fg_score": fg_score}
        for name, values in columns.items():
            values = columns[name] = np.array(values, dtype=float)
            if values.shape != (n,):
                raise ValidationError(f"{name} must have shape ({n},), got {values.shape}")
            reject_non_finite(values, "keypoints", f".{name}")
        fg_score = columns["fg_score"]
        reject_rows(~((fg_score >= 0.0) & (fg_score <= 1.0)), "keypoints", ".fg_score",
                    "must lie in [0, 1]")
        # NaN fails both comparisons, so this also rejects non-finite scores.
        reject_rows(~((class_scores >= 0.0) & (class_scores <= 1.0)).all(axis=1),
                    "keypoints", ".class_scores", "must be finite and lie in [0, 1]")
        self.grid_index = _read_only(np.array(grid_index, dtype=np.int64))
        for name, values in columns.items():
            setattr(self, name, _read_only(values))
        self.class_scores = _read_only(np.array(class_scores, dtype=float))
        self.repeats_n = int(repeats_n)

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
    def refined_xy(self):
        """(N, 2) refined lateral and longitudinal positions."""
        return np.column_stack([self.x + self.dx, self.y])

    @property
    def confidences(self):
        """Per-proposal max class score, or fg_score when there are none."""
        return self.class_scores.max(axis=1) if self.class_scores.shape[1] else self.fg_score

    def subset(self, indices):
        """The proposals at ``indices``, in that order, as a set of their own."""
        rows = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = ProposalSet.__new__(ProposalSet)
        for name in ("grid_index", "x", "y", "dx", "z", "fg_score", "class_scores"):
            setattr(out, name, _read_only(getattr(self, name)[rows]))
        out.repeats_n = self.repeats_n
        return out


def as_proposal_set(proposals):
    """``proposals`` as a ProposalSet; a sequence of Keypoints is converted."""
    return proposals if isinstance(proposals, ProposalSet) else ProposalSet(proposals)


def select_topn_proposals(score_map, grid, n):
    """Picks the ``n`` highest-scoring grid cells as keypoint proposals.

    Ties break by (row, col) lexicographic order.  Each proposal takes its
    position from the grid; until a classifier runs, the cell score stands in
    as a single pseudo-class so confidence-based ops work unchanged.
    """
    scores = np.asarray(score_map, dtype=float)
    if scores.shape != (grid.rows, grid.cols):
        raise ValueError(f"score map shape {scores.shape} does not match grid "
                         f"({grid.rows}, {grid.cols})")
    if not 0 <= n <= scores.size:
        raise ValueError(f"n must be in [0, {scores.size}], got {n}")
    flat = scores.reshape(-1)
    order = np.argsort(-flat, kind="stable")[:n]
    rows, cols = np.divmod(order, grid.cols)
    positions = grid.positions[rows, cols]
    return ProposalSet.from_arrays(np.column_stack([rows, cols]), positions[:, 0],
                                   positions[:, 1], fg_score=flat[order],
                                   class_scores=flat[order][:, np.newaxis])


def apply_offsets(proposals, dx, z):
    """Attaches per-proposal lateral offsets and heights; anchors stay put."""
    dx = np.asarray(dx, dtype=float)
    z = np.asarray(z, dtype=float)
    if dx.shape != (len(proposals),) or z.shape != (len(proposals),):
        raise ValueError(f"offset arrays must have length {len(proposals)}, "
                         f"got dx {dx.shape} and z {z.shape}")
    return ProposalSet.from_arrays(proposals.grid_index, proposals.x, proposals.y, dx, z,
                                   proposals.fg_score, proposals.class_scores,
                                   proposals.repeats_n)


def _outside_int64(values):
    """Per row of ``values``, whether an entry is NaN or outside [-2**63, 2**63)."""
    inside = (values >= -2.0 ** 63) & (values < 2.0 ** 63)
    return ~inside.all(axis=tuple(range(1, inside.ndim)))


def round_half_away(values):
    """Rounds to the nearest integer, halves away from zero; a value outside
    the int64 range is rejected."""
    values = np.asarray(values, dtype=float)
    reject_rows(_outside_int64(np.atleast_1d(values)), "values", "", "outside the int64 range")
    return np.trunc(values + np.copysign(0.5, values)).astype(np.int64)


def build_nms_boxes(points_xy, thresh_x, thresh_y, r=10):
    """Integer boxes of size (r*thresh_x, r*thresh_y) centered at r*point.

    Rows are (x1, y1, x2, y2); a point whose box edge would fall outside the
    int64 range is rejected.
    """
    pts = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    # An edge that overflows to inf, or to NaN, fails the range test below.
    with np.errstate(over="ignore", invalid="ignore"):
        half = (r / 2.0) * np.array([thresh_x, thresh_y], dtype=float)
        edges = np.concatenate([pts * r - half, pts * r + half], axis=1)
    reject_rows(_outside_int64(edges), "points_xy", "", "box edge outside the int64 range")
    return round_half_away(edges)


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
    that order: for every box, each box in the 3x3 block of cells around
    it, itself included.  Yields blocks ``(src, dst)`` grouped by ``src`` in
    increasing order; a block holds about ``_PAIR_BLOCK`` pairs, so that
    boxes crowded into a few cells need bounded memory."""
    n = len(key)
    # In each of the three rows of cells, columns cx-1..cx+1 are one run of
    # consecutive keys.  Each row offset queries in ascending key order,
    # which is the order that searchsorted handles fastest.
    centre = (key + stride * np.array([[-1], [0], [1]])).ravel()
    first = np.searchsorted(key, centre - 1, side="left")
    count = np.searchsorted(key, centre + 1, side="right") - first
    first, count = (a.reshape(3, n).T.ravel() for a in (first, count))   # box-major
    per_box = count.reshape(n, 3).sum(axis=1)
    before = np.concatenate([[0], np.cumsum(per_box)])
    start = 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(before, before[start] + _PAIR_BLOCK,
                                                  side="right")) - 1)
        ranges = slice(3 * start, 3 * stop)
        length = count[ranges]
        # Ragged aranges first[k] .. first[k] + length[k] - 1, concatenated.
        offset = np.repeat(first[ranges] - (np.cumsum(length) - length), length)
        src = np.repeat(np.arange(start, stop), per_box[start:stop])
        yield src, np.arange(len(src)) + offset
        start = stop


def _conflicts(boxes, key, stride, iou_thresh):
    """For boxes sorted by cell ``key``, the boxes each one conflicts with
    (IoU above ``iou_thresh``), as CSR arrays ``(indptr, indices)`` of
    positions in that order.

    Each candidate pair's IoU uses the elementwise formulas of the dense
    pairwise matrix, so the conflict set is exactly the dense one.
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
            hit = (inter / union > iou_thresh) & (src != dst)
        sources.append(src[hit])
        targets.append(dst[hit])
    indptr = np.zeros(len(boxes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.concatenate(sources), minlength=len(boxes)), out=indptr[1:])
    return indptr, np.concatenate(targets)


def box_nms(boxes, scores, iou_thresh):
    """Greedy box suppression in descending score order, ties by index.

    A box is kept iff its IoU with every previously kept box is at or below
    ``iou_thresh``, which must lie in [0, 1].  Areas are plain side products;
    zero-area overlap counts as IoU 0.  Returns kept indices in the order
    they were kept.

    A conflict needs an overlap of positive area, so boxes are bucketed into
    cells as wide and tall as the largest box and only boxes in neighbouring
    cells are tested.  The greedy sweep then skips a box exactly when it
    conflicts with an already-kept one.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValidationError(f"iou_thresh must lie in [0, 1], got {iou_thresh}")
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(boxes),):
        raise ValidationError(f"need one score per box, got {scores.shape} "
                              f"for {len(boxes)} boxes")
    reject_non_finite(boxes, "boxes")
    reject_non_finite(scores, "scores")
    if len(boxes) == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(boxes[:, 0] > boxes[:, 2]) or np.any(boxes[:, 1] > boxes[:, 3]):
        raise ValidationError("boxes must satisfy x1 <= x2 and y1 <= y2")

    key, stride = _cell_keys(boxes)
    by_key = np.argsort(key, kind="stable")
    indptr, neighbours = _conflicts(boxes[by_key], key[by_key], stride, iou_thresh)
    position = np.empty_like(by_key)
    position[by_key] = np.arange(len(boxes))
    indptr, neighbours = indptr.tolist(), neighbours.tolist()
    order = np.argsort(-scores, kind="stable")
    suppressed = [False] * len(boxes)
    keep = []
    for i, p in zip(order.tolist(), position[order].tolist()):
        if not suppressed[p]:
            keep.append(i)
            for q in neighbours[indptr[p]:indptr[p + 1]]:
                suppressed[q] = True
    return np.asarray(keep, dtype=np.int64)


def point_nms(points_xy, scores, thresh_x, thresh_y, r=10, iou_thresh=0.1):
    """Point suppression via box construction; returns kept indices by score.

    ``thresh_x``, ``thresh_y`` and ``r`` must be positive and finite, and
    each half-window ``r * thresh / 2`` must lie inside the int64 range.
    """
    for name, value in (("thresh_x", thresh_x), ("thresh_y", thresh_y), ("r", r)):
        if not 0.0 < value < np.inf:    # NaN fails too
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    for name, value in (("thresh_x", thresh_x), ("thresh_y", thresh_y)):
        # Python floats overflow to inf without a warning.
        half = float(r) / 2.0 * float(value)
        if not half < 2.0 ** 63:
            raise ValidationError(f"{name}: half-window r * {name} / 2 = {half:g} lies "
                                  f"outside the int64 range")
    points = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    reject_non_finite(points, "points_xy")
    boxes = build_nms_boxes(points, thresh_x, thresh_y, r)
    return box_nms(boxes, scores, iou_thresh)


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
