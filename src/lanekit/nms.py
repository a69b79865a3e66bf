"""Keypoint proposal selection and point non-maximum suppression.

Proposals are grid cells with foreground scores; the top-N by score become
candidate keypoints, each refined by a lateral offset ``dx`` and a height
``z``.  PointNMS turns every refined point into an axis-aligned integer box
(scale factor ``r``, side lengths ``r * thresh_x`` by ``r * thresh_y``) and
runs greedy box suppression at IoU 0.1, so that of several proposals aimed at
the same target only the most confident survives.

A ``ProposalSet`` stores its proposals as columns: ``grid_index`` (N, 2),
``x``, ``y``, ``dx``, ``z``, ``fg_score`` (N,) and ``class_scores`` (N, C),
with ``score_counts`` (N,) giving how many class scores each proposal
carries (rows are zero-padded past it).  The columns are validated once, when
the set is made, and are read-only.  ``ProposalSet(keypoints)`` builds them
from ``Keypoint`` objects; ``ProposalSet.from_arrays`` builds them directly.
Indexing and iterating still yield ``Keypoint``s: the objects the set was
built from, or row views made on first use and shared with every subset.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Below this box count, suppression runs on a precomputed pairwise IoU
# matrix; above it, memory favors the incremental loop.
_PAIRWISE_LIMIT = 2048


@dataclass(frozen=True, eq=False)
class Keypoint:
    """One lane keypoint proposal anchored at a grid cell.

    ``x``/``y`` are the anchor's lateral/longitudinal position in meters;
    the refined lateral position is ``x + dx``.  ``fg_score`` is the
    foreground probability from the score map; ``class_scores`` holds
    per-category probabilities.
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
        object.__setattr__(self, "class_scores", scores)
        object.__setattr__(self, "grid_index", (int(self.grid_index[0]), int(self.grid_index[1])))

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


def _reject(field, bad, problem):
    """Raises for the first row flagged in ``bad``, naming row and field."""
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise ValidationError(f"keypoints[{row}].{field}: {problem}")


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
        fields = np.array([(k.grid_index[0], k.grid_index[1], k.x, k.y, k.dx, k.z, k.fg_score)
                           for k in keypoints], dtype=float).reshape(-1, 7)
        counts = np.array([k.class_scores.size for k in keypoints], dtype=np.int64)
        scores = np.zeros((len(keypoints), int(counts.max(initial=0))))
        for row, k in zip(scores, keypoints):
            row[:k.class_scores.size] = k.class_scores
        self._store(fields[:, :2], *fields[:, 2:].T, scores, counts, repeats_n)
        self._keypoints = keypoints

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
        scores = np.empty((n, 0)) if class_scores is None \
            else np.asarray(class_scores, dtype=float)
        if scores.ndim != 2 or len(scores) != n:
            raise ValidationError(f"class_scores must be ({n}, C), got {scores.shape}")
        default = np.zeros(n)
        return cls._of_columns(grid_index, x, y, default if dx is None else dx,
                               default if z is None else z,
                               default if fg_score is None else fg_score, scores,
                               np.full(n, scores.shape[1]), repeats_n)

    @classmethod
    def _of_columns(cls, *columns):
        self = cls.__new__(cls)
        self._store(*columns)
        return self

    def _store(self, grid_index, x, y, dx, z, fg_score, class_scores, score_counts,
               repeats_n):
        """Validates and keeps copies of the columns, as read-only arrays."""
        if repeats_n < 1:
            raise ValidationError("repeats_n must be >= 1")
        n = len(grid_index)
        columns = {"x": x, "y": y, "dx": dx, "z": z, "fg_score": fg_score}
        for name, values in columns.items():
            values = columns[name] = np.array(values, dtype=float)
            if values.shape != (n,):
                raise ValidationError(f"{name} must have shape ({n},), got {values.shape}")
            _reject(name, ~np.isfinite(values), "not finite")
        fg_score = columns["fg_score"]
        _reject("fg_score", ~((fg_score >= 0.0) & (fg_score <= 1.0)), "must lie in [0, 1]")
        # NaN fails both comparisons, so this also rejects non-finite scores.
        _reject("class_scores", ~((class_scores >= 0.0) & (class_scores <= 1.0)).all(axis=1),
                "must be finite and lie in [0, 1]")
        self.grid_index = _read_only(np.array(grid_index, dtype=np.int64))
        for name, values in columns.items():
            setattr(self, name, _read_only(values))
        self.class_scores = _read_only(np.array(class_scores, dtype=float))
        self.score_counts = _read_only(np.array(score_counts, dtype=np.int64))
        self.repeats_n = int(repeats_n)
        self._keypoints = None
        self._origin = None     # (set owning the Keypoint objects, its rows)

    @property
    def keypoints(self):
        """The proposals as ``Keypoint`` objects, made once on first use."""
        if self._keypoints is None:
            if self._origin is not None:
                owner, rows = self._origin
                everyone = owner.keypoints
                self._keypoints = tuple(everyone[i] for i in rows)
            else:
                self._keypoints = tuple(self._row_keypoints())
        return self._keypoints

    def _row_keypoints(self):
        grid = self.grid_index.tolist()
        for i, (gi, x, y, dx, z, fg) in enumerate(zip(
                grid, self.x.tolist(), self.y.tolist(), self.dx.tolist(), self.z.tolist(),
                self.fg_score.tolist())):
            yield Keypoint(grid_index=tuple(gi), x=x, y=y, dx=dx, z=z, fg_score=fg,
                           class_scores=self.class_scores[i, :self.score_counts[i]])

    def __len__(self):
        return len(self.x)

    def __iter__(self):
        return iter(self.keypoints)

    def __getitem__(self, i):
        return self.keypoints[i]

    @property
    def refined_xy(self):
        """(N, 2) refined lateral and longitudinal positions."""
        return np.column_stack([self.x + self.dx, self.y])

    @property
    def confidences(self):
        """Per-proposal max class score, or fg_score where there are none."""
        return np.where(self.score_counts > 0, self.class_scores.max(axis=1, initial=0.0),
                        self.fg_score)

    def subset(self, indices):
        """The proposals at ``indices``, in that order, sharing this set's
        ``Keypoint`` objects."""
        rows = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = ProposalSet.__new__(ProposalSet)
        out.grid_index = _read_only(self.grid_index[rows])
        for name in ("x", "y", "dx", "z", "fg_score", "class_scores", "score_counts"):
            setattr(out, name, _read_only(getattr(self, name)[rows]))
        out.repeats_n = self.repeats_n
        owner, owner_rows = self._origin or (self, np.arange(len(self)))
        out._origin = (owner, owner_rows[rows])
        out._keypoints = None
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
    return ProposalSet._of_columns(proposals.grid_index, proposals.x, proposals.y, dx, z,
                                   proposals.fg_score, proposals.class_scores,
                                   proposals.score_counts, proposals.repeats_n)


def round_half_away(values):
    """Rounds to the nearest integer, halves away from zero."""
    values = np.asarray(values, dtype=float)
    return np.trunc(values + np.copysign(0.5, values)).astype(np.int64)


def build_nms_boxes(points_xy, thresh_x, thresh_y, r=10):
    """Integer boxes of size (r*thresh_x, r*thresh_y) centered at r*point."""
    pts = np.asarray(points_xy, dtype=float).reshape(-1, 2)
    x1 = round_half_away(pts[:, 0] * r - (r / 2.0) * thresh_x)
    x2 = round_half_away(pts[:, 0] * r + (r / 2.0) * thresh_x)
    y1 = round_half_away(pts[:, 1] * r - (r / 2.0) * thresh_y)
    y2 = round_half_away(pts[:, 1] * r + (r / 2.0) * thresh_y)
    return np.stack([x1, y1, x2, y2], axis=1)


def box_nms(boxes, scores, iou_thresh):
    """Greedy box suppression in descending score order, ties by index.

    A box is kept iff its IoU with every previously kept box is at or below
    ``iou_thresh``.  Areas are plain side products; zero-area overlap counts
    as IoU 0.  Returns kept indices in the order they were kept.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(boxes),):
        raise ValueError(f"need one score per box, got {scores.shape} for {len(boxes)} boxes")
    if len(boxes) == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(boxes[:, 0] > boxes[:, 2]) or np.any(boxes[:, 1] > boxes[:, 3]):
        raise ValueError("boxes must satisfy x1 <= x2 and y1 <= y2")

    order = np.argsort(-scores, kind="stable")
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])

    if len(boxes) <= _PAIRWISE_LIMIT:
        # Precompute which pairs conflict, then sweep once: a box is skipped
        # exactly when it conflicts with some already-kept box, so marking
        # every conflict of a kept box is equivalent to the incremental form.
        # Row blocks through reused scratch buffers keep the working set in
        # cache; the elementwise formulas match the incremental path bitwise.
        n = len(boxes)
        x1, y1, x2, y2 = (np.ascontiguousarray(boxes[:, i]) for i in range(4))
        conflicts = np.empty((n, n), dtype=bool)
        block = min(64, n)
        iw = np.empty((block, n))
        ih = np.empty((block, n))
        tmp = np.empty((block, n))
        with np.errstate(invalid="ignore"):
            for s in range(0, n, block):
                e = min(s + block, n)
                inter, height, scratch = iw[:e - s], ih[:e - s], tmp[:e - s]
                np.minimum(x2[s:e, np.newaxis], x2[np.newaxis, :], out=inter)
                np.maximum(x1[s:e, np.newaxis], x1[np.newaxis, :], out=scratch)
                inter -= scratch
                np.clip(inter, 0.0, None, out=inter)
                np.minimum(y2[s:e, np.newaxis], y2[np.newaxis, :], out=height)
                np.maximum(y1[s:e, np.newaxis], y1[np.newaxis, :], out=scratch)
                height -= scratch
                np.clip(height, 0.0, None, out=height)
                inter *= height                   # intersection area
                np.add(areas[s:e, np.newaxis], areas[np.newaxis, :], out=scratch)
                scratch -= inter                  # union
                # union >= inter always, so union == 0 forces inter == 0;
                # the 0/0 NaN compares False, the defined zero-union IoU 0.
                inter /= scratch
                np.greater(inter, iou_thresh, out=conflicts[s:e])
        suppressed = np.zeros(n, dtype=bool)
        keep = []
        for idx in order:
            if suppressed[idx]:
                continue
            keep.append(int(idx))
            suppressed |= conflicts[idx]
        return np.asarray(keep, dtype=np.int64)

    keep = []
    for idx in order:
        if keep:
            kept = boxes[keep]
            iw = np.minimum(kept[:, 2], boxes[idx, 2]) - np.maximum(kept[:, 0], boxes[idx, 0])
            ih = np.minimum(kept[:, 3], boxes[idx, 3]) - np.maximum(kept[:, 1], boxes[idx, 1])
            inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
            union = areas[keep] + areas[idx] - inter
            iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
            if np.any(iou > iou_thresh):
                continue
        keep.append(int(idx))
    return np.asarray(keep, dtype=np.int64)


def point_nms(points_xy, scores, thresh_x, thresh_y, r=10, iou_thresh=0.1):
    """Point suppression via box construction; returns kept indices by score."""
    if thresh_x <= 0 or thresh_y <= 0 or r <= 0:
        raise ValueError("thresh_x, thresh_y and r must be positive")
    boxes = build_nms_boxes(points_xy, thresh_x, thresh_y, r)
    return box_nms(boxes, scores, iou_thresh)


def default_nms_thresholds(grid):
    """Suppression window derived from grid geometry.

    Lateral: twice the widest per-row column spacing, so neighbors aimed at
    the same target collide.  Longitudinal: half the smallest row gap, which
    keeps suppression strictly within a row.
    """
    widest = max(grid.lateral_spacing(i) for i in range(grid.rows))
    return 2.0 * widest, 0.5 * float(grid.row_spacing.min())
