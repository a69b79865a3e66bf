import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lanekit.errors import ValidationError
from lanekit.geometry import build_custom_grid, build_uniform_grid
from lanekit.nms import (
    Keypoint,
    ProposalSet,
    apply_offsets,
    box_nms,
    build_nms_boxes,
    default_nms_thresholds,
    point_nms,
    round_half_away,
    select_topn_proposals,
)
from lanekit.oracles import oracle_nms
from lanekit.pipeline import infer_nms_thresholds


def make_grid():
    return build_uniform_grid(8, 8, y_range=(5, 40), x_range=(-7, 7))


class TestKeypoint:
    def test_refined_position_and_confidence(self):
        kp = Keypoint(grid_index=(2, 3), x=1.0, y=10.0, dx=0.25,
                      fg_score=0.4, class_scores=[0.2, 0.7, 0.1])
        assert kp.refined_x == 1.25
        assert kp.confidence == 0.7
        assert kp.category == 1

    def test_confidence_falls_back_to_fg(self):
        kp = Keypoint(grid_index=(0, 0), x=0.0, y=5.0, fg_score=0.4)
        assert kp.confidence == 0.4

    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            Keypoint(grid_index=(0, 0), x=0.0, y=5.0, class_scores=[1.2])
        with pytest.raises(ValueError):
            Keypoint(grid_index=(0, 0), x=0.0, y=5.0, fg_score=-0.1)


class TestNonFiniteRejected:
    @staticmethod
    def kp(**fields):
        return Keypoint(**{"grid_index": (0, 0), "x": 0.0, "y": 5.0, **fields})

    def test_nan_class_score(self):
        with pytest.raises(ValidationError, match=r"keypoints\[1\]\.class_scores"):
            ProposalSet([self.kp(class_scores=[0.5]), self.kp(class_scores=[np.nan])])

    def test_infinite_x(self):
        with pytest.raises(ValidationError, match=r"keypoints\[0\]\.x"):
            ProposalSet([self.kp(x=np.inf)])

    def test_nan_dx(self):
        with pytest.raises(ValidationError, match=r"keypoints\[0\]\.dx"):
            ProposalSet([self.kp(dx=np.nan)])

    def test_from_arrays_and_offsets(self):
        grid_index = [(0, 0), (0, 1)]
        with pytest.raises(ValidationError, match=r"keypoints\[1\]\.z"):
            ProposalSet.from_arrays(grid_index, [0.0, 1.0], [5.0, 5.0], z=[0.0, -np.inf])
        with pytest.raises(ValidationError, match=r"keypoints\[0\]\.fg_score"):
            ProposalSet.from_arrays(grid_index, [0.0, 1.0], [5.0, 5.0], fg_score=[np.nan, 0.5])
        props = ProposalSet.from_arrays(grid_index, [0.0, 1.0], [5.0, 5.0])
        with pytest.raises(ValidationError, match=r"keypoints\[1\]\.dx"):
            apply_offsets(props, [0.0, np.nan], [0.0, 0.0])


@pytest.mark.parametrize("widths, bad", [((2, 0), 1), ((1, 1, 3), 2), ((0, 2), 1)])
def test_mixed_score_widths_rejected(widths, bad):
    kps = [Keypoint(grid_index=(0, 0), x=0.0, y=5.0, fg_score=0.3, class_scores=[0.5] * w)
           for w in widths]
    with pytest.raises(ValidationError, match=rf"keypoints\[{bad}\]\.class_scores"):
        ProposalSet(kps)


class TestGridIndex:
    """A grid index comes back from a set exactly, or is rejected."""

    @pytest.mark.parametrize("grid_index", [(2.7, 0), (2.0, 0), (0, np.float64(1)),
                                            (True, 0), (1, 2, 3)])
    def test_keypoint_takes_two_integers(self, grid_index):
        with pytest.raises(ValidationError, match="grid_index must be two integers"):
            Keypoint(grid_index=grid_index, x=0.0, y=5.0)

    def test_numpy_integers_become_python_ints(self):
        kp = Keypoint(grid_index=(np.int64(3), np.uint8(2)), x=0.0, y=5.0)
        assert kp.grid_index == (3, 2) and all(type(v) is int for v in kp.grid_index)

    def test_beyond_float_precision_kept(self):
        kp = Keypoint(grid_index=(2 ** 53 + 1, -(2 ** 63)), x=0.0, y=5.0)
        assert ProposalSet([kp])[0] == kp

    @pytest.mark.parametrize("grid_index", [(2 ** 63, 0), (0, -(2 ** 63) - 1)])
    def test_beyond_int64_names_the_keypoint(self, grid_index):
        kps = [Keypoint(grid_index=(0, 0), x=0.0, y=5.0),
               Keypoint(grid_index=grid_index, x=0.0, y=5.0)]
        with pytest.raises(ValidationError,
                           match=r"keypoints\[1\]\.grid_index: outside the int64 range"):
            ProposalSet(kps)

    def test_from_arrays_rejects_uint64_beyond_int64(self):
        rows = np.array([[1, 0], [2 ** 63, 0]], dtype=np.uint64)
        with pytest.raises(ValidationError,
                           match=r"keypoints\[1\]\.grid_index: outside the int64 range"):
            ProposalSet.from_arrays(rows, [0.0, 0.0], [5.0, 6.0])
        kept = ProposalSet.from_arrays(rows[:1] + np.uint64(2 ** 63 - 2), [0.0], [5.0])
        assert kept.grid_index.tolist() == [[2 ** 63 - 1, 2 ** 63 - 2]]

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(-(2 ** 63), 2 ** 63 - 1), st.integers(-(2 ** 63), 2 ** 63 - 1)))
    def test_round_trip_over_the_int64_range(self, grid_index):
        kp = Keypoint(grid_index=grid_index, x=0.5, y=5.0, dx=-0.25, z=0.1, fg_score=0.75,
                      class_scores=[0.2, 0.8])
        assert ProposalSet([kp])[0] == kp


class TestSelectTopN:
    def test_all_zero_map_lexicographic(self):
        grid = make_grid()
        out = select_topn_proposals(np.zeros((8, 8)), grid, 4)
        assert [k.grid_index for k in out] == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_one_hot(self):
        grid = make_grid()
        smap = np.zeros((8, 8))
        smap[5, 2] = 1.0
        out = select_topn_proposals(smap, grid, 1)
        assert out[0].grid_index == (5, 2)
        assert out[0].fg_score == 1.0
        assert_allclose([out[0].x, out[0].y], grid.positions[5, 2])

    def test_matches_full_sort_oracle(self):
        grid = make_grid()
        rng = np.random.default_rng(11)
        smap = rng.permutation(64).reshape(8, 8) / 64.0
        out = select_topn_proposals(smap, grid, 16)
        want = sorted(((r, c) for r in range(8) for c in range(8)),
                      key=lambda rc: (-smap[rc], rc))[:16]
        assert [k.grid_index for k in out] == want

    def test_ties_resolved_by_row_col(self):
        grid = make_grid()
        smap = np.full((8, 8), 0.5)
        smap[2, 3] = 0.9
        smap[1, 1] = 0.9
        out = select_topn_proposals(smap, grid, 3)
        assert [k.grid_index for k in out] == [(1, 1), (2, 3), (0, 0)]

    def test_bad_arguments(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            select_topn_proposals(np.zeros((8, 8)), grid, 65)
        with pytest.raises(ValueError):
            select_topn_proposals(np.zeros((8, 8)), grid, -1)
        with pytest.raises(ValueError):
            select_topn_proposals(np.zeros((4, 4)), grid, 4)


class TestApplyOffsets:
    def setup_method(self):
        self.props = select_topn_proposals(np.eye(8) / 2 + 0.1, make_grid(), 6)

    def test_zero_offsets_identity(self):
        out = apply_offsets(self.props, np.zeros(6), np.zeros(6))
        for a, b in zip(out, self.props):
            assert a.refined_x == b.x and a.z == 0.0

    def test_single_offset(self):
        out = apply_offsets(self.props, np.full(6, 0.3), np.zeros(6))
        assert out[0].refined_x == pytest.approx(self.props[0].x + 0.3)

    def test_random_offsets_elementwise(self):
        rng = np.random.default_rng(3)
        dx, z = rng.normal(size=6), rng.normal(size=6)
        out = apply_offsets(self.props, dx, z)
        got_dx = np.array([k.refined_x - k.x for k in out])
        assert_allclose(got_dx, dx, atol=1e-12)
        assert_allclose([k.z for k in out], z)
        # anchors are fixed
        assert [k.grid_index for k in out] == [k.grid_index for k in self.props]
        assert_allclose([k.x for k in out], [k.x for k in self.props])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_offsets(self.props, np.zeros(5), np.zeros(6))


class TestRounding:
    def test_half_away_from_zero(self):
        vals = np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 0.0])
        assert round_half_away(vals).tolist() == [1, -1, 2, -2, 2, -2, 0]

    @pytest.mark.parametrize("bad", [1e300, -1e300, 2.0 ** 63, np.nan, np.inf, -np.inf])
    def test_outside_int64_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"values\[1\]: outside the int64 range"):
            round_half_away([0.0, bad, 1.0])
        with pytest.raises(ValidationError, match=r"values\[0\]"):
            round_half_away(bad)

    def test_int64_limits_and_shapes(self):
        top = 2.0 ** 63 - 1024   # the largest double below 2**63
        assert round_half_away([top, -2.0 ** 63]).tolist() == [int(top), -2 ** 63]
        assert round_half_away(2.5) == 3
        assert round_half_away(np.zeros((0, 4))).shape == (0, 4)
        with pytest.raises(ValidationError, match=r"values\[1\]"):
            round_half_away([[0.0, 1.0], [2.0, 1e19]])


class TestBoxNms:
    def test_identical_boxes_keep_strongest(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]])
        assert box_nms(boxes, [0.9, 0.8], 0.1).tolist() == [0]
        assert box_nms(boxes, [0.8, 0.9], 0.1).tolist() == [1]

    def test_disjoint_boxes_all_kept(self):
        boxes = np.array([[0, 0, 5, 5], [10, 10, 15, 15], [20, 0, 25, 5]])
        assert sorted(box_nms(boxes, [0.3, 0.9, 0.5], 0.1).tolist()) == [0, 1, 2]

    def test_equal_scores_stable_by_index(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]])
        assert box_nms(boxes, [0.7, 0.7], 0.1).tolist() == [0]

    def test_malformed_box_rejected(self):
        with pytest.raises(ValueError):
            box_nms(np.array([[5, 0, 0, 5]]), [0.5], 0.1)

    def test_empty(self):
        assert box_nms(np.empty((0, 4)), np.empty(0), 0.1).size == 0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = 50
            x1 = rng.integers(0, 80, n)
            y1 = rng.integers(0, 80, n)
            boxes = np.stack([x1, y1, x1 + rng.integers(1, 30, n),
                              y1 + rng.integers(1, 30, n)], axis=1)
            scores = rng.random(n)
            got = box_nms(boxes, scores, 0.1).tolist()
            assert got == oracle_nms(boxes, scores, 0.1)


class TestPointNms:
    def test_distant_points_survive(self):
        t = 0.8
        pts = np.array([[0.0, 5.0], [10 * t, 5.0]])
        keep = point_nms(pts, [0.9, 0.8], thresh_x=t, thresh_y=0.5)
        assert sorted(keep.tolist()) == [0, 1]

    def test_coincident_points_keep_strongest(self):
        pts = np.array([[1.0, 5.0], [1.0, 5.0]])
        assert point_nms(pts, [0.4, 0.6], thresh_x=1.0, thresh_y=0.5).tolist() == [1]

    @pytest.mark.parametrize("gap,suppressed", [
        (0.3, True), (0.6, True), (0.89, True),
        (0.91, False), (1.2, False), (5.0, False),
    ])
    def test_same_row_suppression_boundary(self, gap, suppressed):
        # For same-row points the 1-D IoU rule gives suppression iff the
        # lateral gap is below 9/11 of the window; t=1.1 puts that at 0.9.
        t = 1.1
        pts = np.array([[0.0, 5.0], [gap, 5.0]])
        keep = point_nms(pts, [0.9, 0.5], thresh_x=t, thresh_y=1.0)
        assert (1 not in keep.tolist()) == suppressed
        boxes = build_nms_boxes(pts, t, 1.0, 10)
        assert keep.tolist() == oracle_nms(boxes, [0.9, 0.5], 0.1)

    def test_never_suppresses_across_rows(self):
        grid = make_grid()
        rng = np.random.default_rng(5)
        rows = rng.integers(0, grid.rows, 60)
        pts = np.column_stack([rng.uniform(-7, 7, 60), grid.row_y[rows]])
        scores = rng.random(60)
        _, thresh_y = default_nms_thresholds(grid)
        keep_global = set(point_nms(pts, scores, 1.0, thresh_y).tolist())
        keep_rowwise = set()
        for r in range(grid.rows):
            (members,) = np.nonzero(rows == r)
            if members.size:
                kept = point_nms(pts[members], scores[members], 1.0, thresh_y)
                keep_rowwise.update(members[kept].tolist())
        assert keep_global == keep_rowwise

    def test_kept_scores_descending(self):
        rng = np.random.default_rng(23)
        pts = np.column_stack([rng.uniform(-5, 5, 40), rng.uniform(0, 20, 40)])
        scores = rng.random(40)
        keep = point_nms(pts, scores, 1.0, 1.0)
        assert len(keep) <= 40
        assert np.all(np.diff(scores[keep]) <= 0)

    def test_bad_thresholds(self):
        pts = np.array([[0.0, 0.0]])
        for kwargs in ({"thresh_x": 0.0, "thresh_y": 1.0},
                       {"thresh_x": 1.0, "thresh_y": -1.0}):
            with pytest.raises(ValueError):
                point_nms(pts, [0.5], **kwargs)


class TestDefaults:
    def test_thresholds_from_grid_geometry(self):
        grid = build_custom_grid(10, 5, width=20.0)
        tx, ty = default_nms_thresholds(grid)
        assert tx == pytest.approx(2 * 20.0 / 4)   # widest row spans full width
        assert ty == pytest.approx(0.5 * np.diff(grid.row_y).min())

    def test_uniform_grid(self):
        grid = build_uniform_grid(6, 5, y_range=(0, 10), x_range=(-4, 4))
        tx, ty = default_nms_thresholds(grid)
        assert tx == pytest.approx(4.0)
        assert ty == pytest.approx(1.0)


coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False, width=32)
score = st.floats(0, 1, allow_nan=False, width=32)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coord, coord, score), min_size=0, max_size=40))
def test_point_nms_matches_oracle(items):
    pts = np.array([(x, y) for x, y, _ in items]).reshape(-1, 2)
    scores = np.array([s for _, _, s in items])
    got = point_nms(pts, scores, thresh_x=1.3, thresh_y=0.7).tolist()
    boxes = build_nms_boxes(pts, 1.3, 0.7, 10)
    assert got == oracle_nms(boxes, scores, 0.1)
    assert set(got) <= set(range(len(items)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60),
                           st.integers(1, 25), st.integers(1, 25), score),
                min_size=1, max_size=30))
def test_box_nms_matches_oracle(items):
    boxes = np.array([(x, y, x + w, y + h) for x, y, w, h, _ in items])
    scores = np.array([s for *_, s in items])
    assert box_nms(boxes, scores, 0.1).tolist() == oracle_nms(boxes, scores, 0.1)


def reference_thresholds(keypoints):
    """infer_nms_thresholds over Keypoint properties, one row at a time."""
    xs = np.array([k.x for k in keypoints])
    ys = np.array([k.y for k in keypoints])
    rows = np.array([k.grid_index[0] for k in keypoints])
    cols = np.array([k.grid_index[1] for k in keypoints])
    x_step = 0.0
    for row in np.unique(rows):
        in_row = rows == row
        present = np.unique(cols[in_row])
        steps = [(xs[in_row & (cols == b)].min() - xs[in_row & (cols == a)].max()) / (b - a)
                 for a, b in zip(present[:-1], present[1:])]
        steps = [s for s in steps if s > 0]
        if steps:
            x_step = max(x_step, min(steps))
    distinct_y = np.unique(ys)
    y_gap = np.diff(distinct_y).min() if distinct_y.size > 1 else 2.0
    return 2.0 * (x_step if x_step > 0 else 1.0), 0.5 * y_gap


class TestColumnsOnly:
    @staticmethod
    def columns(n):
        rng = np.random.default_rng(n)
        return (np.column_stack([np.arange(n) // 8, np.arange(n) % 8]), rng.uniform(-5, 5, n),
                np.arange(n) // 8 * 2.0, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                rng.uniform(0, 1, n), rng.uniform(0, 1, (n, 3)))

    def test_pickled_subset_holds_only_its_rows(self):
        big = ProposalSet.from_arrays(*self.columns(1000))
        small = ProposalSet.from_arrays(*(c[:10] for c in self.columns(1000)))
        list(big)   # iterating keeps nothing behind
        rows = [7, 2, 5]
        data = pickle.dumps(big.subset(rows))
        assert len(data) == len(pickle.dumps(small.subset(rows)))
        assert list(pickle.loads(data)) == [big[i] for i in rows]

    def test_rows_make_new_equal_keypoints(self):
        props = ProposalSet.from_arrays(*self.columns(5))
        assert props[1] is not props[1]
        assert props[1] == props[1] and hash(props[1]) == hash(props[1])
        assert props[-1] == props[4]
        assert props[1] != props[2]
        with pytest.raises(IndexError):
            props[5]


def assert_columns_match_keypoints(props, indices):
    kps = list(props)
    assert np.array_equal(props.refined_xy,
                          np.array([[k.refined_x, k.y] for k in kps]).reshape(-1, 2))
    assert np.array_equal(props.confidences, np.array([k.confidence for k in kps]))
    assert infer_nms_thresholds(props) == reference_thresholds(kps)
    sub = props.subset(indices)
    assert len(sub) == len(indices)
    assert list(sub) == [kps[i] for i in indices]
    assert np.array_equal(sub.refined_xy, props.refined_xy[indices].reshape(-1, 2))
    assert np.array_equal(sub.confidences, props.confidences[indices])
    assert infer_nms_thresholds(sub) == reference_thresholds([kps[i] for i in indices])


def proposal_row(width):
    return st.tuples(st.integers(0, 4), st.integers(0, 6),
                     st.sampled_from([-3.0, -1.5, 0.0, 0.5, 2.0, 4.25]),
                     st.sampled_from([5.0, 10.0, 12.5, 20.0]),
                     st.floats(-1, 1, allow_nan=False, width=32), score,
                     st.lists(score, min_size=width, max_size=width))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_columns_match_keypoint_properties(width, data):
    """Columns against Keypoint properties, for a set made of Keypoints with
    ``width`` class scores each (none included) and for the same set made
    from arrays."""
    rows = data.draw(st.lists(proposal_row(width), max_size=25))
    indices = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12)) \
        if rows else []
    kps = [Keypoint(grid_index=(r, c), x=x, y=y, dx=dx, fg_score=fg, class_scores=cs)
           for r, c, x, y, dx, fg, cs in rows]
    assert_columns_match_keypoints(ProposalSet(kps), indices)
    from_arrays = ProposalSet.from_arrays(
        np.array([(r, c) for r, c, *_ in rows], dtype=int).reshape(-1, 2),
        [row[2] for row in rows], [row[3] for row in rows], dx=[row[4] for row in rows],
        fg_score=[row[5] for row in rows],
        class_scores=np.array([cs for *_, cs in rows], dtype=float).reshape(len(rows), width))
    assert from_arrays.class_scores.shape == (len(rows), width)
    assert list(from_arrays) == kps
    assert_columns_match_keypoints(from_arrays, indices)


def dense_reference_nms(boxes, scores, iou_thresh):
    """The dense sweep ``box_nms`` replaced: the IoU of every pair in
    64-row blocks, then one greedy pass that marks every conflict of each
    kept box."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float)
    n = len(boxes)
    order = np.argsort(-scores, kind="stable")
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    x1, y1, x2, y2 = (np.ascontiguousarray(boxes[:, i]) for i in range(4))
    conflicts = np.empty((n, n), dtype=bool)
    block = max(1, min(64, n))
    iw, ih, tmp = np.empty((block, n)), np.empty((block, n)), np.empty((block, n))
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
            inter *= height
            np.add(areas[s:e, np.newaxis], areas[np.newaxis, :], out=scratch)
            scratch -= inter
            inter /= scratch
            np.greater(inter, iou_thresh, out=conflicts[s:e])
    suppressed = np.zeros(n, dtype=bool)
    keep = []
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= conflicts[idx]
    return keep


def random_boxes(rng, n, span=80, max_side=30):
    """Integer boxes of mixed sizes; about one side in five is zero."""
    x1, y1 = rng.integers(0, span, n), rng.integers(0, span, n)
    w = rng.integers(0, max_side, n) * (rng.random(n) > 0.2)
    h = rng.integers(0, max_side, n) * (rng.random(n) > 0.2)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def tied_scores(rng, n):
    return rng.integers(0, 4, n) / 4.0


def assert_matches_dense(boxes, scores, iou_thresh):
    got = box_nms(boxes, scores, iou_thresh)
    assert got.dtype == np.int64
    assert got.tolist() == dense_reference_nms(boxes, scores, iou_thresh)


class TestBucketedMatchesDense:
    """``box_nms`` against the dense pairwise sweep, keep order included."""

    @pytest.mark.parametrize("n", [2049, 3000, 4096])
    def test_above_the_old_pairwise_limit(self, n):
        rng = np.random.default_rng(n)
        pts = np.column_stack([rng.uniform(-10, 10, n), rng.uniform(0, 100, n)])
        scores = rng.random(n)
        boxes = build_nms_boxes(pts, 1.0, 1.0, 10)
        assert_matches_dense(boxes, scores, 0.1)
        assert point_nms(pts, scores, 1.0, 1.0).tolist() == \
            dense_reference_nms(boxes, scores, 0.1)

    @pytest.mark.parametrize("iou_thresh", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_mixed_sizes_ties_and_zero_area(self, iou_thresh):
        rng = np.random.default_rng(int(iou_thresh * 10) + 40)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            assert_matches_dense(random_boxes(rng, n), tied_scores(rng, n), iou_thresh)

    def test_all_boxes_zero_area_and_coincident(self):
        boxes = np.zeros((5, 4))
        for iou_thresh in (0.0, 0.5, 1.0):
            assert box_nms(boxes, np.zeros(5), iou_thresh).tolist() == [0, 1, 2, 3, 4]
            assert_matches_dense(boxes, np.zeros(5), iou_thresh)

    def test_iou_one_keeps_even_exact_duplicates(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10], [1, 0, 11, 10]])
        assert box_nms(boxes, [0.5, 0.9, 0.7], 1.0).tolist() == [1, 2, 0]
        assert_matches_dense(boxes, [0.5, 0.9, 0.7], 1.0)

    @pytest.mark.parametrize("iou_thresh", [0.0, 0.1, 0.5])
    def test_one_huge_box_among_small_ones(self, iou_thresh):
        rng = np.random.default_rng(7)
        boxes = random_boxes(rng, 400, span=2000, max_side=12)
        boxes[123] = [-5000, -5000, 5000, 5000]
        scores = tied_scores(rng, 400)
        assert_matches_dense(boxes, scores, iou_thresh)
        scores[123] = 1.0
        assert_matches_dense(boxes, scores, iou_thresh)

    @pytest.mark.parametrize("iou_thresh", [0.0, 0.1, 0.5])
    def test_boxes_far_apart(self, iou_thresh):
        rng = np.random.default_rng(8)
        clusters = rng.integers(-3, 4, 300) * 1e12
        boxes = random_boxes(rng, 300, span=40, max_side=15).astype(float)
        boxes[:, [0, 2]] += clusters[:, np.newaxis]
        boxes[:, [1, 3]] -= clusters[:, np.newaxis]
        assert_matches_dense(boxes, tied_scores(rng, 300), iou_thresh)

    def test_extreme_coordinates(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [1e300, 0.0, 1e300, 10.0],
                          [-1e300, -1e300, -1e300, -1e300], [2.0, 2.0, 12.0, 12.0]])
        assert box_nms(boxes, [0.1, 0.2, 0.3, 0.4], 0.1).tolist() == [3, 2, 1]
        assert_matches_dense(boxes, [0.1, 0.2, 0.3, 0.4], 0.1)


class TestOracleAboveOldLimit:
    def test_point_nms_matches_oracle_with_2100_points(self):
        rng = np.random.default_rng(2100)
        pts = np.column_stack([rng.uniform(-10, 10, 2100), rng.uniform(0, 20, 2100)])
        scores = tied_scores(rng, 2100)
        boxes = build_nms_boxes(pts, 1.0, 1.0, 10)
        assert point_nms(pts, scores, 1.0, 1.0).tolist() == oracle_nms(boxes, scores, 0.1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40),
                           st.integers(0, 30), st.integers(0, 30),
                           st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                min_size=1, max_size=60),
       st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
def test_box_nms_matches_dense_reference(items, iou_thresh):
    boxes = np.array([(x, y, x + w, y + h) for x, y, w, h, _ in items])
    scores = np.array([s for *_, s in items])
    assert_matches_dense(boxes, scores, iou_thresh)


class TestNmsInputValidation:
    boxes = np.array([[0, 0, 10, 10], [2, 0, 12, 10]])

    @pytest.mark.parametrize("iou_thresh", [-0.1, -1.0, 1.5, np.nan])
    def test_iou_thresh_outside_unit_interval(self, iou_thresh):
        with pytest.raises(ValidationError, match="iou_thresh"):
            box_nms(self.boxes, [0.5, 0.4], iou_thresh)
        with pytest.raises(ValidationError, match="iou_thresh"):
            point_nms([[0.0, 0.0]], [0.5], 1.0, 1.0, iou_thresh=iou_thresh)

    def test_negative_threshold_no_longer_keeps_zero_area_duplicates(self):
        zero_area = np.zeros((2, 4))
        assert oracle_nms(zero_area, [0.5, 0.5], -1.0) == [0]
        with pytest.raises(ValidationError, match="iou_thresh"):
            box_nms(zero_area, [0.5, 0.5], -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_box(self, bad):
        boxes = self.boxes.astype(float)
        boxes[1, 2] = bad
        with pytest.raises(ValidationError, match=r"boxes\[1\]"):
            box_nms(boxes, [0.5, 0.4], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score(self, bad):
        with pytest.raises(ValidationError, match=r"scores\[0\]"):
            box_nms(self.boxes, [bad, 0.4], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point(self, bad):
        pts = np.array([[0.0, 5.0], [1.0, bad]])
        with pytest.raises(ValidationError, match=r"points_xy\[1\]"):
            point_nms(pts, [0.5, 0.4], 1.0, 1.0)

    def test_nan_threshold(self):
        with pytest.raises(ValidationError, match="thresh_x"):
            point_nms([[0.0, 0.0]], [0.5], np.nan, 1.0)

    def test_score_count_mismatch(self):
        with pytest.raises(ValidationError, match="one score per box"):
            box_nms(self.boxes, [0.5], 0.1)

    @pytest.mark.parametrize("point", [[1e300, 0.0], [0.0, -1e300], [1e18, 5.0],
                                       [1.7e308, 0.0]])
    def test_box_edge_beyond_int64(self, point):
        with pytest.raises(ValidationError, match=r"points_xy\[0\]: box edge outside"):
            point_nms([point, [0.0, 0.0]], [0.5, 0.4], 1.0, 1.0)

    @pytest.mark.parametrize("thresh", [1e300, 1.7e308, np.inf])
    def test_huge_threshold_names_the_point(self, thresh):
        # build_nms_boxes has no threshold check of its own; point_nms
        # rejects the threshold before building boxes (see below).
        with pytest.raises(ValidationError, match=r"points_xy\[0\]: box edge outside"):
            build_nms_boxes([[0.0, 0.0]], 1.0, thresh)

    @pytest.mark.parametrize("name", ["thresh_x", "thresh_y", "r"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0])
    def test_non_finite_threshold_names_it(self, name, value):
        kwargs = {"thresh_x": 1.0, "thresh_y": 1.0, "r": 10, name: value}
        with pytest.raises(ValidationError, match=rf"^{name} must be positive and finite"):
            point_nms([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.4], **kwargs)

    @pytest.mark.parametrize("name", ["thresh_x", "thresh_y"])
    @pytest.mark.parametrize("value", [1e300, 1.7e308, np.float64(1e300), 2.0 ** 61])
    def test_huge_threshold_names_it(self, name, value):
        kwargs = {"thresh_x": 1.0, "thresh_y": 1.0, name: value}
        with pytest.raises(ValidationError, match=rf"^{name}: half-window .* int64 range"):
            point_nms([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.4], **kwargs)

    def test_huge_scale_names_the_threshold(self):
        with pytest.raises(ValidationError, match=r"^thresh_x: half-window"):
            point_nms([[0.0, 0.0]], [0.5], 1.0, 1.0, r=1e300)

    def test_largest_half_window_inside_int64_accepted(self):
        # r * thresh / 2 just below 2**63; the box of the origin still casts
        thresh = (2.0 ** 63 - 1024) / 5.0
        assert point_nms([[0.0, 0.0]], [0.5], thresh, 1.0).tolist() == [0]

    def test_box_edges_at_the_int64_limits(self):
        # the largest double below 2**63 and -2**63 itself still cast exactly
        top = 2.0 ** 63 - 1024
        boxes = build_nms_boxes([[top, -2.0 ** 63]], 0.0, 0.0, r=1)
        assert boxes.tolist() == [[int(top), -2 ** 63, int(top), -2 ** 63]]
        with pytest.raises(ValidationError, match=r"points_xy\[1\]"):
            build_nms_boxes([[0.0, 0.0], [2.0 ** 63, 0.0]], 0.0, 0.0, r=1)
