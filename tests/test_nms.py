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
        assert ty == pytest.approx(0.5 * grid.row_spacing[0])

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
    x_gap = 0.0
    for row in np.unique(rows):
        unique_x = np.unique(xs[rows == row])
        if unique_x.size > 1:
            x_gap = max(x_gap, np.diff(unique_x).min())
    distinct_y = np.unique(ys)
    y_gap = np.diff(distinct_y).min() if distinct_y.size > 1 else 2.0
    return 2.0 * (x_gap if x_gap > 0 else 1.0), 0.5 * y_gap


def assert_columns_match_keypoints(props, indices):
    kps = list(props)
    assert np.array_equal(props.refined_xy,
                          np.array([[k.refined_x, k.y] for k in kps]).reshape(-1, 2))
    assert np.array_equal(props.confidences, np.array([k.confidence for k in kps]))
    assert infer_nms_thresholds(props) == reference_thresholds(kps)
    sub = props.subset(indices)
    assert len(sub) == len(indices)
    assert all(a is kps[i] for a, i in zip(sub, indices))
    assert np.array_equal(sub.refined_xy, props.refined_xy[indices].reshape(-1, 2))
    assert np.array_equal(sub.confidences, props.confidences[indices])
    assert infer_nms_thresholds(sub) == reference_thresholds([kps[i] for i in indices])


proposal_row = st.tuples(st.integers(0, 4), st.integers(0, 6),
                         st.sampled_from([-3.0, -1.5, 0.0, 0.5, 2.0, 4.25]),
                         st.sampled_from([5.0, 10.0, 12.5, 20.0]),
                         st.floats(-1, 1, allow_nan=False, width=32), score,
                         st.lists(score, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(proposal_row, max_size=25), st.integers(0, 3), st.data())
def test_columns_match_keypoint_properties(rows, width, data):
    """Columns against Keypoint properties, for a set made of Keypoints with
    ragged and empty class scores and for a set made from arrays."""
    indices = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12)) \
        if rows else []
    kps = [Keypoint(grid_index=(r, c), x=x, y=y, dx=dx, fg_score=fg, class_scores=cs)
           for r, c, x, y, dx, fg, cs in rows]
    assert_columns_match_keypoints(ProposalSet(kps), indices)
    scores = np.array([(cs + [0.25] * width)[:width] for *_, cs in rows],
                      dtype=float).reshape(len(rows), width)
    from_arrays = ProposalSet.from_arrays(
        np.array([(r, c) for r, c, *_ in rows], dtype=int).reshape(-1, 2),
        [row[2] for row in rows], [row[3] for row in rows], dx=[row[4] for row in rows],
        fg_score=[row[5] for row in rows], class_scores=scores)
    assert_columns_match_keypoints(from_arrays, indices)
