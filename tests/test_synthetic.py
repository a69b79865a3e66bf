import hashlib

import numpy as np
import pytest

from lanekit.geometry import build_custom_grid, build_uniform_grid
from lanekit.io import save_ground_truth, save_prediction_frame
from lanekit.matching import GroundTruthKeypoint
from lanekit.metrics import GroundTruthLane
from lanekit.nms import Keypoint, ProposalSet, point_nms
from lanekit.synthetic import SceneSpec, generate_scene, gt_keypoints, keypoint_recall


def grid12():
    return build_uniform_grid(rows=12, cols=32, y_range=(3.0, 58.0), x_range=(-8.0, 8.0))


class TestSceneSpec:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, sigma_x=-0.1)

    def test_dropout_one_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, dropout_p=1.0)

    def test_zero_proposals_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, proposals_per_target=0)

    def test_lane_outside_grid_rejected(self):
        spec = SceneSpec(seed=0, lane_count=1,
                         x_coeffs=((30.0, 0.0, 0.0, 0.0),),
                         z_coeffs=((0.0, 0.0),))
        with pytest.raises(ValueError):
            generate_scene(spec, grid12())


class TestGenerateScene:
    def test_same_seed_byte_identical(self, tmp_path):
        grid = grid12()
        spec = SceneSpec(seed=42, lane_count=3, sigma_x=0.1, sigma_z=0.05,
                         dropout_p=0.2, distractor_edge_rate=0.02)
        _, frame_a = generate_scene(spec, grid)
        _, frame_b = generate_scene(spec, grid)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_prediction_frame(frame_a, pa)
        save_prediction_frame(frame_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        grid = grid12()
        _, a = generate_scene(SceneSpec(seed=1, sigma_x=0.1), grid)
        _, b = generate_scene(SceneSpec(seed=2, sigma_x=0.1), grid)
        xa = [k.refined_x for k in a.keypoints]
        xb = [k.refined_x for k in b.keypoints]
        assert xa != xb

    def test_count_is_lanes_times_rows_times_n(self):
        grid = grid12()
        for n in (1, 2, 4):
            _, frame = generate_scene(SceneSpec(seed=5, lane_count=3,
                                                proposals_per_target=n), grid)
            assert len(frame.keypoints) == 3 * grid.rows * n
            assert frame.keypoints.repeats_n == n

    def test_noiseless_proposals_hit_gt_exactly(self):
        grid = grid12()
        gt, frame = generate_scene(SceneSpec(seed=9, lane_count=2), grid)
        gts = gt_keypoints(gt, grid)
        by_row = {}
        for g in gts:
            by_row.setdefault(g.row, []).append(g.x)
        for k in frame.keypoints:
            row = k.grid_index[0]
            assert min(abs(k.refined_x - x) for x in by_row[row]) < 1e-9

    def test_gt_sampled_on_grid_rows(self):
        grid = grid12()
        gt, _ = generate_scene(SceneSpec(seed=3, lane_count=4), grid)
        assert len(gt) == 4
        for lane in gt:
            np.testing.assert_array_equal(lane.points[:, 1], grid.row_y)
            assert lane.category >= 1

    def test_adjacency_links_consecutive_targets_all_pairs(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=7, lane_count=2,
                                            proposals_per_target=2), grid)
        S = len(frame.keypoints)
        # owner target of proposal i: generation order is lane-major,
        # row-major, n proposals each
        n = 2
        owner = np.arange(S) // n
        rows = grid.rows
        for i in range(S):
            for j in range(S):
                same_lane = owner[i] // rows == owner[j] // rows
                consecutive = owner[j] == owner[i] + 1
                expected = 1.0 if (same_lane and consecutive) else 0.0
                assert frame.adjacency[i, j] == expected

    def test_dropout_removes_proposals(self):
        grid = grid12()
        _, full = generate_scene(SceneSpec(seed=11, lane_count=3), grid)
        _, dropped = generate_scene(SceneSpec(seed=11, lane_count=3,
                                              dropout_p=0.4), grid)
        assert 0 < len(dropped.keypoints) < len(full.keypoints)

    def test_default_distractors_stay_below_threshold(self):
        grid = grid12()
        spec = SceneSpec(seed=13, lane_count=2, distractor_edge_rate=0.1)
        _, frame = generate_scene(spec, grid)
        off_chain = frame.adjacency[(frame.adjacency > 0) & (frame.adjacency < 1.0)]
        assert off_chain.size > 0
        assert off_chain.max() < 0.5

    def test_strong_distractors_cross_threshold(self):
        grid = grid12()
        spec = SceneSpec(seed=13, lane_count=2, distractor_edge_rate=0.1,
                         strong_distractors=True)
        _, frame = generate_scene(spec, grid)
        off_chain = frame.adjacency[(frame.adjacency > 0) & (frame.adjacency < 1.0)]
        assert off_chain.size > 0
        assert off_chain.min() >= 0.5

    def test_lanes_stay_separated_across_seeds(self):
        grid = grid12()
        for seed in range(25):
            gt, _ = generate_scene(SceneSpec(seed=seed, lane_count=4), grid)
            xs = np.stack([lane.points[:, 0] for lane in gt])
            per_row = np.sort(xs, axis=0)
            assert np.diff(per_row, axis=0).min() > 0.9

    def test_works_on_custom_grid(self):
        grid = build_custom_grid(rows=14, cols=24)
        gt, frame = generate_scene(SceneSpec(seed=4, lane_count=2), grid)
        assert len(frame.keypoints) == 2 * grid.rows * 2
        for lane in gt:
            np.testing.assert_array_equal(lane.points[:, 1], grid.row_y)


class TestGtKeypointsAndRecall:
    def test_gt_keypoints_rows_and_categories(self):
        grid = grid12()
        gt, _ = generate_scene(SceneSpec(seed=21, lane_count=3), grid)
        gts = gt_keypoints(gt, grid)
        assert len(gts) == 3 * grid.rows
        for g in gts:
            assert grid.row_y[g.row] == g.y
            assert g.category == gt[g.lane_id].category

    def test_gt_keypoints_off_grid_raises(self):
        grid = grid12()
        gt, _ = generate_scene(SceneSpec(seed=21, lane_count=1), grid)
        shifted = [type(gt[0])(points=gt[0].points + np.array([0, 0.5, 0]),
                               category=gt[0].category)]
        with pytest.raises(ValueError):
            gt_keypoints(shifted, grid)

    def test_gt_keypoints_without_a_grid_have_no_row(self):
        # Off every grid row is fine without a grid: the matcher pairs by y.
        lanes = [GroundTruthLane([[0.5, 3.25, 0.1], [0.75, 8.0, 0.2]], category=4),
                 GroundTruthLane([[-2.0, 3.0, 0.0], [-2.5, 9.5, -0.125]])]
        gts = gt_keypoints(lanes)
        assert gts == [
            GroundTruthKeypoint(lane_id=0, order_in_lane=0, x=0.5, y=3.25, z=0.1,
                                category=4, row=None),
            GroundTruthKeypoint(lane_id=0, order_in_lane=1, x=0.75, y=8.0, z=0.2,
                                category=4, row=None),
            GroundTruthKeypoint(lane_id=1, order_in_lane=0, x=-2.0, y=3.0, z=0.0,
                                category=0, row=None),
            GroundTruthKeypoint(lane_id=1, order_in_lane=1, x=-2.5, y=9.5, z=-0.125,
                                category=0, row=None)]
        assert {type(v) for g in gts for v in (g.x, g.y, g.z)} == {float}

    def test_full_scene_has_full_recall(self):
        grid = grid12()
        gt, frame = generate_scene(SceneSpec(seed=30, lane_count=3), grid)
        gts = gt_keypoints(gt, grid)
        assert keypoint_recall(frame.keypoints, gts) == 1.0

    def test_empty_gt_recall_is_one(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=30, lane_count=1), grid)
        assert keypoint_recall(frame.keypoints, []) == 1.0

    def test_recall_after_nms_with_dropout(self):
        grid = grid12()
        spec = SceneSpec(seed=31, lane_count=3, sigma_x=0.05, dropout_p=0.3,
                         proposals_per_target=2)
        gt, frame = generate_scene(spec, grid)
        gts = gt_keypoints(gt, grid)
        keep = point_nms(frame.keypoints.refined_xy, frame.keypoints.confidences,
                         1.1, 2.0)
        kept = frame.keypoints.subset(np.sort(keep))
        r = keypoint_recall(kept, gts)
        assert 0.5 < r <= 1.0

    def test_two_proposals_beat_one_under_dropout(self):
        grid = grid12()
        means = {}
        for n in (1, 2):
            vals = []
            for seed in range(40):
                spec = SceneSpec(seed=seed, lane_count=3, dropout_p=0.3,
                                 proposals_per_target=n)
                gt, frame = generate_scene(spec, grid)
                vals.append(keypoint_recall(frame.keypoints, gt_keypoints(gt, grid)))
            means[n] = np.mean(vals)
        assert means[2] > means[1]


ROW_Y = (5.0, 10.0, 15.0, 20.0)


def brute_force_recall(kept, gts, tol):
    """keypoint_recall with plain loops: a GT keypoint is recalled when a
    kept proposal on its row (its grid row, or its exact y when it has no
    row) lies within ``tol`` laterally."""
    if not gts:
        return 1.0
    hits = 0
    for g in gts:
        for k in kept:
            same_row = k.grid_index[0] == g.row if g.row is not None else k.y == g.y
            if same_row and abs(k.refined_x - g.x) <= tol:
                hits += 1
                break
    return hits / len(gts)


def random_recall_case(rng):
    """Proposals whose y is mostly, not always, their grid row's, and GT
    keypoints with and without a row, some of them off every row.  Every
    position is a multiple of 0.25, so distances land exactly on ``tol``."""
    kept = [Keypoint(grid_index=(int(row), 0), x=float(rng.integers(-8, 9)) / 4,
                     y=ROW_Y[row] if rng.random() < 0.8 else ROW_Y[rng.integers(0, 4)],
                     dx=float(rng.integers(-2, 3)) / 4)
            for row in rng.integers(0, 4, int(rng.integers(0, 12)))]
    gts = []
    for j in range(int(rng.integers(0, 10))):
        row = int(rng.integers(0, 4))
        y = ROW_Y[row] if rng.random() < 0.8 else ROW_Y[row] + 2.5
        gts.append(GroundTruthKeypoint(lane_id=j, order_in_lane=0,
                                       x=float(rng.integers(-8, 9)) / 4, y=y,
                                       row=row if rng.random() < 0.5 else None))
    return kept, gts


class TestRecallSharesTheMatchersRowRule:
    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(71)
        at_tol = 0
        for _ in range(300):
            kept, gts = random_recall_case(rng)
            tol = float(rng.choice([0.25, 0.5, 1.0]))
            at_tol += sum(abs(k.refined_x - g.x) == tol for k in kept for g in gts)
            for given in (kept, ProposalSet(kept)):
                assert keypoint_recall(given, gts, tol) == brute_force_recall(kept, gts, tol)
        assert at_tol > 0

    @pytest.mark.parametrize("seed", [3, 31, 32])
    def test_with_and_without_a_grid_alike(self, seed):
        grid = grid12()
        spec = SceneSpec(seed=seed, lane_count=3, sigma_x=0.2, dropout_p=0.3)
        gt, frame = generate_scene(spec, grid)
        keep = point_nms(frame.keypoints.refined_xy, frame.keypoints.confidences, 1.1, 2.0)
        for kept in (frame.keypoints, frame.keypoints.subset(np.sort(keep))):
            with_grid = keypoint_recall(kept, gt_keypoints(gt, grid))
            assert keypoint_recall(kept, gt_keypoints(gt)) == with_grid > 0.5
        gt, frame = generate_scene(SceneSpec(seed=seed), grid)
        assert keypoint_recall(frame.keypoints, gt_keypoints(gt)) == 1.0


# Scenes across the generator's cases: 1 to 4 proposals per target, dropout
# up to 0.6, each noise, weak and strong distractors, 1, 2 and 21 categories,
# explicit coefficients, and the 12 x 32 uniform grid, the base 56 x 64 and
# the large 72 x 128 presets.
PINNED_SPECS = {
    "n1-noiseless-one-category": (
        dict(seed=1, proposals_per_target=1, categories=1), (12, 32)),
    "n2-both-noises-weak-distractors": (
        dict(seed=2, sigma_x=0.1, sigma_z=0.05, dropout_p=0.3, distractor_edge_rate=0.05,
             categories=2), (12, 32)),
    "n3-heavy-dropout-strong-distractors": (
        dict(seed=3, proposals_per_target=3, sigma_x=0.2, dropout_p=0.6,
             distractor_edge_rate=0.02, strong_distractors=True), (56, 64)),
    "n4-z-noise-large": (
        dict(seed=4, lane_count=4, proposals_per_target=4, sigma_z=0.1, dropout_p=0.1,
             distractor_edge_rate=0.001), (72, 128)),
    "explicit-coefficients": (
        dict(seed=5, lane_count=2, sigma_x=0.05, dropout_p=0.5,
             x_coeffs=((-2.0, 0.5, -0.25, 0.1), (2.5, -0.3, 0.2, 0.0)),
             z_coeffs=((0.1, 0.2), (0.0, -0.1))), (12, 32)),
    "one-lane-strong-distractors": (
        dict(seed=6, lane_count=1, proposals_per_target=4, dropout_p=0.2, categories=2,
             distractor_edge_rate=0.1, strong_distractors=True), (56, 64)),
}

# SHA-256 of (save_prediction_frame bytes, save_ground_truth bytes) per
# scene, made with numpy 2.4.6.  A change to generate_scene must keep them.
PINNED_SHA256 = {
    "explicit-coefficients": (
        "48a1b6da3761314863de639d363c613ababd28889381459888bb4971d13915ae",
        "acc6f0a4d649805eb373a2b00c6d336f9671a0c28f1e1710cfb5dcf9817b9024"),
    "n1-noiseless-one-category": (
        "0e82f9506b719a5bc8a44d1d54d64198d67c65d2c2f463c57a0de89722a028ca",
        "7fa266dcbb920325f08409d86ff9071cb7fa1a581af41f8acb3c0b50f0de5168"),
    "n2-both-noises-weak-distractors": (
        "17cc19980671976e33241f6a7144d6689ce59361bf8abd0995a1313e3eac4f2d",
        "db0b1659847d8b8fe50fbd3133f461427ea00fc638772d26a214c8034ed40ecc"),
    "n3-heavy-dropout-strong-distractors": (
        "cfc4e74afb69172505c6373fc8c296e73d40f6d87e15f6432b0d2168cc34b878",
        "4a8a08a4c6555a7c6d1ee2362df0f074c0836a6ecf2740c0342ce9aa8c77e88a"),
    "n4-z-noise-large": (
        "ff2000a2d5ac6b5027526719146f1e4e105a4f0bb482624f9113b89ce069536e",
        "09c30f6088b7b6a6630193b2daa89791ba2662321b285867d68ffad777beeda5"),
    "one-lane-strong-distractors": (
        "8699cdd69349f862d79d63e0b56f5f95e646e9c5e17a72f6cb6690c342e0d662",
        "058e5a2fee3488e2c0abc67be2b64c3b4ea49ce52c6bc66576b504c9f86eebb3"),
}


def pinned_grid(shape):
    if shape == (12, 32):
        return grid12()
    return build_custom_grid(rows=shape[0], cols=shape[1])


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_scene_bytes_are_pinned(name, tmp_path):
    fields, shape = PINNED_SPECS[name]
    gt, frame = generate_scene(SceneSpec(**fields), pinned_grid(shape))
    pred_path, gt_path = tmp_path / "pred.json", tmp_path / "gt.json"
    save_prediction_frame(frame, pred_path)
    save_ground_truth({frame.frame_id: gt}, gt_path)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (pred_path, gt_path))
    assert digests == PINNED_SHA256[name], f"numpy {np.__version__}"


@pytest.mark.parametrize("seed", range(8))
def test_true_edges_join_same_lane_next_row_under_dropout(seed):
    """With sigma_x = 0 a proposal's refined x is its lane's GT x on its row,
    so its lane is known.  The adjacency is exactly 1.0 on same-lane,
    next-row pairs and nowhere else; a target whose proposals all dropped
    leaves no edge across it."""
    grid = grid12()
    spec = SceneSpec(seed=seed, lane_count=3, proposals_per_target=2, dropout_p=0.5,
                     distractor_edge_rate=0.05, strong_distractors=seed % 2 == 1)
    gt, frame = generate_scene(spec, grid)
    xs = np.stack([lane.points[:, 0] for lane in gt])
    row = frame.keypoints.grid_index[:, 0]
    lane = np.argmin(np.abs(xs[:, row] - frame.keypoints.refined_x), axis=0)
    np.testing.assert_allclose(xs[lane, row], frame.keypoints.refined_x, rtol=0, atol=1e-12)
    expected = (lane[:, None] == lane[None, :]) & (row[:, None] + 1 == row[None, :])
    np.testing.assert_array_equal(frame.adjacency == 1.0, expected)
    # Some lane loses every proposal of a row between two surviving rows.
    kept = np.zeros((spec.lane_count, grid.rows), dtype=bool)
    kept[lane, row] = True
    assert (kept[:, :-2] & ~kept[:, 1:-1] & kept[:, 2:]).any()
