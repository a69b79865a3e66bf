import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanekit import geometry
from lanekit.errors import NoGroundIntersection, ValidationError
from lanekit.geometry import (
    MAX_POSITION_M,
    AnchorGrid,
    CameraModel,
    ProjectionMap,
    bilinear_sample,
    build_custom_grid,
    build_uniform_grid,
    make_forward_camera,
    project_grid_to_image,
    project_points,
    unproject_pixel_to_ground,
)


def pixel_oracle(point, camera):
    """Independent per-point projection: K @ (R @ p + t), then divide."""
    p_cam = camera.extrinsic[:3, :3] @ np.asarray(point, float) + camera.extrinsic[:3, 3]
    uvw = camera.intrinsic @ p_cam
    return uvw[:2] / uvw[2], p_cam[2]


class TestUniformGrid:
    def test_two_by_two_corners(self):
        grid = build_uniform_grid(2, 2, y_range=(0, 10), x_range=(-5, 5))
        corners = {tuple(p) for p in grid.positions.reshape(-1, 2)}
        assert corners == {(-5.0, 0.0), (5.0, 0.0), (-5.0, 10.0), (5.0, 10.0)}

    def test_three_rows_constant_spacing(self):
        grid = build_uniform_grid(3, 4, y_range=(0, 10), x_range=(-5, 5))
        assert_allclose(grid.row_spacing, 5.0)
        assert_allclose(grid.row_y, [0.0, 5.0, 10.0])

    def test_full_resolution_spacings_equal(self):
        grid = build_uniform_grid(56, 64, y_range=(3, 103), x_range=(-10, 10))
        assert grid.positions.shape == (56, 64, 2)
        dy = np.diff(grid.positions[:, 0, 1])
        dx = np.diff(grid.positions[0, :, 0])
        assert np.ptp(dy) < 1e-9
        assert np.ptp(dx) < 1e-9

    @pytest.mark.parametrize("y_range,x_range", [((5, 5), (-5, 5)), ((0, 10), (3, -3))])
    def test_degenerate_range_rejected(self, y_range, x_range):
        with pytest.raises(ValueError):
            build_uniform_grid(4, 4, y_range=y_range, x_range=x_range)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            build_uniform_grid(1, 4, y_range=(0, 10), x_range=(-5, 5))


class TestCustomGrid:
    def test_two_rows_lateral_spans(self):
        W = 20.0
        grid = build_custom_grid(2, 5, width=W)
        # Spans are stated in a [0, W] frame, re-centered by -W/2.
        assert_allclose(grid.positions[0, 0, 0], W / 4 - W / 2)
        assert_allclose(grid.positions[0, -1, 0], 3 * W / 4 - W / 2)
        assert_allclose(grid.positions[1, 0, 0], -W / 2)
        assert_allclose(grid.positions[1, -1, 0], W / 2)

    def test_three_rows_spacings(self):
        grid = build_custom_grid(3, 4)
        assert_allclose(grid.row_spacing, [0.5, 1.0, 1.5])

    def test_normalized_prefix_sum_spans_range(self):
        grid = build_custom_grid(5, 4, normalize_to_range=(0, 100))
        assert abs((grid.row_y[-1] - 0.0) - 100.0) < 1e-9
        # One shared rescale factor: spacing ratios are preserved.
        raw = 0.5 + np.arange(5) * 0.25
        assert_allclose(grid.row_spacing / raw, grid.row_spacing[0] / raw[0])

    def test_spacing_affine_and_increasing(self):
        grid = build_custom_grid(56, 64)
        second_diff = np.diff(grid.row_spacing, n=2)
        assert np.all(np.diff(grid.row_spacing) > 0)
        assert np.max(np.abs(second_diff)) < 1e-12
        assert_allclose(grid.row_spacing[0], 0.5)
        assert_allclose(grid.row_spacing[-1], 1.5)

    def test_midline_centered(self):
        grid = build_custom_grid(8, 9, width=24.0)
        mid = (grid.positions[:, 0, 0] + grid.positions[:, -1, 0]) / 2
        assert_allclose(mid, 0.0, atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_custom_grid(1, 4)
        with pytest.raises(ValueError):
            build_custom_grid(4, 4, spacing_near=1.5, spacing_far=0.5)
        with pytest.raises(ValueError):
            build_custom_grid(4, 4, width=0.0)


class TestGridBounds:
    """Grid arguments and positions are finite and at most ``MAX_POSITION_M``
    in magnitude, checked before any arithmetic can overflow."""

    @pytest.mark.parametrize("y_range, x_range, name", [
        ((3.0, 58.0), (-8.0, np.inf), "x_range"),
        ((3.0, 58.0), (-1e308, 1e308), "x_range"),
        ((np.nan, 58.0), (-8.0, 8.0), "y_range"),
        ((3.0, 1.0000001e100), (-8.0, 8.0), "y_range")])
    def test_uniform_rejects_huge_or_non_finite_range(self, y_range, x_range, name):
        with pytest.raises(ValidationError, match=name):
            build_uniform_grid(4, 4, y_range=y_range, x_range=x_range)

    def test_uniform_accepts_the_bound(self):
        grid = build_uniform_grid(2, 2, (-MAX_POSITION_M, MAX_POSITION_M),
                                  (-MAX_POSITION_M, MAX_POSITION_M))
        assert np.abs(grid.positions).max() == MAX_POSITION_M

    @pytest.mark.parametrize("name, value", [
        ("width", np.inf), ("width", np.nan), ("spacing_near", -np.inf),
        ("spacing_far", 1e308), ("y_origin", np.nan), ("normalize_to_range", (0.0, np.inf))])
    def test_custom_rejects_huge_or_non_finite_argument(self, name, value):
        with pytest.raises(ValidationError, match=name):
            build_custom_grid(4, 4, **{name: value})

    def test_custom_rejects_non_positive_spacing(self):
        with pytest.raises(ValidationError, match="spacing_near"):
            build_custom_grid(3, 4, spacing_near=-1.0, spacing_far=1.0,
                              normalize_to_range=(0.0, 10.0))

    def test_custom_rows_past_the_bound_rejected(self):
        with pytest.raises(ValidationError, match="positions"):
            build_custom_grid(12, 4, spacing_far=1e100)

    def test_custom_tiny_gaps_normalize_without_overflow(self):
        grid = build_custom_grid(4, 4, spacing_near=1e-300, spacing_far=2e-300,
                                 normalize_to_range=(0.0, 1e100))
        assert grid.row_y[-1] == pytest.approx(1e100)

    @pytest.mark.parametrize("height", [np.nan, np.inf, 1e300])
    def test_projection_rejects_huge_or_non_finite_ground_height(self, height):
        grid = build_uniform_grid(3, 3, (3.0, 30.0), (-5.0, 5.0))
        with pytest.raises(ValidationError, match="ground_height"):
            project_grid_to_image(grid, make_forward_camera(), ground_height=height)

    @pytest.mark.parametrize("value", [np.inf, np.nan, -2e100])
    def test_anchor_grid_rejects_huge_or_non_finite_positions(self, value):
        positions = np.array([[[0.0, 1.0]], [[0.0, 2.0]]])
        positions[1, 0, 0] = value
        with pytest.raises(ValidationError, match="positions"):
            AnchorGrid(rows=2, cols=1, positions=positions, row_spacing=[1.0, 1.0],
                       mode="uniform")


class TestCameraModel:
    def test_rejects_bad_rotation(self):
        E = np.eye(4)
        E[0, 0] = 2.0
        with pytest.raises(ValueError, match="orthonormal"):
            CameraModel(np.diag([100.0, 100.0, 1.0]), E, (480, 640))

    def test_rejects_reflection(self):
        E = np.eye(4)
        E[0, 0] = -1.0
        E[1, 1] = -1.0
        E[2, 2] = 1.0
        CameraModel(np.diag([100.0, 100.0, 1.0]), E, (480, 640))  # det +1, fine
        E2 = np.eye(4)
        E2[0, 0] = -1.0
        with pytest.raises(ValueError, match="det"):
            CameraModel(np.diag([100.0, 100.0, 1.0]), E2, (480, 640))

    def test_rejects_non_upper_triangular_or_negative_focal(self):
        K = np.diag([100.0, 100.0, 1.0])
        K[2, 0] = 1.0
        with pytest.raises(ValueError, match="upper-triangular"):
            CameraModel(K, np.eye(4), (480, 640))
        with pytest.raises(ValueError, match="focal"):
            CameraModel(np.diag([-100.0, 100.0, 1.0]), np.eye(4), (480, 640))


class TestProjection:
    def test_optical_axis_point_hits_principal_point(self):
        cam = make_forward_camera(height=1.5, pitch_deg=8.0, yaw_deg=3.0)
        axis_ego = cam.rotation.T @ np.array([0.0, 0.0, 1.0])
        point = cam.center_ego + 10.0 * axis_ego
        uv, depth = project_points(point[np.newaxis], cam)
        assert_allclose(depth[0], 10.0, atol=1e-9)
        assert_allclose(uv[0], [cam.intrinsic[0, 2], cam.intrinsic[1, 2]], atol=1e-9)

    def test_point_behind_camera_invalid(self):
        cam = make_forward_camera()
        grid = AnchorGrid(
            rows=2, cols=2,
            positions=np.array([[[-1.0, -20.0], [1.0, -20.0]],
                                [[-1.0, 20.0], [1.0, 20.0]]]),
            row_spacing=np.array([40.0, 40.0]), mode="uniform")
        pmap = project_grid_to_image(grid, cam)
        assert not pmap.valid[0].any()
        assert pmap.valid[1].all()
        assert_allclose(pmap.pixel_coords[0], 0.0)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cam = make_forward_camera(height=rng.uniform(1.2, 2.0),
                                      pitch_deg=rng.uniform(2, 12),
                                      yaw_deg=rng.uniform(-8, 8),
                                      focal=rng.uniform(800, 1500))
            pts = np.column_stack([rng.uniform(-8, 8, 50),
                                   rng.uniform(5, 80, 50),
                                   np.zeros(50)])
            uv, depth = project_points(pts, cam)
            for p, got_uv, got_d in zip(pts, uv, depth):
                want_uv, want_d = pixel_oracle(p, cam)
                assert_allclose(got_uv, want_uv, atol=1e-6)
                assert_allclose(got_d, want_d, atol=1e-9)

    def test_valid_cells_inside_image(self):
        cam = make_forward_camera()
        grid = build_uniform_grid(10, 10, y_range=(2, 120), x_range=(-30, 30))
        pmap = project_grid_to_image(grid, cam)
        h, w = cam.image_size
        uv = pmap.pixel_coords[pmap.valid]
        assert np.all((uv[:, 0] >= 0) & (uv[:, 0] <= w - 1))
        assert np.all((uv[:, 1] >= 0) & (uv[:, 1] <= h - 1))


class TestUnprojection:
    def test_principal_point_hits_axis_ground_intersection(self):
        h, pitch = 1.5, 10.0
        cam = make_forward_camera(height=h, pitch_deg=pitch)
        cx, cy = cam.intrinsic[0, 2], cam.intrinsic[1, 2]
        point = unproject_pixel_to_ground(cam, (cx, cy))
        assert_allclose(point, [0.0, h / np.tan(np.deg2rad(pitch)), 0.0], atol=1e-9)

    def test_round_trip_over_random_poses(self):
        rng = np.random.default_rng(123)
        grid = build_uniform_grid(8, 8, y_range=(4, 60), x_range=(-8, 8))
        flat = grid.positions.reshape(-1, 2)
        checked = 0
        for _ in range(100):
            cam = make_forward_camera(height=rng.uniform(1.2, 2.0),
                                      pitch_deg=rng.uniform(2, 15),
                                      yaw_deg=rng.uniform(-10, 10),
                                      focal=rng.uniform(800, 1500))
            pmap = project_grid_to_image(grid, cam)
            uv = pmap.pixel_coords.reshape(-1, 2)
            for (x, y), (u, v), ok in zip(flat, uv, pmap.valid.reshape(-1)):
                if not ok:
                    continue
                back = unproject_pixel_to_ground(cam, (u, v))
                assert_allclose(back, [x, y, 0.0], atol=1e-6)
                forward, _ = project_points(back[np.newaxis], cam)
                assert_allclose(forward[0], [u, v], atol=1e-6)
                checked += 1
        assert checked > 1000

    def test_horizon_pixel_has_no_intersection(self):
        cam = make_forward_camera(height=1.5, pitch_deg=6.0)
        fy = cam.intrinsic[1, 1]
        cx, cy = cam.intrinsic[0, 2], cam.intrinsic[1, 2]
        v_horizon = cy - fy * np.tan(np.deg2rad(6.0))
        with pytest.raises(NoGroundIntersection, match="parallel"):
            unproject_pixel_to_ground(cam, (cx, v_horizon))
        # Above the horizon the ray points away from the ground.
        with pytest.raises(NoGroundIntersection):
            unproject_pixel_to_ground(cam, (cx, v_horizon - 50.0))

    def test_nonzero_ground_height_round_trip(self):
        cam = make_forward_camera(height=1.8, pitch_deg=7.0)
        pt = np.array([1.0, 25.0, 0.4])
        uv, _ = project_points(pt[np.newaxis], cam)
        back = unproject_pixel_to_ground(cam, uv[0], ground_height=0.4)
        assert_allclose(back, pt, atol=1e-6)


def four_tap_reference(fmap, pmap):
    """The plain bilinear formula, cell by cell: the weighted taps a, b, c
    and d summed as a + b + c + d, and zeros for a cell that is invalid or
    outside the map."""
    h_f, w_f, channels = fmap.shape
    uv = pmap.pixel_coords.reshape(-1, 2)
    out = np.zeros((len(uv), channels))
    for i, ((u, v), ok) in enumerate(zip(uv, pmap.valid.reshape(-1))):
        if not (ok and 0.0 <= u <= w_f - 1.0 and 0.0 <= v <= h_f - 1.0):
            continue
        x0, y0 = int(np.floor(u)), int(np.floor(v))
        x1, y1 = min(x0 + 1, w_f - 1), min(y0 + 1, h_f - 1)
        wx, wy = u - x0, v - y0
        a = fmap[y0, x0] * ((1 - wy) * (1 - wx))
        b = fmap[y0, x1] * ((1 - wy) * wx)
        c = fmap[y1, x0] * (wy * (1 - wx))
        d = fmap[y1, x1] * (wy * wx)
        out[i] = a + b + c + d
    return out.reshape(pmap.valid.shape + (channels,))


class TestBilinearSample:
    @staticmethod
    def pmap(uv, valid=None):
        uv = np.asarray(uv, float)
        if valid is None:
            valid = np.ones(uv.shape[:-1], bool)
        return ProjectionMap(pixel_coords=uv, valid=np.asarray(valid, bool))

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    def test_bit_identical_to_the_four_tap_sum(self, block, monkeypatch):
        """More cells than one block, cells on the last row and column
        exactly, invalid and out-of-range cells, and an infinite feature
        that a clamped tap weighs by 0 (a NaN in the sum); with the block
        size patched too, so that blocks split anywhere."""
        if block is not None:
            monkeypatch.setattr(geometry, "_SAMPLE_BLOCK", block)
        rng = np.random.default_rng(3)
        h_f, w_f = 7, 9
        fmap = rng.normal(size=(h_f, w_f, 5))
        fmap[2, w_f - 1] = np.inf
        fmap[h_f - 1, 4, 1] = -np.inf
        uv = np.column_stack([rng.uniform(-1.0, w_f, 1300), rng.uniform(-1.0, h_f, 1300)])
        uv[:40, 0] = w_f - 1.0
        uv[40:80, 1] = h_f - 1.0
        uv[80:90] = (w_f - 1.0, 2.5)
        uv[90:100] = (4.25, h_f - 1.0)
        valid = rng.random(1300) < 0.8
        pmap = self.pmap(uv.reshape(26, 50, 2), valid.reshape(26, 50))
        with np.errstate(invalid="ignore"):
            got = bilinear_sample(fmap, pmap)
            want = four_tap_reference(fmap, pmap)
        assert np.isnan(want).any()
        assert got.shape == want.shape == (26, 50, 5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3), (0, 0, 3)])
    def test_a_map_without_rows_or_columns_gives_zeros(self, shape):
        # Every coordinate lies outside such a map.
        out = bilinear_sample(np.ones(shape), self.pmap([[[0.0, 0.0], [1.0, 2.0]]]))
        assert out.shape == (1, 2, 3)
        assert not out.any()

    def test_no_channels_and_no_cells(self):
        fmap = np.ones((4, 4, 0))
        assert bilinear_sample(fmap, self.pmap([[[1.0, 1.0]], [[2.5, 0.5]]])).shape == (2, 1, 0)
        assert bilinear_sample(np.ones((4, 4, 3)), self.pmap(np.empty((0, 6, 2)))).shape \
            == (0, 6, 3)

    def test_pixel_center_returns_that_pixel(self):
        fmap = np.arange(24, dtype=float).reshape(4, 3, 2)
        out = bilinear_sample(fmap, self.pmap([[[2.0, 3.0]]]))
        assert_allclose(out[0, 0], fmap[3, 2])

    def test_midpoint_is_mean(self):
        fmap = np.arange(12, dtype=float).reshape(3, 4, 1)
        out = bilinear_sample(fmap, self.pmap([[[1.5, 2.0]]]))
        assert_allclose(out[0, 0], (fmap[2, 1] + fmap[2, 2]) / 2, atol=1e-9)

    def test_constant_map_constant_output(self):
        fmap = np.full((5, 5, 3), 7.25)
        uv = np.random.default_rng(0).uniform(0, 4, size=(4, 6, 2))
        out = bilinear_sample(fmap, self.pmap(uv))
        assert_allclose(out, 7.25, atol=1e-12)

    def test_invalid_and_out_of_range_are_zero(self):
        fmap = np.ones((4, 4, 2))
        uv = np.array([[[1.0, 1.0], [1.0, 1.0], [9.0, 1.0], [-0.5, 2.0]]])
        valid = np.array([[True, False, True, True]])
        out = bilinear_sample(fmap, self.pmap(uv, valid))
        assert_allclose(out[0, 0], 1.0)
        assert_allclose(out[0, 1:], 0.0)

    def test_convex_combination_of_neighbors(self):
        rng = np.random.default_rng(42)
        fmap = rng.normal(size=(6, 7, 4))
        uv = np.column_stack([rng.uniform(0, 6, 200), rng.uniform(0, 5, 200)])
        out = bilinear_sample(fmap, self.pmap(uv.reshape(1, 200, 2)))[0]
        for (u, v), val in zip(uv, out):
            x0, y0 = int(np.floor(u)), int(np.floor(v))
            block = fmap[y0:y0 + 2, x0:x0 + 2].reshape(-1, 4)
            assert np.all(val >= block.min(axis=0) - 1e-12)
            assert np.all(val <= block.max(axis=0) + 1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            bilinear_sample(np.ones((4, 4)), self.pmap([[[1.0, 1.0]]]))


def test_custom_grid_projects_denser_near_field():
    # Same camera, same row count, same longitudinal range: consecutive rows
    # of the custom grid land closer together in the image over the nearest
    # third than those of the uniform grid.
    cam = make_forward_camera(height=1.6, pitch_deg=10.0, focal=1200.0)
    rows = 24
    custom = build_custom_grid(rows, 4, normalize_to_range=(3, 103))
    uniform = build_uniform_grid(rows, 4, y_range=(custom.row_y[0], custom.row_y[-1]),
                                 x_range=(-10, 10))

    def near_row_gaps(grid):
        centers = np.column_stack([np.zeros(rows), grid.row_y, np.zeros(rows)])
        uv, depth = project_points(centers, cam)
        assert np.all(depth > 0)
        gaps = np.linalg.norm(np.diff(uv, axis=0), axis=1)
        return gaps[: rows // 3].mean()

    assert near_row_gaps(custom) < near_row_gaps(uniform)


class TestCameraBounds:
    """Camera entries are bounded where they enter, so projection cannot
    overflow and a degenerate image cannot silently invalidate every anchor."""

    @pytest.mark.parametrize("size", [(-5, 0), (480, 0), (0, 640), (-1, -1)])
    def test_rejects_non_positive_image_size(self, size):
        with pytest.raises(ValueError, match="image_size"):
            CameraModel(np.diag([100.0, 100.0, 1.0]), np.eye(4), size)

    def test_rejects_huge_image_size(self):
        with pytest.raises(ValueError, match="image_size"):
            CameraModel(np.diag([100.0, 100.0, 1.0]), np.eye(4), (480, 2 ** 31))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (1, 1), (2, 2)])
    @pytest.mark.parametrize("value", [1e308, -1e13, np.inf, np.nan])
    def test_rejects_huge_or_non_finite_intrinsic(self, entry, value):
        K = np.diag([100.0, 100.0, 1.0])
        K[entry] = value
        with pytest.raises(ValueError, match="intrinsic"):
            CameraModel(K, np.eye(4), (480, 640))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e308, 1.0000001e12])
    def test_rejects_huge_or_non_finite_translation(self, value):
        E = np.eye(4)
        E[1, 3] = value
        with pytest.raises(ValueError, match="extrinsic"):
            CameraModel(np.diag([100.0, 100.0, 1.0]), E, (480, 640))

    def test_rejects_huge_bottom_row(self):
        E = np.eye(4)
        E[3, 0] = 1e308
        with pytest.raises(ValueError, match="extrinsic"):
            CameraModel(np.diag([100.0, 100.0, 1.0]), E, (480, 640))

    def test_projection_at_the_bounds_stays_finite(self):
        # Tier-1 turns every RuntimeWarning into an error, so an overflow fails here.
        K = np.array([[1e12, -1e12, 1e12], [0.0, 1e12, -1e12], [0.0, 0.0, 1e12]])
        E = np.eye(4)
        E[:3, 3] = [1e12, -1e12, 1e12]
        E[3] = [1e12, -1e12, 1e12, 1e12]
        camera = CameraModel(K, E, (2 ** 31 - 1, 2 ** 31 - 1))
        corners = np.array([[s0, s1, s2] for s0 in (-1e100, 1e100)
                            for s1 in (-1e100, 1e100) for s2 in (-1e100, 1e100)])
        uv, depth = project_points(corners, camera)
        assert np.isfinite(depth).all()
        assert np.isfinite(uv[depth > 1e-6]).all()
        grid = build_uniform_grid(4, 4, (3.0, 1e100), (-1e100, 1e100))
        project_grid_to_image(grid, camera)

    def test_points_at_zero_depth_project_without_warnings(self):
        camera = make_forward_camera(pitch_deg=0.0)
        center = camera.center_ego
        # Depth exactly 0 and a denormal depth: pixels may be inf, never a warning.
        points = np.array([center, center + [1e-3, 5e-324, 0.0]])
        uv, depth = project_points(points, camera)
        assert (depth <= 1e-6).all()
