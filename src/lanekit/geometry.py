"""BEV anchor lattices and ground-plane <-> image projection.

COORDINATE CONVENTIONS
======================
Ego / BEV frame (right-handed):
  - Origin: on the ground under the ego vehicle
  - x: lateral, positive to the right, 0 at the vehicle midline
  - y: longitudinal, positive forward
  - z: up; the flat-ground assumption places lanes at z = ground_height

Camera frame (standard computer vision):
  - x: right in the image, y: down, z: forward along the optical axis

Image frame:
  - (u, v) pixels, origin at the top-left, u right, v down

A ``CameraModel`` holds the 3x3 intrinsic matrix and the 4x4 rigid transform
taking ego-frame points to camera-frame points.  Projection of a BEV anchor
``(x, y)`` at height ``z`` is::

    p_cam = extrinsic @ [x, y, z, 1]
    [u, v, 1] ~ intrinsic @ p_cam[:3]        (perspective division by depth)

Anchor grids come in two flavors:

* ``build_uniform_grid``   -- equal spacing on both axes.
* ``build_custom_grid``    -- row spacing grows linearly from near to far and
  the lateral span widens from half-width near the vehicle to full width at
  the farthest row.  Projected into the image this packs sample points more
  densely close to the vehicle, where a uniform lattice is sparsest.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (FINITE, NoGroundIntersection, ValidationError, bool_array, check_int,
                     check_real, float_array)

# Camera-frame depths at or below this are treated as behind the camera.
MIN_DEPTH_M = 1e-6
# Largest magnitude of any intrinsic or extrinsic entry (pixels, meters).
MAX_CAMERA_ENTRY = 1e12
# Largest image height or width, in pixels.
MAX_IMAGE_SIDE_PX = 2 ** 31 - 1
# Largest magnitude of any grid coordinate or grid argument, in meters.
MAX_POSITION_M = 1e100
# Usable cells that ``bilinear_sample`` gathers at once: two (block, C)
# buffers that stay in cache (512 was fastest of 64 to 4096 at C = 64).
_SAMPLE_BLOCK = 512


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Pinhole camera: intrinsics, ego->camera extrinsics, image size (h, w).

    Every intrinsic and extrinsic entry (so the translation too) must be
    finite with magnitude at most ``MAX_CAMERA_ENTRY`` (1e12), and the image
    height and width must lie in [1, ``MAX_IMAGE_SIDE_PX``].  With those
    bounds, projecting an ego point whose coordinates are at most
    ``MAX_POSITION_M`` (1e100 m) in magnitude keeps every product below about
    1e113, so it cannot overflow.
    """

    intrinsic: np.ndarray
    extrinsic: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        bounded = (-MAX_CAMERA_ENTRY, MAX_CAMERA_ENTRY, "[]")
        K = float_array(self.intrinsic, "intrinsic", (3, 3), within=bounded)
        E = float_array(self.extrinsic, "extrinsic", (4, 4), within=bounded)
        size = tuple(check_int(side, "image_size", 1) for side in self.image_size)
        if len(size) != 2 or max(size) > MAX_IMAGE_SIDE_PX:
            raise ValidationError(f"image_size (height, width) must lie in "
                                  f"[1, {MAX_IMAGE_SIDE_PX}], got {size}")
        if not np.allclose(K[np.tril_indices(3, -1)], 0.0):
            raise ValidationError("intrinsic must be upper-triangular")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValidationError("intrinsic focal lengths must be positive")
        R = E[:3, :3]
        # Orthonormal entries lie in [-1, 1]; testing that first keeps R @ R.T finite.
        if not (np.abs(R).max() <= 1.0 + 1e-6 and np.allclose(R @ R.T, np.eye(3), atol=1e-6)):
            raise ValidationError("extrinsic rotation block is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise ValidationError("extrinsic rotation block must have det +1")
        object.__setattr__(self, "intrinsic", K)
        object.__setattr__(self, "extrinsic", E)
        object.__setattr__(self, "image_size", size)

    @property
    def rotation(self):
        return self.extrinsic[:3, :3]

    @property
    def translation(self):
        return self.extrinsic[:3, 3]

    @property
    def center_ego(self):
        """Camera optical center expressed in the ego frame."""
        return -self.rotation.T @ self.translation


# Axis permutation taking ego (x right, y forward, z up) to camera
# (x right, y down, z forward) for a camera looking straight ahead.
_EGO_TO_CAM_AXES = np.array([[1.0, 0.0, 0.0],
                             [0.0, 0.0, -1.0],
                             [0.0, 1.0, 0.0]])


def make_forward_camera(height=1.5, pitch_deg=5.0, yaw_deg=0.0,
                        focal=1000.0, image_size=(960, 1280),
                        principal=None):
    """Builds a forward-looking camera ``height`` meters above the ground.

    ``pitch_deg`` tilts the optical axis down, ``yaw_deg`` turns it to the
    right.  The principal point defaults to the image center.  The angles
    must be finite, ``focal`` positive, and ``height``, ``focal`` and the
    principal point's entries at most ``MAX_CAMERA_ENTRY`` in magnitude.
    """
    check_real(height, "height", -MAX_CAMERA_ENTRY, MAX_CAMERA_ENTRY, "[]")
    check_real(pitch_deg, "pitch_deg")
    check_real(yaw_deg, "yaw_deg")
    check_real(focal, "focal", 0, MAX_CAMERA_ENTRY, "(]")
    if principal is None:
        h_px, w_px = _pair(image_size, "image_size", MAX_IMAGE_SIDE_PX)
        principal = (w_px / 2.0, h_px / 2.0)
    cx, cy = _pair(principal, "principal", MAX_CAMERA_ENTRY)
    K = np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])

    pitch = np.deg2rad(pitch_deg)
    yaw = np.deg2rad(yaw_deg)
    # Yaw about ego z, then the axis swap, then pitch about camera x.
    rot_yaw = np.array([[np.cos(yaw), np.sin(yaw), 0.0],
                        [-np.sin(yaw), np.cos(yaw), 0.0],
                        [0.0, 0.0, 1.0]])
    rot_pitch = np.array([[1.0, 0.0, 0.0],
                          [0.0, np.cos(pitch), -np.sin(pitch)],
                          [0.0, np.sin(pitch), np.cos(pitch)]])
    R = rot_pitch @ _EGO_TO_CAM_AXES @ rot_yaw
    center = np.array([0.0, 0.0, height])
    E = np.eye(4)
    E[:3, :3] = R
    E[:3, 3] = -R @ center
    return CameraModel(intrinsic=K, extrinsic=E, image_size=image_size)


@dataclass(frozen=True, eq=False)
class AnchorGrid:
    """Lattice of BEV anchor positions, ``rows`` x ``cols`` of them, each
    count a positive integer.

    ``positions`` is (rows, cols, 2) with ``[..., 0]`` the lateral x and
    ``[..., 1]`` the longitudinal y, in meters, each finite with magnitude
    at most ``MAX_POSITION_M``.  ``row_spacing[i]`` is the longitudinal gap
    from row i - 1 to row i.  In custom mode it strictly increases, and
    row 0's is its gap from ``build_custom_grid``'s ``y_origin``; in
    uniform mode it is the one row step, row 0's included.
    """

    rows: int
    cols: int
    positions: np.ndarray
    row_spacing: np.ndarray
    mode: str

    def __post_init__(self):
        rows, cols = check_int(self.rows, "rows", 1), check_int(self.cols, "cols", 1)
        pos = float_array(self.positions, "positions", (rows, cols, 2),
                          within=(-MAX_POSITION_M, MAX_POSITION_M, "[]"))
        spacing = float_array(self.row_spacing, "row_spacing", (rows,), within=FINITE)
        row_y = pos[:, 0, 1]
        if not np.all(np.diff(row_y) > 0):
            raise ValidationError("positions: longitudinal coordinates must strictly "
                                  "increase with row index")
        if self.mode not in ("uniform", "custom"):
            raise ValidationError(f"mode must be 'uniform' or 'custom', got {self.mode!r}")
        if self.mode == "custom" and not np.all(np.diff(spacing) > 0):
            raise ValidationError("row_spacing must be strictly increasing in custom mode")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "row_spacing", spacing)

    @property
    def row_y(self):
        """Longitudinal coordinate of each row (shared by all its columns)."""
        return self.positions[:, 0, 1]


def _pair(values, name, bound=MAX_POSITION_M):
    """``values`` as two floats, ``name[0]`` and ``name[1]``, each finite with
    magnitude at most ``bound``."""
    try:
        first, second = values
    except (TypeError, ValueError):   # not two values
        raise ValidationError(f"{name} must be a pair of numbers, got {values!r}") from None
    return (float(check_real(first, f"{name}[0]", -bound, bound, "[]")),
            float(check_real(second, f"{name}[1]", -bound, bound, "[]")))


def _range(values, name):
    """The grid range ``values`` as floats ``(low, high)``, ``low < high``."""
    low, high = _pair(values, name)
    if not high > low:
        raise ValidationError(f"{name} must be increasing, got {values!r}")
    return low, high


def build_uniform_grid(rows, cols, y_range, x_range):
    """Evenly spaced lattice whose corners coincide with the range bounds,
    each finite with magnitude at most ``MAX_POSITION_M``."""
    rows, cols = check_int(rows, "rows", 2), check_int(cols, "cols", 2)
    y_min, y_max = _range(y_range, "y_range")
    x_min, x_max = _range(x_range, "x_range")
    ys = np.linspace(y_min, y_max, rows)
    xs = np.linspace(x_min, x_max, cols)
    positions = np.empty((rows, cols, 2))
    positions[..., 0] = xs[np.newaxis, :]
    positions[..., 1] = ys[:, np.newaxis]
    spacing = np.full(rows, (y_max - y_min) / (rows - 1))
    return AnchorGrid(rows=rows, cols=cols, positions=positions,
                      row_spacing=spacing, mode="uniform")


def build_custom_grid(rows, cols, spacing_near=0.5, spacing_far=1.5,
                      width=20.0, normalize_to_range=None, y_origin=3.0):
    """Near-dense lattice: row gaps grow linearly from ``spacing_near`` to
    ``spacing_far`` and the lateral span widens from [W/4, 3W/4] at the first
    row to [0, W] at the last (re-centered so the midline is x = 0).

    Row i sits at the prefix sum of the gaps measured from ``y_origin``.
    With ``normalize_to_range=(y_min, y_max)`` all gaps are rescaled by one
    factor so that prefix sum spans exactly ``y_max - y_min`` starting at
    ``y_min``.  Every length and position argument must be finite with
    magnitude at most ``MAX_POSITION_M``, and the gaps and width positive.
    """
    rows, cols = check_int(rows, "rows", 2), check_int(cols, "cols", 2)
    check_real(spacing_near, "spacing_near", 0, MAX_POSITION_M, "(]")
    check_real(spacing_far, "spacing_far", spacing_near, MAX_POSITION_M, "(]")
    check_real(width, "width", 0, MAX_POSITION_M, "(]")
    check_real(y_origin, "y_origin", -MAX_POSITION_M, MAX_POSITION_M, "[]")

    spacing = spacing_near + np.arange(rows) * ((spacing_far - spacing_near) / (rows - 1))
    origin = float(y_origin)
    if normalize_to_range is not None:
        y_min, y_max = _range(normalize_to_range, "normalize_to_range")
        # Dividing first keeps a tiny gap sum from overflowing the scale.
        spacing = spacing / spacing.sum() * (y_max - y_min)
        origin = y_min
    ys = origin + np.cumsum(spacing)

    frac = np.arange(rows) / (rows - 1)
    x_start = (width / 4.0) * (1.0 - frac)
    x_end = width * 0.75 * (1.0 - frac) + width * frac
    positions = np.empty((rows, cols, 2))
    col_frac = np.arange(cols) / (cols - 1)
    positions[..., 0] = (x_start[:, np.newaxis]
                         + col_frac[np.newaxis, :] * (x_end - x_start)[:, np.newaxis]
                         - width / 2.0)
    positions[..., 1] = ys[:, np.newaxis]
    return AnchorGrid(rows=rows, cols=cols, positions=positions,
                      row_spacing=spacing, mode="custom")


@dataclass(frozen=True, eq=False)
class ProjectionMap:
    """Sub-pixel image coordinates of every grid cell plus a validity mask.

    ``pixel_coords`` is (rows, cols, 2), each cell's (u, v), and ``valid`` a
    boolean (rows, cols) mask.  A cell is invalid exactly when its ground
    point is behind the camera or projects outside the image.
    """

    pixel_coords: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        coords = float_array(self.pixel_coords, "pixel_coords", (None, None, 2))
        object.__setattr__(self, "pixel_coords", coords)
        object.__setattr__(self, "valid", bool_array(self.valid, "valid", coords.shape[:2]))


def project_points(points_ego, camera):
    """Projects (N, 3) ego-frame points, each coordinate at most
    ``MAX_POSITION_M`` in magnitude; returns ((N, 2) pixels, (N,) depths).

    A point at depth at most ``MIN_DEPTH_M`` may get infinite or NaN pixels;
    deeper points within the bound stated on ``CameraModel`` get finite ones.
    """
    pts = float_array(points_ego, "points_ego", (None, 3),
                      within=(-MAX_POSITION_M, MAX_POSITION_M, "[]"))
    homog = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    cam = homog @ camera.extrinsic.T
    depth = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uvw = cam[:, :3] @ camera.intrinsic.T
    # Dividing by a depth near zero may overflow; such a point is never valid.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uv = uvw[:, :2] / depth[:, np.newaxis]
    return uv, depth


def project_grid_to_image(grid, camera, ground_height=0.0):
    """Maps every anchor to image pixels assuming it lies at ``ground_height``,
    which is held to the same bound as a grid position."""
    check_real(ground_height, "ground_height", -MAX_POSITION_M, MAX_POSITION_M, "[]")
    flat = grid.positions.reshape(-1, 2)
    pts = np.column_stack([flat, np.full(len(flat), float(ground_height))])
    uv, depth = project_points(pts, camera)
    h_px, w_px = camera.image_size
    in_front = depth > MIN_DEPTH_M
    inside = (np.isfinite(uv).all(axis=1)
              & (uv[:, 0] >= 0.0) & (uv[:, 0] <= w_px - 1.0)
              & (uv[:, 1] >= 0.0) & (uv[:, 1] <= h_px - 1.0))
    valid = in_front & inside
    uv = np.where(valid[:, np.newaxis], uv, 0.0)
    return ProjectionMap(pixel_coords=uv.reshape(grid.rows, grid.cols, 2),
                         valid=valid.reshape(grid.rows, grid.cols))


def unproject_pixel_to_ground(camera, pixel, ground_height=0.0):
    """Intersects the viewing ray of ``pixel`` with the plane z = ground_height.

    ``pixel`` is a pair (u, v) held to the bound of a camera entry, and
    ``ground_height`` to that of a grid position.  Returns the (x, y, z)
    ego-frame point.  Raises ``NoGroundIntersection`` when the ray is parallel
    to the plane or hits it behind the camera.
    """
    u, v = _pair(pixel, "pixel", MAX_CAMERA_ENTRY)
    check_real(ground_height, "ground_height", -MAX_POSITION_M, MAX_POSITION_M, "[]")
    dir_cam = np.linalg.solve(camera.intrinsic, np.array([u, v, 1.0]))
    dir_ego = camera.rotation.T @ dir_cam
    center = camera.center_ego
    if abs(dir_ego[2]) < 1e-12:
        raise NoGroundIntersection(f"ray through pixel ({u}, {v}) is parallel to the ground plane")
    # dir_cam has unit z, so the ray parameter equals camera-frame depth.
    s = (float(ground_height) - center[2]) / dir_ego[2]
    if s <= MIN_DEPTH_M:
        raise NoGroundIntersection(f"ray through pixel ({u}, {v}) meets the ground behind the camera")
    return center + s * dir_ego


def bilinear_sample(feature_map, pmap):
    """Samples (H', W', C) features at the projection map's pixel coordinates.

    Invalid cells and coordinates outside the feature map yield zero vectors,
    so a feature map with no rows or no columns yields zeros everywhere;
    interior samples are convex combinations of the 4 surrounding pixels.

    Only the usable cells are sampled, ``_SAMPLE_BLOCK`` of them at a time:
    each block gathers its four taps into two buffers the size of the block,
    weights them and sums them in the order of the plain four-tap sum
    a + b + c + d, so every output is bit for bit that sum, a NaN from
    ``0 * inf`` included.
    """
    fmap = float_array(feature_map, "feature_map", (None, None, None))
    h_f, w_f, c = fmap.shape
    uv = float_array(pmap.pixel_coords, "pmap.pixel_coords", within=FINITE).reshape(-1, 2)
    u, v = uv[:, 0], uv[:, 1]
    cells = np.flatnonzero(pmap.valid.reshape(-1) & (u >= 0.0) & (u <= w_f - 1.0)
                           & (v >= 0.0) & (v <= h_f - 1.0))
    u, v = u[cells], v[cells]

    x0 = np.floor(u).astype(int)
    y0 = np.floor(v).astype(int)
    x1 = np.minimum(x0 + 1, w_f - 1)
    top = y0 * w_f
    bottom = np.minimum(y0 + 1, h_f - 1) * w_f
    wx = u - x0
    wy = v - y0
    taps = ((top + x0, (1 - wy) * (1 - wx)), (top + x1, (1 - wy) * wx),
            (bottom + x0, wy * (1 - wx)), (bottom + x1, wy * wx))

    # reshape(-1, c) cannot infer the row count of a map with no channels.
    flat = fmap.reshape(h_f * w_f, c)
    out = np.zeros((len(uv), c))
    acc, tap = np.empty((2, min(_SAMPLE_BLOCK, len(cells)), c))
    (first, first_weight), *rest = taps
    for start in range(0, len(cells), _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        n = min(_SAMPLE_BLOCK, len(cells) - start)
        total, term = acc[:n], tap[:n]
        # Every index is in range; "clip" only spares the copy that the
        # default mode makes of ``out``.
        np.take(flat, first[block], axis=0, out=total, mode="clip")
        total *= first_weight[block, np.newaxis]
        for index, weight in rest:
            np.take(flat, index[block], axis=0, out=term, mode="clip")
            term *= weight[block, np.newaxis]
            total += term
        out[cells[block]] = total
    return out.reshape(pmap.valid.shape + (c,))
