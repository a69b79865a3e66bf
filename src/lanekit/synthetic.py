"""Synthetic scenes with known ground truth for end-to-end verification.

Each scene draws a few smooth lanes (cubic x(y), linear z(y)) across the
anchor grid, samples them at the grid rows as GT keypoints, and surrounds
every GT keypoint with ``proposals_per_target`` proposals anchored at the
nearest grid columns.  Proposal offsets point back at the GT position plus
Gaussian noise, individual proposals drop out independently, and the
adjacency carries probability 1.0 between proposals of longitudinally
consecutive GT keypoints of the same lane.  Distractor edges are sampled
either safely below the extraction threshold (default) or above it
(``strong_distractors``) to stress path selection.

Everything is a pure function of the seed: the same spec and grid always
produce byte-identical frames.
"""

from dataclasses import dataclass

import numpy as np

from .io import PredictionFrame
from .matching import GroundTruthKeypoint
from .metrics import GroundTruthLane
from .nms import ProposalSet, as_proposal_set


@dataclass(frozen=True)
class SceneSpec:
    """Generator knobs; explicit lane coefficients override the random draw.

    ``x_coeffs`` rows are (c0, c1, c2, c3) for x(t) = c0 + c1 t + c2 t^2 +
    c3 t^3 and ``z_coeffs`` rows (z0, z1) for z(t) = z0 + z1 t, with t the
    row position normalized to [0, 1] over the grid.
    """

    seed: int
    lane_count: int = 3
    sigma_x: float = 0.0
    sigma_z: float = 0.0
    proposals_per_target: int = 2
    dropout_p: float = 0.0
    distractor_edge_rate: float = 0.0
    edge_threshold: float = 0.5
    strong_distractors: bool = False
    categories: int = 21
    x_coeffs: tuple = None
    z_coeffs: tuple = None

    def __post_init__(self):
        if self.lane_count < 1:
            raise ValueError("lane_count must be >= 1")
        if self.sigma_x < 0 or self.sigma_z < 0:
            raise ValueError("noise sigmas must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.proposals_per_target < 1:
            raise ValueError("proposals_per_target must be >= 1")
        if not 0.0 <= self.distractor_edge_rate <= 1.0:
            raise ValueError("distractor_edge_rate must lie in [0, 1]")
        if self.categories < 1:
            raise ValueError("categories must be >= 1")


def _draw_coeffs(rng, lane_count, grid):
    # Keep lanes separated and inside the narrowest row: bases are spread
    # over the center strip, curvature gets a small budget of the lane gap.
    half = float(np.min(grid.positions[:, -1, 0]))
    margin = 0.85 * half
    if lane_count == 1:
        bases = np.array([0.0])
        gap = margin
    else:
        bases = np.linspace(-0.7 * margin, 0.7 * margin, lane_count)
        gap = min(bases[1] - bases[0], margin)
    c0 = bases + rng.uniform(-0.1, 0.1, lane_count) * gap
    raw = rng.uniform(-1.0, 1.0, (lane_count, 3))
    scale = 0.2 * gap * rng.uniform(0.3, 1.0, lane_count) \
        / np.maximum(np.abs(raw).sum(axis=1), 1e-9)
    x_coeffs = np.column_stack([c0, raw * scale[:, np.newaxis]])
    z_coeffs = np.column_stack([rng.uniform(0.0, 0.3, lane_count),
                                rng.uniform(-0.2, 0.4, lane_count)])
    return x_coeffs, z_coeffs


def _lane_positions(x_coeffs, z_coeffs, grid):
    row_y = grid.row_y
    t = (row_y - row_y[0]) / (row_y[-1] - row_y[0])
    powers = np.stack([np.ones_like(t), t, t ** 2, t ** 3])
    xs = x_coeffs @ powers                 # (lanes, rows)
    zs = z_coeffs @ np.stack([np.ones_like(t), t])
    return xs, zs


def generate_scene(spec, grid):
    """Builds (gt_lanes, prediction_frame) for one synthetic scene."""
    rng = np.random.default_rng(spec.seed)
    if spec.x_coeffs is not None:
        x_coeffs = np.asarray(spec.x_coeffs, dtype=float)
        z_coeffs = np.asarray(spec.z_coeffs if spec.z_coeffs is not None
                              else np.zeros((spec.lane_count, 2)), dtype=float)
        if x_coeffs.shape != (spec.lane_count, 4) or z_coeffs.shape != (spec.lane_count, 2):
            raise ValueError("x_coeffs must be (lane_count, 4) and z_coeffs (lane_count, 2)")
    else:
        x_coeffs, z_coeffs = _draw_coeffs(rng, spec.lane_count, grid)

    xs, zs = _lane_positions(x_coeffs, z_coeffs, grid)
    row_min = grid.positions[:, 0, 0]
    row_max = grid.positions[:, -1, 0]
    if np.any(xs < row_min[np.newaxis, :]) or np.any(xs > row_max[np.newaxis, :]):
        raise ValueError("lane leaves the lateral grid range")

    if spec.categories > 1:
        lane_cats = rng.integers(1, spec.categories, spec.lane_count)
    else:
        lane_cats = np.zeros(spec.lane_count, dtype=int)

    gt_lanes = []
    for lane_idx in range(spec.lane_count):
        points = np.column_stack([xs[lane_idx], grid.row_y, zs[lane_idx]])
        gt_lanes.append(GroundTruthLane(points=points, category=int(lane_cats[lane_idx])))

    # Proposals: n nearest columns per GT keypoint, each surviving dropout
    # independently.
    n = spec.proposals_per_target
    grid_index, fields, categories = [], [], []
    owners = []                 # flat target id per surviving proposal
    target_id = 0
    for lane_idx in range(spec.lane_count):
        for row in range(grid.rows):
            x_gt = xs[lane_idx, row]
            z_gt = zs[lane_idx, row]
            anchors = grid.positions[row, :, 0]
            cols = np.argsort(np.abs(anchors - x_gt), kind="stable")[:n]
            for col in cols:
                dropped = rng.random() < spec.dropout_p
                dx = (x_gt - anchors[col]) + rng.normal(0.0, spec.sigma_x) \
                    if spec.sigma_x else x_gt - anchors[col]
                z = z_gt + rng.normal(0.0, spec.sigma_z) if spec.sigma_z else z_gt
                fg = rng.uniform(0.7, 0.95)
                cat_score = rng.uniform(0.85, 0.99)
                if dropped:
                    continue
                grid_index.append((row, col))
                fields.append((anchors[col], grid.row_y[row], dx, z, fg, cat_score))
                categories.append(lane_cats[lane_idx])
                owners.append(target_id)
            target_id += 1

    S = len(fields)
    x, y, dx, z, fg, cat_score = np.array(fields, dtype=float).reshape(-1, 6).T
    scores = np.zeros((S, spec.categories))
    scores[np.arange(S), np.asarray(categories, dtype=int)] = cat_score
    owners = np.asarray(owners, dtype=int)
    adjacency = np.zeros((S, S))
    rows_per_lane = grid.rows
    true_pair = np.zeros((S, S), dtype=bool)
    for lane_idx in range(spec.lane_count):
        first = lane_idx * rows_per_lane
        for row in range(rows_per_lane - 1):
            src = np.nonzero(owners == first + row)[0]
            dst = np.nonzero(owners == first + row + 1)[0]
            if src.size and dst.size:
                true_pair[np.ix_(src, dst)] = True
    adjacency[true_pair] = 1.0

    if spec.distractor_edge_rate > 0 and S > 1:
        eligible = (rng.random((S, S)) < spec.distractor_edge_rate) & ~true_pair
        np.fill_diagonal(eligible, False)
        count = int(eligible.sum())
        if spec.strong_distractors:
            values = rng.uniform(spec.edge_threshold, 0.99, count)
        else:
            values = rng.uniform(0.0, 0.9 * spec.edge_threshold, count)
        adjacency[eligible] = values

    keypoints = ProposalSet.from_arrays(grid_index, x, y, dx, z, fg, scores, repeats_n=n)
    frame = PredictionFrame(frame_id=f"scene-{spec.seed}", keypoints=keypoints,
                            adjacency=adjacency)
    return gt_lanes, frame


def gt_keypoints(gt_lanes, grid):
    """Flattens GT lanes into row-indexed keypoints for the matcher."""
    out = []
    for lane_id, lane in enumerate(gt_lanes):
        for order, (x, y, z) in enumerate(lane.points):
            row = int(np.searchsorted(grid.row_y, y))
            if row >= grid.rows or grid.row_y[row] != y:
                raise ValueError(f"lane {lane_id} point {order} does not sit on a grid row")
            out.append(GroundTruthKeypoint(lane_id=lane_id, order_in_lane=order,
                                           x=float(x), y=float(y), z=float(z),
                                           category=lane.category, row=row))
    return out


def keypoint_recall(kept, gts, tol=0.5):
    """Fraction of GT keypoints with a kept proposal within ``tol`` meters
    laterally on the same grid row."""
    gts = list(gts)
    if not gts:
        return 1.0
    kept = as_proposal_set(kept)
    kept_rows = kept.grid_index[:, 0]
    kept_x = kept.x + kept.dx
    hits = 0
    for g in gts:
        on_row = kept_rows == g.row
        if on_row.any() and np.abs(kept_x[on_row] - g.x).min() <= tol:
            hits += 1
    return hits / len(gts)
