"""Synthetic scenes with known ground truth for end-to-end verification.

Each scene draws a few smooth lanes (cubic x(y), linear z(y)) across the
anchor grid, samples them at the grid rows as GT keypoints, and surrounds
every GT keypoint with ``proposals_per_target`` proposals anchored at the
nearest grid columns.  Proposal offsets point back at the GT position plus
Gaussian noise, and individual proposals drop out independently.

The GT keypoints are the targets, numbered lane by lane and row by row:
the keypoint of lane l on row r is target ``l * rows + r``.  The adjacency
is 1.0 from every proposal of target t to every proposal of target t + 1
of the same lane, and true edges are nothing else: a target whose
proposals all dropped out leaves no edge across it.  Distractor edges are
sampled either safely below ``EDGE_THRESHOLD``, graph's default ``t_a``,
or, with ``strong_distractors``, above it, to stress path selection.

Everything is a pure function of the seed: the same spec and grid always
produce byte-identical frames.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FINITE, ValidationError, check_int, check_real, float_array
from .graph import EDGE_THRESHOLD
from .io import PredictionFrame
from .matching import GroundTruthKeypoint, _same_row_pairs
from .metrics import GroundTruthLane
from .nms import ProposalSet, as_proposal_set


@dataclass(frozen=True)
class SceneSpec:
    """Generator knobs; explicit lane coefficients override the random draw.

    ``x_coeffs`` rows are (c0, c1, c2, c3) for x(t) = c0 + c1 t + c2 t^2 +
    c3 t^3 and ``z_coeffs`` rows (z0, z1) for z(t) = z0 + z1 t, with t the
    row position normalized to [0, 1] over the grid.  ``strong_distractors``
    draws the distractor edges in [``EDGE_THRESHOLD``, 0.99), above the
    extraction threshold, instead of in [0, 0.9 ``EDGE_THRESHOLD``).
    """

    seed: int
    lane_count: int = 3
    sigma_x: float = 0.0
    sigma_z: float = 0.0
    proposals_per_target: int = 2
    dropout_p: float = 0.0
    distractor_edge_rate: float = 0.0
    strong_distractors: bool = False
    categories: int = 21
    x_coeffs: tuple = None
    z_coeffs: tuple = None

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        for name in ("lane_count", "proposals_per_target", "categories"):
            check_int(getattr(self, name), name, 1)
        for name in ("sigma_x", "sigma_z"):
            check_real(getattr(self, name), name, 0, ends="[)")
        check_real(self.dropout_p, "dropout_p", 0, 1, "[)")
        check_real(self.distractor_edge_rate, "distractor_edge_rate", 0, 1, "[]")


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
        x_coeffs = float_array(spec.x_coeffs, "x_coeffs", (spec.lane_count, 4), within=FINITE)
        z_coeffs = float_array(spec.z_coeffs if spec.z_coeffs is not None
                               else np.zeros((spec.lane_count, 2)), "z_coeffs",
                               (spec.lane_count, 2), within=FINITE)
    else:
        x_coeffs, z_coeffs = _draw_coeffs(rng, spec.lane_count, grid)

    xs, zs = _lane_positions(x_coeffs, z_coeffs, grid)
    row_min = grid.positions[:, 0, 0]
    row_max = grid.positions[:, -1, 0]
    if np.any(xs < row_min[np.newaxis, :]) or np.any(xs > row_max[np.newaxis, :]):
        raise ValidationError("lane leaves the lateral grid range")

    if spec.categories > 1:
        lane_cats = rng.integers(1, spec.categories, spec.lane_count)
    else:
        lane_cats = np.zeros(spec.lane_count, dtype=int)
    points = np.stack([xs, np.broadcast_to(grid.row_y, xs.shape), zs], axis=2)
    gt_lanes = list(map(GroundTruthLane, points, lane_cats))

    # Proposals: the n nearest columns of every GT keypoint, in lane, row,
    # column order.  Each draws, dropped or not: dropout, x and z noise
    # (each only with its sigma; -0.0 otherwise, which adds nothing to any
    # float), fg score, class score.
    n = spec.proposals_per_target
    cols = np.argsort(np.abs(grid.positions[np.newaxis, :, :, 0] - xs[:, :, np.newaxis]),
                      axis=2, kind="stable")[:, :, :n]
    draws = np.array([(rng.random(), rng.normal(0.0, spec.sigma_x) if spec.sigma_x else -0.0,
                       rng.normal(0.0, spec.sigma_z) if spec.sigma_z else -0.0,
                       rng.uniform(0.7, 0.95), rng.uniform(0.85, 0.99))
                      for _ in range(cols.size)])
    kept = draws[:, 0] >= spec.dropout_p
    lane, row, _ = np.unravel_index(np.flatnonzero(kept), cols.shape)
    col = cols.reshape(-1)[kept]
    noise_x, noise_z, fg, cat_score = draws[kept, 1:].T

    S = len(col)
    x = grid.positions[row, col, 0]
    scores = np.zeros((S, spec.categories))
    scores[np.arange(S), lane_cats[lane]] = cat_score
    # True edges: same lane, next row (target t to t + 1, within a lane).
    true_pair = (lane[:, np.newaxis] == lane) & (row[:, np.newaxis] + 1 == row)
    adjacency = true_pair.astype(float)

    if spec.distractor_edge_rate > 0 and S > 1:
        eligible = (rng.random((S, S)) < spec.distractor_edge_rate) & ~true_pair
        np.fill_diagonal(eligible, False)
        count = int(eligible.sum())
        if spec.strong_distractors:
            values = rng.uniform(EDGE_THRESHOLD, 0.99, count)
        else:
            values = rng.uniform(0.0, 0.9 * EDGE_THRESHOLD, count)
        adjacency[eligible] = values

    keypoints = ProposalSet.from_arrays(np.column_stack([row, col]), x, grid.row_y[row],
                                        xs[lane, row] - x + noise_x, zs[lane, row] + noise_z,
                                        fg, scores, repeats_n=n)
    frame = PredictionFrame(frame_id=f"scene-{spec.seed}", keypoints=keypoints,
                            adjacency=adjacency)
    return gt_lanes, frame


def gt_keypoints(gt_lanes, grid=None):
    """Flattens GT lanes into keypoints for the matcher, lane by lane and
    point by point along each lane, each with its lane's category.  With a
    ``grid`` a keypoint's ``row`` is the index of the grid row it sits on,
    and a point off every row raises; without one ``row`` is None, and the
    matcher and ``keypoint_recall`` pair the keypoint by exact longitudinal
    position."""
    out = []
    for lane_id, lane in enumerate(gt_lanes):
        for order, (x, y, z) in enumerate(lane.points):
            row = None
            if grid is not None:
                row = int(np.searchsorted(grid.row_y, y))
                if row >= grid.rows or grid.row_y[row] != y:
                    raise ValidationError(f"gt_lanes[{lane_id}].points[{order}]: "
                                          f"does not sit on a grid row")
            out.append(GroundTruthKeypoint(lane_id=lane_id, order_in_lane=order,
                                           x=float(x), y=float(y), z=float(z),
                                           category=lane.category, row=row))
    return out


def keypoint_recall(kept, gts, tol=0.5):
    """Fraction of GT keypoints with a kept proposal on the same row (the
    matcher's rule, ``matching._same_row_pairs``) within ``tol`` meters
    laterally, ``|refined_x - x| <= tol``; ``tol`` must be positive and
    finite."""
    check_real(tol, "tol", 0)
    kept = as_proposal_set(kept)
    gts = list(gts)
    if not gts:
        return 1.0
    p, g = _same_row_pairs(kept, gts)
    gt_x = np.array([gt.x for gt in gts])
    recalled = np.unique(g[np.abs(kept.refined_x[p] - gt_x[g]) <= tol])
    return len(recalled) / len(gts)
