"""Proposal-to-ground-truth matching with spatial feasibility constraints.

The cost of pairing a proposal with a GT keypoint combines refined lateral
distance and classification dissimilarity.  A pair is infeasible when the
refined position is more than 1 m off, the anchor is more than 2 m off, or
the two lie on different grid rows; infeasible pairs carry infinite cost and
are never selected.  The solver maximizes match cardinality first, then
minimizes total cost, so sparse feasibility never starves matchable pairs.

``match_keypoints`` optionally duplicates every GT keypoint ``repeats_n``
times so that several co-located proposals can all be matched (the
duplicates collapse back to the original GT id in the result).  With
``strongest=True`` no duplication happens, which is the mode used after
suppression when one proposal per target remains.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .nms import as_proposal_set

# Feasibility limits, in meters.
MAX_REFINED_DIST_M = 1.0
MAX_ANCHOR_DIST_M = 2.0

# Above this size the exact lexicographic tie-break is skipped and the
# solver's deterministic solution is reported as-is.
_CANONICAL_LIMIT = 24


@dataclass(frozen=True)
class GroundTruthKeypoint:
    """A labeled lane point: lane membership, order along the lane, position.

    ``row`` is the grid row the point was sampled at; the same-row matching
    constraint compares row indices when both sides carry one, falling back
    to exact longitudinal equality otherwise.
    """

    lane_id: int
    order_in_lane: int
    x: float
    y: float
    z: float = 0.0
    category: int = 0
    row: int = None

    def __post_init__(self):
        if self.category < 0:
            raise ValidationError(f"category must be >= 0, got {self.category}")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """P x G pairing costs; np.inf marks infeasible pairs."""

    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2:
            raise ValueError(f"cost matrix must be 2-D, got shape {costs.shape}")
        finite = costs[np.isfinite(costs)]
        if finite.size and finite.min() < 0:
            raise ValueError("finite costs must be non-negative")
        object.__setattr__(self, "costs", costs)

    @property
    def shape(self):
        return self.costs.shape


@dataclass(frozen=True, eq=False)
class Matching:
    """Assignment result; pairs are (proposal_index, gt_index), sorted.

    GT indices may repeat when duplicated GT keypoints were collapsed back
    to their originals; proposal indices are always unique.
    """

    pairs: tuple
    unmatched_proposals: tuple
    unmatched_gts: tuple

    def __post_init__(self):
        pairs = tuple(sorted((int(p), int(g)) for p, g in self.pairs))
        props = [p for p, _ in pairs]
        if len(set(props)) != len(props):
            raise ValueError("a proposal may appear in at most one pair")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "unmatched_proposals",
                           tuple(sorted(int(i) for i in self.unmatched_proposals)))
        object.__setattr__(self, "unmatched_gts",
                           tuple(sorted(int(i) for i in self.unmatched_gts)))


def _equal_pairs(a, b):
    """All index pairs (i, j) with a[i] == b[j]."""
    order = np.argsort(a, kind="stable")
    lo = np.searchsorted(a[order], b, side="left")
    counts = np.searchsorted(a[order], b, side="right") - lo
    j = np.repeat(np.arange(len(b)), counts)
    # the k-th pair overall is the (k - first pair of j)-th match of b[j]
    first = np.cumsum(counts) - counts
    i = order[np.repeat(lo - first, counts) + np.arange(len(j))]
    return i, j


def build_cost_matrix(proposals, gts, lambda_dist=1.0, lambda_cls=1.0):
    """Pairwise costs with the three feasibility predicates applied.

    ``proposals`` is a ProposalSet or a sequence of Keypoints.  The class
    term is one minus the proposal's score for the GT category; a category
    at or past the proposal's score count has probability 0.
    """
    proposals = as_proposal_set(proposals)
    P, G = len(proposals), len(gts)
    costs = np.full((P, G), np.inf)
    if P == 0 or G == 0:
        return CostMatrix(costs)

    gt_x = np.array([g.x for g in gts])
    gt_y = np.array([g.y for g in gts])
    gt_row = np.array([-1 if g.row is None else g.row for g in gts])
    gt_cat = np.array([g.category for g in gts])

    # Same-row pairs are few, so only they get distances and class terms;
    # every other cell stays infinite.  A GT with a row pairs by row index,
    # one without by exact longitudinal position.
    by_row, by_y = np.flatnonzero(gt_row >= 0), np.flatnonzero(gt_row < 0)
    p_row, g_row = _equal_pairs(proposals.grid_index[:, 0], gt_row[by_row])
    p_y, g_y = _equal_pairs(proposals.y, gt_y[by_y])
    p = np.concatenate([p_row, p_y])
    g = np.concatenate([by_row[g_row], by_y[g_y]])
    refined_dist = np.abs(proposals.x[p] + proposals.dx[p] - gt_x[g])
    anchor_dist = np.abs(proposals.x[p] - gt_x[g])
    feasible = (refined_dist <= MAX_REFINED_DIST_M) & (anchor_dist <= MAX_ANCHOR_DIST_M)
    p, g, refined_dist = p[feasible], g[feasible], refined_dist[feasible]

    # Scores are zero-padded past each proposal's count; one more zero
    # column stands for every category beyond the widest score vector.
    scores = np.pad(proposals.class_scores, ((0, 0), (0, 1)))
    cls_term = 1.0 - scores[p, np.minimum(gt_cat[g], scores.shape[1] - 1)]
    costs[p, g] = lambda_dist * refined_dist + lambda_cls * cls_term
    return CostMatrix(costs)


def _solve_raw(costs):
    """Max-cardinality, then min-cost pairs via big-M substitution."""
    finite = np.isfinite(costs)
    if not finite.any():
        return []
    big = costs[finite].sum() + 1.0
    rows, cols = linear_sum_assignment(np.where(finite, costs, big))
    return sorted((int(r), int(c)) for r, c in zip(rows, cols) if finite[r, c])


def _optimum_profile(costs):
    pairs = _solve_raw(costs)
    return len(pairs), sum(costs[r, c] for r, c in pairs)


def _canonical_pairs(costs, card, total):
    """Lexicographically smallest sorted pair list achieving the optimum.

    Walks rows in order; a row takes its smallest column that keeps the
    remaining subproblem optimal, or is skipped when none does.
    """
    P, G = costs.shape
    live_rows = list(range(P))
    live_cols = list(range(G))
    pairs = []
    tol = 1e-9 * max(1.0, abs(total))
    while card and live_rows:
        r = live_rows.pop(0)
        chosen = None
        for c in live_cols:
            if not np.isfinite(costs[r, c]):
                continue
            sub = costs[np.ix_(live_rows, [x for x in live_cols if x != c])]
            sub_card, sub_total = _optimum_profile(sub)
            if sub_card == card - 1 and abs(sub_total - (total - costs[r, c])) <= tol:
                chosen = c
                break
        if chosen is not None:
            pairs.append((r, chosen))
            live_cols.remove(chosen)
            card -= 1
            total -= costs[r, chosen]
    return pairs


def solve_assignment(cost):
    """One-to-one assignment: max cardinality, then min total cost.

    Ties between equal-cost optima resolve to the lexicographically
    smallest pair list (exact up to 24x24; larger matrices return the
    solver's deterministic solution directly).
    """
    costs = cost.costs if isinstance(cost, CostMatrix) else CostMatrix(cost).costs
    P, G = costs.shape
    pairs = _solve_raw(costs)
    if pairs and max(P, G) <= _CANONICAL_LIMIT:
        card = len(pairs)
        total = sum(costs[r, c] for r, c in pairs)
        pairs = _canonical_pairs(costs, card, total)
    matched_p = {p for p, _ in pairs}
    matched_g = {g for _, g in pairs}
    return Matching(pairs=tuple(pairs),
                    unmatched_proposals=tuple(i for i in range(P) if i not in matched_p),
                    unmatched_gts=tuple(j for j in range(G) if j not in matched_g))


def match_keypoints(proposals, gts, repeats_n=1, strongest=False,
                    lambda_dist=1.0, lambda_cls=1.0):
    """Matches proposals against GT keypoints, duplicated unless strongest."""
    if repeats_n < 1:
        raise ValueError("repeats_n must be >= 1")
    gts = list(gts)
    if strongest or repeats_n == 1:
        cost = build_cost_matrix(proposals, gts, lambda_dist, lambda_cls)
        return solve_assignment(cost)

    duplicated = [g for g in gts for _ in range(repeats_n)]
    cost = build_cost_matrix(proposals, duplicated, lambda_dist, lambda_cls)
    raw = solve_assignment(cost)
    pairs = tuple((p, g // repeats_n) for p, g in raw.pairs)
    matched_p = {p for p, _ in pairs}
    matched_g = {g for _, g in pairs}
    return Matching(pairs=pairs,
                    unmatched_proposals=tuple(i for i in range(len(proposals))
                                              if i not in matched_p),
                    unmatched_gts=tuple(j for j in range(len(gts))
                                        if j not in matched_g))


def build_connection_targets(matching, gts, size):
    """0/1 target adjacency chaining matched proposals along each GT lane.

    For every matched GT keypoint, the positive successor is the matched
    proposal of the next GT keypoint in the same lane that found a match;
    unmatched GT keypoints are skipped over.
    """
    proposal_of = {}
    for p, g in matching.pairs:
        if g in proposal_of:
            raise ValueError("connection targets need a one-to-one matching "
                             f"(gt {g} matched twice)")
        proposal_of[g] = p

    targets = np.zeros((size, size))
    by_lane = {}
    for idx, g in enumerate(gts):
        by_lane.setdefault(g.lane_id, []).append((g.order_in_lane, idx))
    for members in by_lane.values():
        matched = [proposal_of[idx] for _, idx in sorted(members) if idx in proposal_of]
        for a, b in zip(matched[:-1], matched[1:]):
            targets[a, b] = 1.0
    return targets
