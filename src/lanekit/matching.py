"""Proposal-to-ground-truth matching with spatial feasibility constraints.

The cost of pairing a proposal with a GT keypoint combines refined lateral
distance and classification dissimilarity.  A pair is infeasible when the
refined position is more than 1 m off, the anchor is more than 2 m off, or
the two lie on different rows (see below); infeasible pairs carry infinite
cost and are never selected.  The solver maximizes match cardinality first,
then minimizes total cost, so sparse feasibility never starves matchable
pairs.

A proposal and a GT keypoint are on the same row when the GT keypoint's
``row`` is the proposal's grid row or, for a GT keypoint without a ``row``,
when both have the same longitudinal position ``y``.  ``_same_row_pairs``
states that rule once; the cost matrix here and
``synthetic.keypoint_recall`` both pair through it.

``match_keypoints`` duplicates every GT keypoint ``repeats_n`` times, by
default the proposal set's own ``repeats_n``, so that several co-located
proposals can all be matched (the duplicates collapse back to the original
GT id in the result).  With ``strongest=True`` no duplication happens,
which is the mode used after suppression when one proposal per target
remains.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NON_NEGATIVE, ValidationError, check_int, check_real, float_array,
                     int_array, unchecked)
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

    ``row`` is the grid row the point was sampled at, or None; the same-row
    rule (module docstring) pairs by ``row`` if given, else by exact ``y``.
    Positions are finite, and
    ``category`` and ``row`` (None or an index) are non-negative integers.
    """

    lane_id: int
    order_in_lane: int
    x: float
    y: float
    z: float = 0.0
    category: int = 0
    row: int = None

    def __post_init__(self):
        for name, low in (("lane_id", None), ("order_in_lane", None), ("category", 0)):
            check_int(getattr(self, name), name, low)
        for name in ("x", "y", "z"):
            check_real(getattr(self, name), name)
        if self.row is not None:
            check_int(self.row, "row", 0)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """P x G pairing costs: each non-negative, np.inf marking an infeasible
    pair.  NaN and -inf are rejected, not read as infeasible."""

    costs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "costs", float_array(self.costs, "costs", (None, None),
                                                      within=NON_NEGATIVE))

    @property
    def shape(self):
        return self.costs.shape


@dataclass(frozen=True, eq=False)
class Matching:
    """Assignment result; pairs are (proposal_index, gt_index), sorted.
    Every index, in the pairs and in the unmatched tuples, is a non-negative
    integer, no unmatched index is listed twice, and no index is both in a
    pair and unmatched.

    GT indices may repeat when duplicated GT keypoints were collapsed back
    to their originals; proposal indices are always unique.
    """

    pairs: tuple
    unmatched_proposals: tuple
    unmatched_gts: tuple

    def __post_init__(self):
        pairs = sorted(map(tuple, int_array(self.pairs, "pairs", (None, 2),
                                            within=NON_NEGATIVE).tolist()))
        matched = ({p for p, _ in pairs}, {g for _, g in pairs})
        if len(matched[0]) != len(pairs):
            raise ValidationError("pairs: a proposal may appear in at most one pair")
        object.__setattr__(self, "pairs", tuple(pairs))
        for name, kind, in_pairs in (("unmatched_proposals", "proposal", matched[0]),
                                     ("unmatched_gts", "gt", matched[1])):
            indices = sorted(int_array(list(getattr(self, name)), name, (None,),
                                       within=NON_NEGATIVE).tolist())
            if len(set(indices)) < len(indices):
                twice = next(a for a, b in zip(indices, indices[1:]) if a == b)
                raise ValidationError(f"{name}: {kind} {twice} is listed twice")
            both = in_pairs.intersection(indices)
            if both:
                raise ValidationError(f"{name}: {kind} {min(both)} is also in a pair")
            object.__setattr__(self, name, tuple(indices))


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


def _same_row_pairs(proposals, gts):
    """Every (proposal, GT) index pair on one row, as two index arrays: a GT
    keypoint with a ``row`` pairs with the proposals of that grid row, one
    without with the proposals at its exact longitudinal position ``y``.
    This is the one same-row rule: the cost matrix's feasible cells and
    ``synthetic.keypoint_recall``'s candidates both come from it."""
    gt_row = np.array([-1 if g.row is None else g.row for g in gts])
    gt_y = np.array([g.y for g in gts])
    by_row, by_y = np.flatnonzero(gt_row >= 0), np.flatnonzero(gt_row < 0)
    p_row, g_row = _equal_pairs(proposals.grid_index[:, 0], gt_row[by_row])
    p_y, g_y = _equal_pairs(proposals.y, gt_y[by_y])
    return np.concatenate([p_row, p_y]), np.concatenate([by_row[g_row], by_y[g_y]])


def build_cost_matrix(proposals, gts, lambda_dist=1.0, lambda_cls=1.0):
    """Pairwise costs with the three feasibility predicates applied.

    ``proposals`` is a ProposalSet or a sequence of Keypoints.  The class
    term is one minus the proposal's score for the GT category; a category
    at or past the proposals' score count C has probability 0.  Both weights
    must be finite and non-negative.
    """
    for name, weight in (("lambda_dist", lambda_dist), ("lambda_cls", lambda_cls)):
        check_real(weight, name, 0, ends="[)")
    proposals = as_proposal_set(proposals)
    P, G = len(proposals), len(gts)
    costs = np.full((P, G), np.inf)
    if P == 0 or G == 0:
        return CostMatrix(costs)

    gt_x = np.array([g.x for g in gts])
    gt_cat = np.array([g.category for g in gts])

    # Same-row pairs are few, so only they get distances and class terms;
    # every other cell stays infinite.
    p, g = _same_row_pairs(proposals, gts)
    refined_dist = np.abs(proposals.refined_x[p] - gt_x[g])
    anchor_dist = np.abs(proposals.x[p] - gt_x[g])
    feasible = (refined_dist <= MAX_REFINED_DIST_M) & (anchor_dist <= MAX_ANCHOR_DIST_M)
    p, g, refined_dist = p[feasible], g[feasible], refined_dist[feasible]

    # One more zero column stands for every category at or past C.
    scores = np.pad(proposals.class_scores, ((0, 0), (0, 1)))
    cls_term = 1.0 - scores[p, np.minimum(gt_cat[g], scores.shape[1] - 1)]
    costs[p, g] = lambda_dist * refined_dist + lambda_cls * cls_term
    return CostMatrix(costs)


_scipy_solver = None


def linear_sum_assignment(costs):
    """scipy's ``linear_sum_assignment``, imported on the first call so that
    importing lanekit does not load ``scipy.optimize``."""
    global _scipy_solver
    if _scipy_solver is None:
        from scipy.optimize import linear_sum_assignment as _scipy_solver
    return _scipy_solver(costs)


def _solve_raw(costs):
    """Max-cardinality, then min-cost pairs via big-M substitution."""
    finite = np.isfinite(costs)
    if not finite.any():
        return []
    big = costs[finite].sum() + 1.0
    rows, cols = linear_sum_assignment(np.where(finite, costs, big))
    # The solver returns rows sorted, so the kept pairs are sorted too.
    kept = finite[rows, cols]
    return list(zip(rows[kept].tolist(), cols[kept].tolist()))


def _canonical_pairs(costs, optimum):
    """Lexicographically smallest sorted pair list achieving the optimum.

    Walks rows in order; a row takes its smallest column that keeps the
    remaining subproblem optimal, or is skipped when none does.  The walk
    is warm-started from ``optimum``, an optimal pair list: a row it matches
    at column c keeps c without a solve (the rest of the current optimum
    stays optimal), so only finite columns left of c are tried, each with
    one sub-solve.  A column that passes replaces the current optimum with
    that sub-solve's pairs.  A row the current optimum leaves unmatched
    tries every finite column.
    """
    cells = costs.tolist()
    finite_cols = [[c for c, cost in enumerate(row) if math.isfinite(cost)] for row in cells]
    card = len(optimum)
    total = sum(cells[r][c] for r, c in optimum)
    tol = 1e-9 * max(1.0, abs(total))
    current = dict(optimum)
    live_rows = list(range(costs.shape[0]))
    live_cols = list(range(costs.shape[1]))
    pairs = []
    while card and live_rows:
        r = live_rows.pop(0)
        held = current.pop(r, None)
        chosen = held
        for c in finite_cols[r]:
            if c == held:
                break
            if c not in live_cols:
                continue
            sub_cols = [x for x in live_cols if x != c]
            sub_pairs = _solve_raw(costs[np.ix_(live_rows, sub_cols)])
            sub_total = sum(cells[live_rows[i]][sub_cols[j]] for i, j in sub_pairs)
            if len(sub_pairs) == card - 1 and abs(sub_total - (total - cells[r][c])) <= tol:
                chosen = c
                current = {live_rows[i]: sub_cols[j] for i, j in sub_pairs}
                break
        if chosen is not None:
            pairs.append((r, chosen))
            live_cols.remove(chosen)
            card -= 1
            total -= cells[r][chosen]
    return pairs


def solve_assignment(cost):
    """One-to-one assignment: max cardinality, then min total cost.

    Ties between equal-cost optima resolve to the lexicographically
    smallest pair list (exact up to 24x24; larger matrices return the
    solver's deterministic solution directly).  The tie-break starts from
    the solver's optimum, so a row keeps its optimal column unless a
    smaller one also leads to an optimum, and a matrix whose optimum is
    already the smallest costs no solve beyond the first.
    """
    costs = cost.costs if isinstance(cost, CostMatrix) else CostMatrix(cost).costs
    P, G = costs.shape
    pairs = _solve_raw(costs)
    if pairs and max(P, G) <= _CANONICAL_LIMIT:
        pairs = _canonical_pairs(costs, pairs)
    return _matching(pairs, P, G)


def _matching(pairs, proposal_count, gt_count):
    """The Matching of the solver's ``pairs``, with every index it leaves
    out unmatched.  The pairs are (Python int, Python int) tuples with no
    proposal twice, so Matching's rule holds and is not run again."""
    pairs = tuple(sorted(pairs))
    return unchecked(Matching, pairs=pairs,
                     unmatched_proposals=tuple(sorted(
                         set(range(proposal_count)).difference(p for p, _ in pairs))),
                     unmatched_gts=tuple(sorted(
                         set(range(gt_count)).difference(g for _, g in pairs))))


def match_keypoints(proposals, gts, repeats_n=None, strongest=False,
                    lambda_dist=1.0, lambda_cls=1.0):
    """Matches proposals against GT keypoints, duplicated unless strongest.

    Each GT keypoint is duplicated ``repeats_n`` times, by default the
    proposal set's own ``repeats_n`` (1 for a sequence of Keypoints)."""
    if repeats_n is not None:
        check_int(repeats_n, "repeats_n", 1)
    proposals = as_proposal_set(proposals)
    gts = list(gts)
    repeats = 1 if strongest else repeats_n or proposals.repeats_n
    duplicated = [g for g in gts for _ in range(repeats)]
    raw = solve_assignment(build_cost_matrix(proposals, duplicated, lambda_dist, lambda_cls))
    return _matching([(p, g // repeats) for p, g in raw.pairs], len(proposals), len(gts))


def build_connection_targets(matching, gts, size):
    """0/1 target adjacency chaining matched proposals along each GT lane.

    For every matched GT keypoint, the positive successor is the matched
    proposal of the next GT keypoint in the same lane that found a match;
    unmatched GT keypoints are skipped over.  ``size`` is a non-negative
    integer, every matched proposal index lies in [0, size) and every
    matched GT index in [0, len(gts)).
    """
    size = check_int(size, "size", 0)
    gts = list(gts)
    proposal_of = {}
    for k, (p, g) in enumerate(matching.pairs):
        if not 0 <= p < size:
            raise ValidationError(f"matching.pairs[{k}]: proposal {p} lies outside [0, {size})")
        if not 0 <= g < len(gts):
            raise ValidationError(f"matching.pairs[{k}]: gt {g} lies outside [0, {len(gts)})")
        if g in proposal_of:
            raise ValidationError("connection targets need a one-to-one matching "
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
