"""Proposal-to-ground-truth matching with spatial feasibility constraints.

The cost of pairing a proposal with a GT keypoint combines refined lateral
distance and classification dissimilarity.  A pair is infeasible when the
refined position is more than 1 m off, the anchor is more than 2 m off, or
the two lie on different rows (see below); infeasible pairs carry infinite
cost and are never selected.  The solver maximizes match cardinality first,
then minimizes total cost, so sparse feasibility never starves matchable
pairs.

Feasible pairs are few (under 1% of a training sample's cells), so a
``CostMatrix`` holds its finite cells and makes the dense P x G view only
when it is read.  Those cells split into tiny connected components, and
``solve_assignment`` solves each on its own: single cells, stars and a GT
keypoint's copies in closed form, any other component on its own dense
block with scipy's ``linear_sum_assignment``.  Its docstring states the
rule.

A proposal and a GT keypoint are on the same row when the GT keypoint's
``row`` is the proposal's grid row or, for a GT keypoint without a ``row``,
when both have the same longitudinal position ``y``.  ``_same_row_pairs``
states that rule once; the cost matrix here and
``synthetic.keypoint_recall`` both pair through it.

``match_keypoints`` duplicates every GT keypoint ``repeats_n`` times, by
default the proposal set's own ``repeats_n``, so that several co-located
proposals can all be matched (the duplicates collapse back to the original
GT id in the result).  The copies are made as cost cells, each feasible
cell repeated once per copy, not as GT keypoint objects.  With
``strongest=True`` no duplication happens, which is the mode used after
suppression when one proposal per target remains.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (NON_NEGATIVE, ValidationError, check_int, check_real, float_array,
                     int_array, unchecked)
from .nms import as_proposal_set

# Feasibility limits, in meters.
MAX_REFINED_DIST_M = 1.0
MAX_ANCHOR_DIST_M = 2.0

# Up to this size a component's tied optima resolve to the lexicographically
# smallest pair list; above it the dense solver's own optimum is reported.
_CANONICAL_LIMIT = 24

# The solvers' big-M totals stay below 2 ** _MAX_EXPONENT, where big-M's
# margin of 1 over the sum of the costs is still 2 ** 12 units in the last
# place of a total; costs that could pass it are scaled down first.  Past
# 2 ** 53 the margin is lost, and past 2 ** 1024 the total overflows.
_MAX_EXPONENT = 40


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


@dataclass(frozen=True, eq=False, init=False)
class CostMatrix:
    """P x G pairing costs: each non-negative, np.inf marking an infeasible
    pair.  NaN and -inf are rejected, not read as infeasible.

    A matrix is its ``shape`` and its finite ``cells``, ``(rows, cols,
    values)`` in row-major order, and ``costs`` is the dense view, np.inf
    off the cells.  ``CostMatrix(costs)`` keeps the dense array it checked
    and finds the cells the first time they are read; ``build_cost_matrix``
    keeps the cells it computed and fills the dense view the first time it
    is read.  Either is kept once made.
    """

    shape: tuple

    def __init__(self, costs):
        costs = float_array(costs, "costs", (None, None), within=NON_NEGATIVE)
        object.__setattr__(self, "shape", costs.shape)
        self.__dict__["costs"] = costs

    @cached_property
    def costs(self):
        rows, cols, values = self.cells
        costs = np.full(self.shape, np.inf)
        costs[rows, cols] = values
        return costs

    @cached_property
    def cells(self):
        rows, cols = np.nonzero(np.isfinite(self.costs))
        return rows, cols, self.costs[rows, cols]


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
    must be finite and non-negative.  The matrix is made from the feasible
    cells alone; its dense view is filled only when read.
    """
    for name, weight in (("lambda_dist", lambda_dist), ("lambda_cls", lambda_cls)):
        check_real(weight, name, 0, ends="[)")
    proposals = as_proposal_set(proposals)
    P, G = len(proposals), len(gts)
    gt_x = np.array([g.x for g in gts])
    gt_cat = np.array([g.category for g in gts], dtype=int)

    # Same-row pairs are few, so only they get distances and class terms;
    # every other cell is infinite and never made.
    p, g = _same_row_pairs(proposals, gts)
    refined_dist = np.abs(proposals.refined_x[p] - gt_x[g])
    anchor_dist = np.abs(proposals.x[p] - gt_x[g])
    feasible = (refined_dist <= MAX_REFINED_DIST_M) & (anchor_dist <= MAX_ANCHOR_DIST_M)
    p, g, refined_dist = p[feasible], g[feasible], refined_dist[feasible]

    # One more zero column stands for every category at or past C.
    scores = np.pad(proposals.class_scores, ((0, 0), (0, 1)))
    cls_term = 1.0 - scores[p, np.minimum(gt_cat[g], scores.shape[1] - 1)]
    with np.errstate(over="ignore"):
        costs = lambda_dist * refined_dist + lambda_cls * cls_term
    # Distances and class terms are non-negative, so the costs are too.  A
    # cost past the float range (a weight near 1e308) is inf and no cell, as
    # a dense matrix reads it.  Cells go in row-major order, as a dense
    # matrix's are read, so the solver sees one graph either way.
    cells = np.flatnonzero(np.isfinite(costs))
    cells = cells[np.argsort(p[cells] * G + g[cells])]
    return unchecked(CostMatrix, shape=(P, G), cells=(p[cells], g[cells], costs[cells]))


def linear_sum_assignment(costs):
    """scipy's ``linear_sum_assignment``, imported on each call so that
    importing lanekit does not load ``scipy.optimize``."""
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment(costs)


def _solve_raw(costs):
    """Max-cardinality, then min-cost pairs via big-M substitution."""
    finite = np.isfinite(costs)
    big = costs[finite].sum() + 1.0
    rows, cols = linear_sum_assignment(np.where(finite, costs, big))
    # The solver returns rows sorted, so the kept pairs are sorted too.
    kept = finite[rows, cols]
    return list(zip(rows[kept].tolist(), cols[kept].tolist()))


def _canonical_pairs(costs, optimum, unit=1.0):
    """Lexicographically smallest sorted pair list achieving the optimum.

    Walks rows in order; a row takes its smallest column that keeps the
    remaining subproblem optimal, or is skipped when none does.  The walk
    is warm-started from ``optimum``, an optimal pair list: a row it matches
    at column c keeps c without a solve (the rest of the current optimum
    stays optimal), so only finite columns left of c are tried, each with
    one sub-solve.  A column that passes replaces the current optimum with
    that sub-solve's pairs.  A row the current optimum leaves unmatched
    tries every finite column.  Totals within 1e-9 of each other, relative
    to the larger of ``unit`` and the optimum's total, tie; ``unit`` is the
    scale ``_solve_component`` applied, so that the walk is the same on a
    scaled matrix.
    """
    cells = costs.tolist()
    finite_cols = [[c for c, cost in enumerate(row) if math.isfinite(cost)] for row in cells]
    card = len(optimum)
    total = sum(cells[r][c] for r, c in optimum)
    tol = 1e-9 * max(unit, abs(total))
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


def _cost_scale(values, shape):
    """1.0, or the power of two that ``_solve_component`` multiplies the
    finite costs ``values`` of a P x G ``shape`` block by.  A big-M total of
    the block is at most P + G + 2 times the sum of its finite costs, and
    that sum at most their count times their largest, so the scale keeps
    that bound below 2 ** ``_MAX_EXPONENT``.  A power of two scales every
    cost exactly, bar costs that fall below the normal float range."""
    exponent = (math.frexp(values.max(initial=0.0))[1] + len(values).bit_length()
                + (sum(shape) + 2).bit_length())
    return math.ldexp(1.0, min(0, _MAX_EXPONENT - exponent))


def _row_blocks(rows, cols, values, n_cols):
    """The closed form of cells that make complete blocks whose cost depends
    on the row only, as (picked, broken): the indices of the picked cells,
    and per cell whether that shape breaks at it.

    The cells are in row-major order.  Each row is keyed by its first
    column, and the cells make such blocks iff each row's cells share one
    cost, each column's rows share one key, and each row holds all of its
    key's columns.  Both hold per connected component, so the picks of a
    component with no broken cell are its own.  A block of R rows and C
    columns picks its min(R, C) cheapest rows by (cost, row), and pairs them
    in row order with its columns in ascending order: the block's i-th
    picked row takes its own i-th cell."""
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(first)
    row_of = np.cumsum(first) - 1
    key, cost = cols[starts], values[starts]
    cell_key = key[row_of]
    col_key = np.full(n_cols, -1)
    col_key[cols] = cell_key
    width = np.bincount(col_key[col_key >= 0], minlength=n_cols)[key]
    length = np.bincount(row_of)
    broken = (values != cost[row_of]) | (col_key[cols] != cell_key) | (length != width)[row_of]
    # Rows by (key, cost, row): fewer than the block's width rank before a
    # picked row.  Picked rows by (key, row) then take their rank's cell.
    order = np.lexsort((cost, key))
    by_key = key[order]
    order = np.sort(order[np.arange(len(order)) - np.searchsorted(by_key, by_key)
                          < width[order]])
    order = order[np.argsort(key[order], kind="stable")]
    by_key = key[order]
    rank = np.arange(len(order)) - np.searchsorted(by_key, by_key)
    # Only a row where the shape breaks may hold fewer cells than its rank.
    held = rank < length[order]
    return starts[order[held]] + rank[held], broken


def _components(rows, cols, n_rows):
    """Per cell, the smallest row of its connected component, where row r is
    node r and column c node ``n_rows`` + c.  Each round hooks every root to
    the smallest root next to its tree, then points every node at its root;
    the rounds stop when every cell's two ends share one root."""
    u, v = rows, cols + n_rows
    parent = np.arange(n_rows + cols.max(initial=-1) + 1)
    while True:
        low = np.minimum(parent[u], parent[v])
        np.minimum.at(parent, parent[u], low)
        np.minimum.at(parent, parent[v], low)
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        if np.array_equal(parent[u], parent[v]):
            return parent[u]


def _solve_component(rows, cols, values):
    """The pairs, as two index arrays, of one connected component's cells,
    given in row-major order: the dense solve of the component's own block,
    scaled by ``_cost_scale``, then up to 24 x 24 ``_canonical_pairs``."""
    row_ids, local_rows = np.unique(rows, return_inverse=True)
    col_ids, local_cols = np.unique(cols, return_inverse=True)
    shape = (len(row_ids), len(col_ids))
    scale = _cost_scale(values, shape)
    costs = np.full(shape, np.inf)
    costs[local_rows, local_cols] = values * scale
    pairs = _solve_raw(costs)
    if max(shape) <= _CANONICAL_LIMIT:
        pairs = _canonical_pairs(costs, pairs, scale)
    r, c = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)).reshape(-1, 2).T
    return row_ids[r], col_ids[c]


def _closed_forms(rows, cols, values, shape):
    """(picked, rest): the cells that closed forms pick, and the cells of
    each component that no closed form holds for, one index array each.
    Each component takes the first form that holds for it: single cells,
    blocks whose cost depends on the row only, then their transpose.  A
    form that holds for the whole matrix is taken at once; components are
    labelled only when none does."""
    P, G = shape
    if (rows[1:] > rows[:-1]).all() and np.bincount(cols, minlength=1).max() < 2:
        return np.arange(len(rows)), []
    picked, broken = _row_blocks(rows, cols, values, G)
    if not broken.any():
        return picked, []
    order = np.lexsort((rows, cols))
    by_col, col_broken = _row_blocks(cols[order], rows[order], values[order], P)
    by_col, col_broken = order[by_col], order[col_broken]
    if len(col_broken) == 0:
        return by_col, []
    component = _components(rows, cols, P)
    row_bad, col_bad = np.zeros(P, dtype=bool), np.zeros(P, dtype=bool)
    row_bad[component[broken]] = True
    col_bad[component[col_broken]] = True
    picked = np.concatenate([picked[~row_bad[component[picked]]],
                             by_col[(row_bad & ~col_bad)[component[by_col]]]])
    rest = np.flatnonzero((row_bad & col_bad)[component])
    rest = rest[np.argsort(component[rest], kind="stable")]
    bounds = np.flatnonzero(component[rest][1:] != component[rest][:-1]) + 1
    return picked, np.split(rest, bounds) if len(rest) else []


def solve_assignment(cost):
    """One-to-one assignment: max cardinality, then min total cost, then the
    lexicographically smallest sorted pair list.

    The finite cells split into connected components, and each is solved
    on its own; the matrix's pairs are the union of its components'.  A
    component takes the first of three closed forms that holds for it, and
    no solver (``_closed_forms``; each form is first tried on the whole
    matrix, and components are labelled only when none holds for all of
    it):

    - a single cell, which is its own pair;
    - a complete block whose cost depends on the row only (a one-column
      star, or a GT keypoint's copies), which takes its
      min(R, C) cheapest rows by (cost, row), paired in row order with its
      columns in ascending order;
    - the transpose of that, a complete block whose cost depends on the
      column only (a one-row star takes its cheapest column by (cost,
      column)).

    Closed forms compare costs exactly.  Any other component is solved by
    one solver, scipy's dense ``linear_sum_assignment``, on its own block
    (``_solve_component``).  Up to 24 x 24 its tied optima resolve to the
    lexicographically smallest pair list: the tie-break starts from the
    solver's optimum, and totals within 1e-9 of each other, relative to the
    component's total, tie.  A component whose optimum is already the
    smallest costs no solve beyond the first.  Above 24 x 24 the optimum
    among ties is the dense solver's own, deterministic but not
    necessarily the smallest.

    Where a component's largest finite cost, times their count, times its
    rows plus columns plus 2 could reach 2 ** 40 (about 1.1e12), a big-M
    total could lose big-M's margin of 1 or overflow.  Such a component is
    first multiplied by a power of two (``_cost_scale``) and solved so
    scaled; any other is solved as given.

    A known limit, not yet mended: the dense solve fills a component's
    infeasible cells with big-M, the sum of its finite costs plus 1, so its
    totals hold about 2 ** -52 of big-M in precision.  Costs that differ by
    less vanish in them, and the result need not be optimal: [[inf, 1.5,
    inf], [0, 2 ** 61, 1.375], [inf, 0, inf]], one component, gives ((0, 1),
    (1, 0)), total 1.5, where ((1, 0), (2, 1)) totals 0.
    """
    cost = cost if isinstance(cost, CostMatrix) else CostMatrix(cost)
    rows, cols, values = cost.cells
    picked, rest = _closed_forms(rows, cols, values, cost.shape)
    pairs = [(rows[picked], cols[picked])]
    pairs += [_solve_component(rows[cells], cols[cells], values[cells]) for cells in rest]
    p, g = (np.concatenate(side) for side in zip(*pairs))
    order = np.argsort(p, kind="stable")
    return _matching(p[order], g[order], *cost.shape)


def _matching(rows, cols, proposal_count, gt_count):
    """The Matching of the solver's pairs (``rows[k]``, ``cols[k]``), index
    arrays sorted by row with no row twice, with every index they leave out
    unmatched.  So Matching's rule holds and is not run again."""
    free_proposals = np.ones(proposal_count, dtype=bool)
    free_gts = np.ones(gt_count, dtype=bool)
    free_proposals[rows] = free_gts[cols] = False
    return unchecked(Matching, pairs=tuple(zip(rows.tolist(), cols.tolist())),
                     unmatched_proposals=tuple(np.flatnonzero(free_proposals).tolist()),
                     unmatched_gts=tuple(np.flatnonzero(free_gts).tolist()))


def match_keypoints(proposals, gts, repeats_n=None, strongest=False,
                    lambda_dist=1.0, lambda_cls=1.0):
    """Matches proposals against GT keypoints, duplicated unless strongest.

    Each GT keypoint is duplicated ``repeats_n`` times, by default the
    proposal set's own ``repeats_n`` (1 for a sequence of Keypoints).  The
    copies are cells, not keypoints: the cost matrix is built on the G
    keypoints, and each of its cells (p, g) becomes the ``repeats_n`` cells
    (p, g * repeats_n + k) of equal cost.  They stay in row-major order, so
    the matrix is the one built on a list holding each keypoint that many
    times over."""
    if repeats_n is not None:
        repeats_n = check_int(repeats_n, "repeats_n", 1)
    proposals = as_proposal_set(proposals)
    gts = list(gts)
    repeats = 1 if strongest else repeats_n or proposals.repeats_n
    cost = build_cost_matrix(proposals, gts, lambda_dist, lambda_cls)
    (P, G), (rows, cols, values) = cost.shape, cost.cells
    copies = (cols[:, np.newaxis] * repeats + np.arange(repeats)).reshape(-1)
    cost = unchecked(CostMatrix, shape=(P, G * repeats),
                     cells=(np.repeat(rows, repeats), copies, np.repeat(values, repeats)))
    pairs = solve_assignment(cost).pairs
    p, g = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)).reshape(-1, 2).T
    return _matching(p, g // repeats, len(proposals), len(gts))


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
