import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from lanekit import matching
from lanekit.errors import ValidationError
from lanekit.geometry import build_custom_grid
from lanekit.matching import (
    MAX_ANCHOR_DIST_M,
    MAX_REFINED_DIST_M,
    CostMatrix,
    GroundTruthKeypoint,
    Matching,
    build_connection_targets,
    build_cost_matrix,
    match_keypoints,
    solve_assignment,
)
from lanekit.nms import Keypoint, ProposalSet
from lanekit.oracles import oracle_assignment
from lanekit.synthetic import SceneSpec, generate_scene, gt_keypoints

ROW_Y = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


def proposal(row, x, dx=0.0, class_scores=(1.0,)):
    return Keypoint(grid_index=(row, 0), x=x, y=ROW_Y[row], dx=dx,
                    class_scores=list(class_scores))


def gt(row, x, lane_id=0, order=0, category=0):
    return GroundTruthKeypoint(lane_id=lane_id, order_in_lane=order, x=x,
                               y=ROW_Y[row], z=0.0, category=category, row=row)


def spatially_feasible(kp, g):
    return (abs(kp.refined_x - g.x) <= MAX_REFINED_DIST_M
            and abs(kp.x - g.x) <= MAX_ANCHOR_DIST_M
            and kp.grid_index[0] == g.row)


class TestCostMatrix:
    def test_exact_hit_costs_zero(self):
        cm = build_cost_matrix([proposal(1, 2.0, class_scores=[0.0, 1.0])],
                               [gt(1, 2.0, category=1)])
        assert cm.costs[0, 0] == 0.0

    def test_different_row_infeasible(self):
        cm = build_cost_matrix([proposal(2, 2.0)], [gt(1, 2.0)])
        assert np.isinf(cm.costs[0, 0])

    def test_refined_rule_dominates_anchor_rule(self):
        # anchor 0.8 m off (fine), refined pushed 1.2 m off (too far)
        cm = build_cost_matrix([proposal(0, 0.8, dx=0.4)], [gt(0, 0.0)])
        assert np.isinf(cm.costs[0, 0])

    def test_anchor_rule_dominates_refined_rule(self):
        # refined 0.7 m off (fine), anchor 2.5 m off (too far)
        cm = build_cost_matrix([proposal(0, 2.5, dx=-1.8)], [gt(0, 0.0)])
        assert np.isinf(cm.costs[0, 0])

    def test_cost_combines_distance_and_class(self):
        kp = proposal(0, 0.6, class_scores=[0.2, 0.7])
        cm = build_cost_matrix([kp], [gt(0, 0.0, category=1)],
                               lambda_dist=2.0, lambda_cls=3.0)
        assert cm.costs[0, 0] == pytest.approx(2.0 * 0.6 + 3.0 * 0.3)

    def test_missing_row_falls_back_to_exact_y(self):
        g = GroundTruthKeypoint(lane_id=0, order_in_lane=0, x=0.0, y=ROW_Y[1])
        assert np.isfinite(build_cost_matrix([proposal(1, 0.0)], [g]).costs[0, 0])
        assert np.isinf(build_cost_matrix([proposal(2, 0.0)], [g]).costs[0, 0])

    @pytest.mark.parametrize("name", ["lambda_dist", "lambda_cls"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    def test_weights_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValidationError, match=name):
            build_cost_matrix([proposal(0, 0.0)], [gt(0, 0.0)], **{name: value})

    def test_empty_inputs(self):
        assert build_cost_matrix([], [gt(0, 0.0)]).shape == (0, 1)
        assert build_cost_matrix([proposal(0, 0.0)], []).shape == (1, 0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[-1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1e-300])
    def test_only_plus_inf_means_infeasible(self, bad):
        # NaN and -inf were read as infeasible, so this solved to the anti-diagonal.
        with pytest.raises(ValidationError, match=rf"^costs\[0\] must be non-negative, got {bad}$"):
            solve_assignment([[bad, 1.0], [2.0, bad]])
        assert solve_assignment([[np.inf, 1.0], [2.0, np.inf]]).pairs == ((0, 1), (1, 0))


def reference_costs(proposals, gts, lambda_dist=1.0, lambda_cls=1.0):
    """The per-pair form of build_cost_matrix: Keypoint properties and one
    class lookup per (proposal, GT) cell."""
    P, G = len(proposals), len(gts)
    costs = np.full((P, G), np.inf)
    if P == 0 or G == 0:
        return costs
    refined = np.array([k.refined_x for k in proposals])
    anchor = np.array([k.x for k in proposals])
    prop_row = np.array([k.grid_index[0] for k in proposals])
    prop_y = np.array([k.y for k in proposals])
    gt_x = np.array([g.x for g in gts])
    gt_y = np.array([g.y for g in gts])
    gt_row = np.array([-1 if g.row is None else g.row for g in gts])
    refined_dist = np.abs(refined[:, None] - gt_x[None, :])
    anchor_dist = np.abs(anchor[:, None] - gt_x[None, :])
    same_row = np.where(gt_row[None, :] >= 0, prop_row[:, None] == gt_row[None, :],
                        prop_y[:, None] == gt_y[None, :])
    feasible = (refined_dist <= MAX_REFINED_DIST_M) \
        & (anchor_dist <= MAX_ANCHOR_DIST_M) & same_row
    cls_term = np.empty((P, G))
    for j, g in enumerate(gts):
        for i, k in enumerate(proposals):
            scores = k.class_scores
            prob = float(scores[g.category]) if g.category < scores.size else 0.0
            cls_term[i, j] = 1.0 - prob
    return np.where(feasible, lambda_dist * refined_dist + lambda_cls * cls_term, np.inf)


def random_case(rng, n_props=30, n_gts=12, categories=4):
    """Proposals on six rows whose class scores share one width, sometimes
    0, and GTs whose categories run past it; some GTs carry no row and pair
    by exact y."""
    width = int(rng.integers(0, categories + 1))
    props = []
    for _ in range(n_props):
        props.append(Keypoint(grid_index=(int(rng.integers(0, 6)), 0),
                              x=float(rng.integers(-8, 9)) / 2.0, y=ROW_Y[rng.integers(0, 6)],
                              dx=float(rng.uniform(-0.6, 0.6)),
                              fg_score=float(rng.uniform(0, 1)),
                              class_scores=rng.uniform(0, 1, width)))
    gts = []
    for j in range(n_gts):
        row = int(rng.integers(0, 6))
        gts.append(GroundTruthKeypoint(lane_id=j, order_in_lane=0,
                                       x=float(rng.integers(-8, 9)) / 2.0, y=ROW_Y[row],
                                       category=int(rng.integers(0, categories + 3)),
                                       row=None if rng.random() < 0.25 else row))
    return props, gts


class TestCostMatrixReference:
    def test_bitwise_equal_to_per_pair_loop(self):
        rng = np.random.default_rng(97)
        for _ in range(40):
            props, gts = random_case(rng)
            lambdas = (float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
            want = reference_costs(props, gts, *lambdas)
            for given_props in (props, ProposalSet(props)):
                got = build_cost_matrix(given_props, gts, *lambdas).costs
                assert np.array_equal(got, want)

    def test_duplicated_gts_and_pairs(self):
        rng = np.random.default_rng(98)
        for repeats_n in (1, 2, 3):
            for _ in range(10):
                props, gts = random_case(rng, n_props=16, n_gts=6)
                duplicated = [g for g in gts for _ in range(repeats_n)]
                want = reference_costs(props, duplicated)
                got = build_cost_matrix(ProposalSet(props), duplicated).costs
                assert np.array_equal(got, want)
                pairs = tuple((p, g // repeats_n)
                              for p, g in solve_assignment(want).pairs)
                assert match_keypoints(props, gts, repeats_n=repeats_n).pairs \
                    == tuple(sorted(pairs))
                assert match_keypoints(props, gts, repeats_n=repeats_n, strongest=True).pairs \
                    == solve_assignment(reference_costs(props, gts)).pairs

    def test_a_cost_past_the_float_range_is_no_cell(self):
        # 0.9e308 + 0.9e308 overflows to inf, which the dense view reads as
        # infeasible; 0 + 0.9e308 does not.
        props = [proposal(0, 0.9, class_scores=[0.1]), proposal(0, 0.0, class_scores=[0.1])]
        with np.errstate(over="ignore"):
            built = build_cost_matrix(props, [gt(0, 0.0)], 1e308, 1e308)
        assert [a.tolist() for a in built.cells] == [[1], [0], [1e308 * (1 - 0.1)]]
        assert built.costs.tolist() == [[np.inf], [1e308 * (1 - 0.1)]]

    def test_category_past_scores_costs_one(self):
        kp = proposal(0, 0.0, class_scores=[0.1, 0.9])
        costs = build_cost_matrix([kp], [gt(0, 0.0, category=c) for c in range(4)]).costs
        assert costs.tolist() == [[0.9, 0.09999999999999998, 1.0, 1.0]]

    def test_negative_gt_category_rejected(self):
        with pytest.raises(ValidationError, match="category"):
            gt(0, 0.0, category=-1)


class TestSolveAssignment:
    def test_single_feasible_cell(self):
        m = solve_assignment(np.array([[0.25]]))
        assert m.pairs == ((0, 0),)
        assert m.unmatched_proposals == () and m.unmatched_gts == ()

    def test_all_infeasible(self):
        m = solve_assignment(np.full((2, 3), np.inf))
        assert m.pairs == ()
        assert m.unmatched_proposals == (0, 1)
        assert m.unmatched_gts == (0, 1, 2)

    def test_three_by_three_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            costs = rng.random((3, 3))
            got = solve_assignment(costs)
            assert list(got.pairs) == oracle_assignment(costs)

    def test_cardinality_beats_cost(self):
        costs = np.array([[1.0, 5.0], [np.inf, 5.0]])
        assert solve_assignment(costs).pairs == ((0, 0), (1, 1))

    def test_equal_cost_ties_lexicographic(self):
        assert solve_assignment(np.ones((2, 2))).pairs == ((0, 0), (1, 1))
        assert solve_assignment(np.array([[2.0, 1.0], [2.0, 1.0]])).pairs \
            == ((0, 0), (1, 1))

    def test_rectangular(self):
        costs = np.array([[5.0, 1.0, 9.0, 9.0], [9.0, 9.0, 9.0, 2.0]])
        m = solve_assignment(costs)
        assert m.pairs == ((0, 1), (1, 3))
        assert m.unmatched_gts == (0, 2)
        mt = solve_assignment(costs.T)
        assert mt.pairs == ((1, 0), (3, 1))
        assert mt.unmatched_proposals == (0, 2)

    def test_large_matrix_beyond_canonical_limit(self):
        rng = np.random.default_rng(43)
        costs = np.where(rng.random((30, 30)) < 0.2, np.inf, rng.random((30, 30)))
        m = solve_assignment(costs)
        assert all(np.isfinite(costs[p, g]) for p, g in m.pairs)
        assert list(m.pairs) == sorted(m.pairs)
        assert len({p for p, _ in m.pairs}) == len(m.pairs)
        assert len({g for _, g in m.pairs}) == len(m.pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7),
           st.lists(st.integers(0, 65), min_size=1, max_size=49))
    def test_matches_oracle_exactly(self, rows, cols, cells):
        # costs on a coarse grid (multiples of 1/32, 65 -> infeasible) so
        # optima tie exactly, never within-tolerance
        vals = [np.inf if c == 65 else c / 32.0 for c in cells]
        vals = (vals * 49)[: rows * cols]
        costs = np.array(vals).reshape(rows, cols)
        got = solve_assignment(costs)
        want = oracle_assignment(costs)
        assert list(got.pairs) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.floats(0.0, 0.9),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 32)),
                    min_size=49, max_size=49))
    def test_sparse_quantised_matches_oracle(self, rows, cols, infeasible, cells):
        # Many infeasible cells and costs on a 1/32 grid leave rows with
        # finite, tied columns left of their optimal column, so the
        # warm-started walk has to sub-solve them.
        vals = [np.inf if u < infeasible else k / 32.0 for u, k in cells]
        costs = np.array(vals[: rows * cols]).reshape(rows, cols)
        want = oracle_assignment(costs)
        assert list(solve_assignment(costs).pairs) == want

    @pytest.mark.parametrize("shape", [(3, 6), (6, 3), (1, 5), (5, 1), (0, 4), (4, 0)])
    @pytest.mark.parametrize("empty", ["none", "rows", "cols", "all"])
    def test_matches_oracle_on_rectangles_and_empty_lines(self, shape, empty):
        # "rows"/"cols" leave every other row/column with no finite cell;
        # "all" makes every cell infeasible.
        rng = np.random.default_rng(sum(shape) * 7 + len(empty))
        for _ in range(20):
            costs = np.where(rng.random(shape) < 0.4, np.inf,
                             rng.integers(0, 8, shape) / 8.0)
            if empty == "rows":
                costs[::2] = np.inf
            elif empty == "cols":
                costs[:, ::2] = np.inf
            elif empty == "all":
                costs[:] = np.inf
            m = solve_assignment(costs)
            assert list(m.pairs) == oracle_assignment(costs)
            assert m.unmatched_proposals == tuple(
                sorted(set(range(shape[0])) - {p for p, _ in m.pairs}))
            assert m.unmatched_gts == tuple(
                sorted(set(range(shape[1])) - {g for _, g in m.pairs}))

    def test_optimum_already_smallest_needs_one_solve(self, monkeypatch):
        calls = []

        def counting_lsa(costs):
            calls.append(costs.shape)
            return linear_sum_assignment(costs)

        monkeypatch.setattr(matching, "linear_sum_assignment", counting_lsa)
        costs = np.where(np.eye(6, dtype=bool), 0.5, np.inf)
        costs[0, 3] = 0.25
        assert solve_assignment(costs).pairs == tuple((i, i) for i in range(6))
        # rows and columns 0 and 3 make the one component a solver takes;
        # the other four cells are their own components
        assert calls == [(2, 2)]
        # a live finite column left of the optimal one costs one sub-solve
        calls.clear()
        assert solve_assignment(np.array([[1.0, 0.5], [0.5, 1.0]])).pairs \
            == ((0, 1), (1, 0))
        assert calls == [(2, 2), (1, 1)]


def dense_optimum(costs):
    """(cardinality, total cost) of the max-cardinality, min-cost matching,
    by scipy's dense solver on the big-M fill of the whole matrix."""
    finite = np.isfinite(costs)
    rows, cols = linear_sum_assignment(np.where(finite, costs, costs[finite].sum() + 1.0))
    kept = finite[rows, cols]
    return int(kept.sum()), costs[rows[kept], cols[kept]].sum()


class TestAboveTheCanonicalLimit:
    """A component above 24 x 24 is solved dense on its own block, with no
    tie-break walk, so it promises the optimum, not the smallest of tied
    optima.  The matrices here split into components of every kind."""

    @pytest.mark.parametrize("shape", [(25, 25), (25, 60), (60, 25), (33, 47), (47, 33),
                                       (60, 60)])
    @pytest.mark.parametrize("density", [0.02, 0.1, 0.4, 0.8])
    @pytest.mark.parametrize("empty", ["none", "rows", "cols", "all"])
    def test_matches_the_dense_optimum(self, shape, density, empty):
        # Costs k/8 tie often and sum exactly, so the totals compare with ==.
        rng = np.random.default_rng([*shape, int(density * 100), ord(empty[0])])
        for _ in range(5):
            costs = np.where(rng.random(shape) < density,
                             rng.integers(0, 17, shape) / 8.0, np.inf)
            if empty == "rows":
                costs[rng.random(shape[0]) < 0.3] = np.inf
            elif empty == "cols":
                costs[:, rng.random(shape[1]) < 0.3] = np.inf
            elif empty == "all":
                costs[:] = np.inf
            m = solve_assignment(costs)
            assert (len(m.pairs), sum(costs[p, g] for p, g in m.pairs)) \
                == dense_optimum(costs)
            assert all(np.isfinite(costs[p, g]) for p, g in m.pairs)
            assert list(m.pairs) == sorted(m.pairs)
            assert len({p for p, _ in m.pairs}) == len({g for _, g in m.pairs}) \
                == len(m.pairs)
            assert m.unmatched_proposals == tuple(
                sorted(set(range(shape[0])) - {p for p, _ in m.pairs}))
            assert m.unmatched_gts == tuple(
                sorted(set(range(shape[1])) - {g for _, g in m.pairs}))

    def test_zero_costs_are_edges(self):
        # The chain makes one 30 x 30 component whose only full matching is
        # the diagonal of zeros.
        chain = np.eye(30, dtype=bool) | np.eye(30, k=1, dtype=bool)
        costs = np.where(chain, 0.0, np.inf)
        m = solve_assignment(costs)
        assert m.pairs == tuple((i, i) for i in range(30))
        assert m.unmatched_proposals == m.unmatched_gts == ()

    def test_a_large_grid_scene_reaches_the_solver_above_the_limit(self, monkeypatch):
        """Eight noisy lanes on the large grid: the duplicated matrix holds
        components above 24 x 24 that take no closed form, and the matching
        is still optimal and feasible."""
        grid = build_custom_grid(72, 128)
        gt_lanes, frame = generate_scene(SceneSpec(seed=0, lane_count=8, sigma_x=1.0,
                                                   proposals_per_target=4, dropout_p=0.1),
                                         grid)
        props, gts = frame.keypoints, gt_keypoints(gt_lanes, grid)
        duplicated = build_cost_matrix(props, [g for g in gts for _ in range(props.repeats_n)])
        rows, cols, _ = duplicated.cells
        component = matching._components(rows, cols, len(props))
        sides = [max(len(np.unique(rows[component == c])), len(np.unique(cols[component == c])))
                 for c in np.unique(component)]
        assert max(sides) > matching._CANONICAL_LIMIT
        solved = []
        solve = matching._solve_component
        monkeypatch.setattr(matching, "_solve_component", lambda rows, cols, values: (
            solved.append(max(len(set(rows.tolist())), len(set(cols.tolist()))))
            or solve(rows, cols, values)))
        m = match_keypoints(props, gts)
        assert max(solved) > matching._CANONICAL_LIMIT
        card, total = dense_optimum(duplicated.costs)
        costs = build_cost_matrix(props, gts).costs
        assert len(m.pairs) == card
        assert sum(costs[p, g] for p, g in m.pairs) == pytest.approx(total, rel=1e-12)
        for p, g in m.pairs:
            assert spatially_feasible(props[p], gts[g])

    def test_built_and_dense_matrices_solve_alike(self):
        # The cells of a built matrix are in row-major order, as those read
        # from a dense array are, so the solver sees one graph either way.
        rng = np.random.default_rng(101)
        for _ in range(10):
            props, gts = random_case(rng, n_props=40, n_gts=30)
            built = build_cost_matrix(props, gts)
            dense = CostMatrix(built.costs)
            for got, want in zip(built.cells, dense.cells):
                assert np.array_equal(got, want)
            assert solve_assignment(built).pairs == solve_assignment(dense).pairs

    def test_a_built_matrix_is_solved_without_its_dense_view(self):
        rng = np.random.default_rng(102)
        props, gts = random_case(rng, n_props=40, n_gts=30)
        built = build_cost_matrix(props, gts)
        solve_assignment(built)
        assert "costs" not in vars(built)
        assert np.array_equal(built.costs, reference_costs(props, gts))


class TestCostsNearTheFloatLimit:
    """Costs so large that big-M loses its margin of 1 or overflows (finite
    costs up to 1e308) are solved as the matrix scaled by a power of two."""

    @pytest.mark.parametrize("n", [3, 30])
    def test_three_huge_cells_pair_up(self, n):
        # Solved as whole matrices, both raised.  Either is now one 2 x 2
        # component.
        costs = np.full((n, n), np.inf)
        costs[0, 0] = costs[0, 1] = costs[1, 0] = 1e308
        m = solve_assignment(costs)
        assert m.pairs == ((0, 1), (1, 0))
        assert m.unmatched_gts == tuple(range(2, n))

    def test_a_huge_chain_above_the_canonical_limit_pairs_up(self):
        # One 30 x 30 component, a chain whose only full matching is the
        # diagonal: the dense solver runs on the scaled block.
        chain = np.eye(30, dtype=bool) | np.eye(30, k=1, dtype=bool)
        m = solve_assignment(np.where(chain, 1e308, np.inf))
        assert m.pairs == tuple((i, i) for i in range(30))

    def test_huge_weights_match_as_smaller_ones_do(self):
        props = [proposal(0, x, class_scores=(0.0,)) for x in (2.3, 2.1, 1.8)]
        gts = [gt(0, 2.0), gt(3, 0.0)]
        matched = [match_keypoints(props, gts, strongest=True, lambda_dist=w, lambda_cls=w)
                   for w in (2.5e307, 6.7e307)]
        assert [(m.pairs, m.unmatched_proposals, m.unmatched_gts) for m in matched] \
            == [(((1, 0),), (0, 2), (1,))] * 2

    def test_costs_past_the_float_range_are_no_cells(self):
        props = [proposal(0, x, class_scores=(0.0,)) for x in (2.3, 2.1)]
        built = build_cost_matrix(props, [gt(0, 2.0)], 1.7e308, 1.7e308)
        assert np.isposinf(built.costs).all()
        assert match_keypoints(props, [gt(0, 2.0)], strongest=True, lambda_dist=1.7e308,
                               lambda_cls=1.7e308).pairs == ()

    def test_agrees_with_the_oracle_on_the_scaled_costs(self):
        rng = np.random.default_rng(307)
        scaled = 0
        for _ in range(300):
            # Multiples of one power of two: totals are exact, ties are common.
            shape = tuple(rng.integers(1, 8, 2))
            unit = np.ldexp(1.0, rng.choice([-3, 900, 1000, 1019]))
            costs = rng.integers(0, 16, shape) * unit
            costs[rng.random(shape) < 0.25] = np.inf
            matrix = CostMatrix(costs)
            scale = matching._cost_scale(matrix.cells[2], matrix.shape)
            scaled += scale < 1.0
            assert solve_assignment(costs).pairs == tuple(oracle_assignment(costs * scale))
        assert 100 < scaled < 300

    def test_small_costs_beside_huge_ones_still_decide(self):
        # Scaled by 2 ** -32, the small costs differ by less than 1e-9; the
        # tie tolerance scales with them, so they are not taken as ties.
        u = 2.0 ** 60
        costs = np.array([[np.inf, 13 * u, 1.625], [3 * u, 10 * u, 0.0],
                          [np.inf, 1.125, np.inf], [1.75, 11 * u, np.inf]])
        assert solve_assignment(costs).pairs == tuple(oracle_assignment(costs)) \
            == ((1, 2), (2, 1), (3, 0))

    def test_costs_far_below_big_m_still_decide(self):
        # Solved as one dense 3 x 3 matrix, this gave ((0, 2), (1, 0)), total
        # 1.625: its all-infinite column took big-M.  That column is in no
        # component, and the 3 x 2 component's cells are all finite, so no
        # big-M enters its totals.
        u = 2.0 ** 60
        costs = np.array([[u, np.inf, 1.625], [0.0, np.inf, 2 * u], [0.0, np.inf, 1.375]])
        assert solve_assignment(costs).pairs == tuple(oracle_assignment(costs)) \
            == ((1, 0), (2, 2))

    @pytest.mark.xfail(strict=True, reason="costs far below big-M vanish in the dense "
                       "solver's totals; see the known limit in solve_assignment's docstring")
    def test_costs_far_below_big_m_in_one_component_still_decide(self):
        # Known limit: the matrix is one component, its infeasible cells take
        # big-M, and the solver gives ((0, 1), (1, 0)), total 1.5.
        costs = np.array([[np.inf, 1.5, np.inf], [0.0, 2.0 ** 61, 1.375],
                          [np.inf, 0.0, np.inf]])
        assert solve_assignment(costs).pairs == tuple(oracle_assignment(costs)) \
            == ((1, 0), (2, 1))

    @pytest.mark.parametrize("value, scale", [(1e3, 1.0), (1e7, 0.25), (1e16, 2.0 ** -32)])
    def test_only_large_costs_are_scaled(self, value, scale):
        costs = np.full((40, 40), value)
        assert matching._cost_scale(costs.reshape(-1), costs.shape) == scale

    def test_a_cost_past_2_to_the_53_keeps_its_pair(self):
        # big-M = sum + 1 is the sum itself from 2 ** 53, and tied the cell.
        costs = np.array([[np.inf, np.inf], [1e16, np.inf]])
        assert solve_assignment(costs).pairs == ((1, 0),)


def block_diagonal(blocks):
    """The blocks along the diagonal of one matrix, infinite elsewhere, and
    each block's first row and column in it."""
    shape = np.sum([b.shape for b in blocks], axis=0)
    costs = np.full(shape, np.inf)
    offsets = np.cumsum([(0, 0)] + [b.shape for b in blocks[:-1]], axis=0)
    for (r, c), block in zip(offsets, blocks):
        costs[r:r + block.shape[0], c:c + block.shape[1]] = block
    return costs, offsets


class TestComponents:
    """Each connected component of the finite cells is solved on its own by
    one rule: max cardinality, then min cost, then the smallest pair list."""

    @pytest.mark.parametrize("seed", range(4))
    def test_block_diagonal_solves_as_its_blocks(self, seed):
        # Blocks of up to and above 24 x 24, with and without the tie-break
        # walk; the large ones are dense enough to stay one component.
        rng = np.random.default_rng(seed)
        blocks = []
        for rows, cols in [(3, 4), (30, 27), (24, 24), (5, 2), (26, 40), (1, 6)]:
            block = rng.integers(0, 9, (rows, cols)) / 8.0
            block[rng.random((rows, cols)) < 0.6] = np.inf
            blocks.append(block)
        costs, offsets = block_diagonal(blocks)
        want = sorted((r + p, c + g) for (r, c), block in zip(offsets, blocks)
                      for p, g in solve_assignment(block).pairs)
        assert list(solve_assignment(costs).pairs) == want

    @pytest.mark.parametrize("shape", ["cell", "row star", "column star", "copy block"])
    def test_closed_forms_match_the_oracle(self, monkeypatch, shape):
        """Shapes that need no solver, tied (costs k/4) and among infeasible
        cells, beside a second component of any shape; 3000 matrices in all."""
        solved = []
        solve = matching._solve_component
        monkeypatch.setattr(matching, "_solve_component", lambda rows, cols, values: (
            solved.extend(rows.tolist()) or solve(rows, cols, values)))
        rng = np.random.default_rng(["cell", "row star", "column star", "copy block"]
                                    .index(shape))
        for _ in range(750):
            rows, cols = rng.permutation(6), rng.permutation(6)
            height, width = {"cell": (1, 1), "row star": (1, rng.integers(2, 6)),
                             "column star": (rng.integers(2, 6), 1),
                             "copy block": tuple(rng.integers(1, 5, 2))}[shape]
            costs = np.full((6, 6), np.inf)
            costs[np.ix_(rows[:height], cols[:width])] = (
                rng.integers(0, 4, (height, 1) if shape != "row star" else (1, width)) / 4.0)
            # The other rows and columns hold cells of any cost, or none.
            rest = np.ix_(rows[height:], cols[width:])
            costs[rest] = np.where(rng.random(costs[rest].shape) < 0.3,
                                   rng.integers(0, 4, costs[rest].shape) / 4.0, np.inf)
            solved.clear()
            assert list(solve_assignment(costs).pairs) == oracle_assignment(costs)
            # Only the other rows, if any, go to a solver.
            assert not set(solved) & set(rows[:height].tolist())

    def test_stars_of_both_kinds_in_one_matrix(self, monkeypatch):
        # Row 0 is a one-row star and column 2 a one-column star, each of
        # unequal costs: neither closed form holds for the whole matrix, so
        # its components are labelled, and each takes its own form.
        monkeypatch.setattr(matching, "_solve_component", None)
        costs = np.array([[1.0, 0.75, np.inf], [np.inf, np.inf, 0.5],
                          [np.inf, np.inf, 0.25]])
        m = solve_assignment(costs)
        assert m.pairs == ((0, 1), (2, 2)) and list(m.pairs) == oracle_assignment(costs)
        assert m.unmatched_proposals == (1,) and m.unmatched_gts == (0,)

    def test_unrelated_rows_do_not_move_a_block(self):
        """A tied block keeps its pairs when 25 one-cell rows are added.
        Solving the whole matrix, it did not: the 30-odd rows were above the
        canonical limit, and 76 of these 300 blocks got other pairs."""
        rng = np.random.default_rng(15)
        for _ in range(300):
            rows, cols = rng.integers(2, 6, 2)
            block = rng.integers(0, 4, (rows, cols)) / 4.0
            block[rng.random((rows, cols)) < 0.3] = np.inf
            costs, _ = block_diagonal([block] + [np.full((1, 1), 0.5)] * 25)
            want = oracle_assignment(block)
            assert list(solve_assignment(block).pairs) == want
            assert list(solve_assignment(costs).pairs) \
                == want + [(rows + k, cols + k) for k in range(25)]


class TestMatching:
    def test_int64_arrays_equal_lists_of_tuples(self):
        from_arrays = Matching(pairs=np.array([[3, 2], [0, 1]], np.int64),
                               unmatched_proposals=np.array([2, 1], np.int64),
                               unmatched_gts=np.array([0], np.int64))
        from_lists = Matching(pairs=[(3, 2), (0, 1)], unmatched_proposals=[2, 1],
                              unmatched_gts=[0])
        for field in ("pairs", "unmatched_proposals", "unmatched_gts"):
            assert getattr(from_arrays, field) == getattr(from_lists, field)
        assert from_arrays.pairs == ((0, 1), (3, 2))
        assert all(type(i) is int for pair in from_arrays.pairs for i in pair)
        assert all(type(i) is int
                   for i in from_arrays.unmatched_proposals + from_arrays.unmatched_gts)

    @pytest.mark.parametrize("field, index, message", [
        ("unmatched_proposals", (0, 3), "^unmatched_proposals: proposal 0 is also in a pair$"),
        ("unmatched_gts", (5, 1), "^unmatched_gts: gt 1 is also in a pair$"),
        ("unmatched_proposals", (3, 2, 3), "^unmatched_proposals: proposal 3 is listed twice$"),
        ("unmatched_gts", [2, 2], "^unmatched_gts: gt 2 is listed twice$")])
    def test_an_unmatched_index_in_a_pair_or_listed_twice_is_rejected(self, field, index,
                                                                     message):
        parts = {"pairs": ((0, 0), (1, 1)), "unmatched_proposals": (), "unmatched_gts": ()}
        parts[field] = index
        with pytest.raises(ValidationError, match=message):
            Matching(**parts)

    @pytest.mark.parametrize("pairs, field, message", [
        ([(0, 1), (2, -1)], "pairs", r"^pairs\[1\] must be non-negative, got -1$"),
        ([(0, 1), (0, 2)], "pairs", "^pairs: a proposal may appear in at most one pair$")])
    def test_bad_pairs_keep_their_messages(self, pairs, field, message):
        with pytest.raises(ValidationError, match=message):
            Matching(pairs=pairs, unmatched_proposals=(), unmatched_gts=())

    def test_negative_unmatched_index_names_its_row(self):
        with pytest.raises(ValidationError,
                           match=r"^unmatched_gts\[1\] must be non-negative, got -3$"):
            Matching(pairs=(), unmatched_proposals=(), unmatched_gts=(2, -3))


class TestMatchKeypoints:
    def test_duplication_matches_both_proposals(self):
        props = [proposal(1, 1.9), proposal(1, 2.1)]
        m = match_keypoints(props, [gt(1, 2.0)], repeats_n=2, strongest=False)
        assert m.pairs == ((0, 0), (1, 0))

    def test_strongest_matches_one(self):
        props = [proposal(1, 1.95), proposal(1, 2.2)]
        m = match_keypoints(props, [gt(1, 2.0)], repeats_n=2, strongest=True)
        assert m.pairs == ((0, 0),)
        assert m.unmatched_proposals == (1,)

    def test_zero_gts(self):
        m = match_keypoints([proposal(0, 0.0)], [], repeats_n=2)
        assert m.pairs == ()
        assert m.unmatched_proposals == (0,)

    def test_duplicate_indices_collapse_to_original(self):
        props = [proposal(0, 0.1), proposal(0, -0.1),
                 proposal(0, 4.1), proposal(0, 3.9)]
        gts = [gt(0, 0.0, lane_id=0), gt(0, 4.0, lane_id=1)]
        m = match_keypoints(props, gts, repeats_n=2, strongest=False)
        assert m.pairs == ((0, 0), (1, 0), (2, 1), (3, 1))
        assert m.unmatched_gts == ()

    def test_unmatched_gt_reported(self):
        m = match_keypoints([proposal(0, 0.0)], [gt(0, 0.0), gt(3, 5.0)],
                            repeats_n=2, strongest=False)
        assert m.unmatched_gts == (1,)

    def test_repeats_n_defaults_to_the_proposal_sets_own(self):
        rng = np.random.default_rng(99)
        for repeats_n in (1, 2, 3):
            props, gts = random_case(rng, n_props=16, n_gts=6)
            proposals = ProposalSet(props, repeats_n=repeats_n)
            for strongest in (False, True):
                got = match_keypoints(proposals, gts, strongest=strongest)
                want = match_keypoints(proposals, gts, repeats_n=repeats_n, strongest=strongest)
                assert (got.pairs, got.unmatched_proposals, got.unmatched_gts) \
                    == (want.pairs, want.unmatched_proposals, want.unmatched_gts)
        # Two proposals on one GT keypoint: a set of repeats_n 2 matches
        # both, a sequence of Keypoints (repeats_n 1) only one.
        props = [proposal(1, 1.9), proposal(1, 2.1)]
        assert match_keypoints(ProposalSet(props, repeats_n=2), [gt(1, 2.0)]).pairs \
            == ((0, 0), (1, 0))
        assert match_keypoints(props, [gt(1, 2.0)]).pairs == ((0, 0),)

    @pytest.mark.parametrize("repeats_n", [1, 2, 3, 4, np.int64(3)])
    @pytest.mark.parametrize("n_props, n_gts", [(16, 6), (40, 12)])
    def test_expanded_cells_equal_the_duplicated_list(self, monkeypatch, repeats_n, n_props,
                                                      n_gts):
        """The matrix solved, up to and above 24 x 24, is bit for bit the one
        built on each GT keypoint ``repeats_n`` times over, and the pairs
        are that matrix's."""
        solved = []

        def recording_solve(cost):
            solved.append(cost)
            return solve_assignment(cost)

        monkeypatch.setattr(matching, "solve_assignment", recording_solve)
        rng = np.random.default_rng(100 + n_props)
        for _ in range(5):
            props, gts = random_case(rng, n_props=n_props, n_gts=n_gts)
            got = match_keypoints(props, gts, repeats_n=repeats_n)
            want = build_cost_matrix(props, [g for g in gts for _ in range(repeats_n)])
            assert solved[-1].shape == want.shape
            assert all(type(n) is int for n in solved[-1].shape)
            for have, expected in zip(solved[-1].cells, want.cells, strict=True):
                assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()
            pairs = sorted((p, g // repeats_n) for p, g in solve_assignment(want).pairs)
            assert got.pairs == tuple(pairs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_reported_pairs_respect_all_constraints(self, seed, strongest):
        rng = np.random.default_rng(seed)
        props = [proposal(int(rng.integers(0, 6)), float(rng.uniform(-5, 5)),
                          dx=float(rng.uniform(-0.5, 0.5)))
                 for _ in range(8)]
        gts = [gt(int(rng.integers(0, 6)), float(rng.uniform(-5, 5)),
                  lane_id=i, order=0) for i in range(4)]
        m = match_keypoints(props, gts, repeats_n=2, strongest=strongest)
        for p, g in m.pairs:
            assert spatially_feasible(props[p], gts[g])
        if strongest:
            matched_gts = [g for _, g in m.pairs]
            assert len(set(matched_gts)) == len(matched_gts)


class TestConnectionTargets:
    @staticmethod
    def lane(xs, row0=0, lane_id=0):
        return [gt(row0 + i, x, lane_id=lane_id, order=i) for i, x in enumerate(xs)]

    def test_full_lane_chain(self):
        gts = self.lane([0.0, 0.2, 0.4, 0.6])
        matching = Matching(pairs=((5, 0), (2, 1), (7, 2), (1, 3)),
                            unmatched_proposals=(), unmatched_gts=())
        targets = build_connection_targets(matching, gts, 8)
        want = np.zeros((8, 8))
        want[5, 2] = want[2, 7] = want[7, 1] = 1.0
        assert_allclose(targets, want)

    def test_unmatched_middle_is_skipped(self):
        gts = self.lane([0.0, 0.2, 0.4])
        matching = Matching(pairs=((3, 0), (4, 2)),
                            unmatched_proposals=(), unmatched_gts=(1,))
        targets = build_connection_targets(matching, gts, 6)
        want = np.zeros((6, 6))
        want[3, 4] = 1.0
        assert_allclose(targets, want)

    def test_no_matches_all_zero(self):
        matching = Matching(pairs=(), unmatched_proposals=(0,), unmatched_gts=(0,))
        assert_allclose(build_connection_targets(matching, self.lane([0.0]), 4), 0.0)

    def test_two_lanes_stay_separate(self):
        gts = self.lane([0.0, 0.1], lane_id=0) + self.lane([4.0, 4.1], lane_id=1)
        matching = Matching(pairs=((0, 0), (1, 1), (2, 2), (3, 3)),
                            unmatched_proposals=(), unmatched_gts=())
        targets = build_connection_targets(matching, gts, 4)
        want = np.zeros((4, 4))
        want[0, 1] = want[2, 3] = 1.0
        assert_allclose(targets, want)

    def test_row_and_column_sums_bounded(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n_lanes = int(rng.integers(1, 4))
            gts, pairs, p = [], [], 0
            for lane_id in range(n_lanes):
                length = int(rng.integers(1, 5))
                for order in range(length):
                    gts.append(gt(order, float(lane_id * 4), lane_id=lane_id,
                                  order=order))
                    if rng.random() < 0.7:
                        pairs.append((p, len(gts) - 1))
                        p += 1
            matching = Matching(pairs=tuple(pairs), unmatched_proposals=(),
                                unmatched_gts=())
            targets = build_connection_targets(matching, gts, max(p, 1))
            assert targets.sum(axis=0).max(initial=0.0) <= 1.0
            assert targets.sum(axis=1).max(initial=0.0) <= 1.0

    def test_rejects_gt_matched_twice(self):
        gts = self.lane([0.0, 0.2])
        matching = Matching(pairs=((0, 0), (1, 0)),
                            unmatched_proposals=(), unmatched_gts=())
        with pytest.raises(ValueError, match="one-to-one"):
            build_connection_targets(matching, gts, 4)

    def test_rejects_gt_outside_the_gts(self):
        matching = Matching(pairs=((0, 0), (1, 7)), unmatched_proposals=(), unmatched_gts=())
        with pytest.raises(ValidationError,
                           match=r"^matching\.pairs\[1\]: gt 7 lies outside \[0, 2\)$"):
            build_connection_targets(matching, self.lane([0.0, 0.2]), 2)
