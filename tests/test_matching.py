import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lanekit.errors import ValidationError
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

    def test_empty_inputs(self):
        assert build_cost_matrix([], [gt(0, 0.0)]).shape == (0, 1)
        assert build_cost_matrix([proposal(0, 0.0)], []).shape == (1, 0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[-1.0]]))


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
    """Proposals on six rows with ragged (sometimes empty) class scores, and
    GTs whose categories run past every score vector; some GTs carry no row
    and pair by exact y."""
    props = []
    for _ in range(n_props):
        count = int(rng.integers(0, categories + 1))
        props.append(Keypoint(grid_index=(int(rng.integers(0, 6)), 0),
                              x=float(rng.integers(-8, 9)) / 2.0, y=ROW_Y[rng.integers(0, 6)],
                              dx=float(rng.uniform(-0.6, 0.6)),
                              fg_score=float(rng.uniform(0, 1)),
                              class_scores=rng.uniform(0, 1, count)))
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
