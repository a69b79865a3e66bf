import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lanekit
from lanekit import graph as graph_module
from lanekit.errors import ValidationError
from lanekit.graph import (
    AdjacencyMatrix,
    DirectedLaneGraph,
    LaneRecord,
    aggregate_lane_attributes,
    extract_lanes,
    find_terminals,
    path_weight,
    threshold_adjacency,
)
from lanekit.io import load_lane_frame, save_lane_frame
from lanekit.nms import Keypoint
from lanekit.oracles import oracle_paths


def make_keypoints(n, class_scores=None):
    """Keypoints on a vertical line, y equal to the node index + 1."""
    return [Keypoint(grid_index=(i, 0), x=0.0, y=float(i + 1), z=0.1 * i,
                     class_scores=class_scores or [0.9])
            for i in range(n)]


def chain_adjacency(n, prob=1.0):
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = prob
    return A


class TestAdjacencyMatrix:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.array([[0.1, 0.2, 0.3]]))
        assert len(AdjacencyMatrix(np.zeros((3, 3)))) == 3

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AdjacencyMatrix(np.array([[0.0, np.nan], [0.2, 0.0]]))


class TestThreshold:
    def test_all_zero_empty(self):
        graph = threshold_adjacency(np.zeros((4, 4)), 0.5)
        assert graph.edges == []

    def test_single_edge(self):
        A = np.zeros((3, 3))
        A[0, 1] = 0.9
        graph = threshold_adjacency(A, 0.5)
        assert graph.edges == [(0, 1, 0.9)]

    def test_diagonal_ignored(self):
        A = np.eye(4) * 0.9
        assert threshold_adjacency(A, 0.5).edges == []

    def test_matches_full_scan(self):
        rng = np.random.default_rng(29)
        A = rng.random((10, 10))
        graph = threshold_adjacency(A, 0.5)
        want = {(i, j) for i in range(10) for j in range(10)
                if i != j and A[i, j] > 0.5}
        assert {(i, j) for i, j, _ in graph.edges} == want

    def test_invalid_threshold(self):
        for t in (-0.1, 1.0):
            with pytest.raises(ValueError):
                threshold_adjacency(np.zeros((2, 2)), t)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.floats(0, 0.99), st.floats(0, 0.99))
    def test_raising_threshold_never_adds_edges(self, seed, t1, t2):
        lo, hi = sorted((t1, t2))
        A = np.random.default_rng(seed).random((8, 8))
        edges_lo = {(i, j) for i, j, _ in threshold_adjacency(A, lo).edges}
        edges_hi = {(i, j) for i, j, _ in threshold_adjacency(A, hi).edges}
        assert edges_hi <= edges_lo


def assert_same_graph(got, want):
    assert got.node_count == want.node_count
    assert got.edge_src.tolist() == want.edge_src.tolist()
    assert got.edge_dst.tolist() == want.edge_dst.tolist()
    assert got.edge_prob.tobytes() == want.edge_prob.tobytes()


class TestThresholdNodes:
    """With ``nodes`` the graph is that of ``A[np.ix_(nodes, nodes)]``,
    gathered from the nodes' rows of ``A`` a block of rows at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_thresholding_the_submatrix(self, data):
        # Quantised values hit t_a exactly (strict >) and the diagonal is
        # drawn like any entry, so it often lies above t_a.
        n = data.draw(st.integers(0, 12))
        A = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
                                        min_size=n * n, max_size=n * n))).reshape(n, n)
        t_a = data.draw(st.sampled_from((0.0, 0.25, 0.5, 0.75)))
        chosen = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        nodes = np.flatnonzero(np.array(chosen, dtype=bool))
        # From one row per block up to every row in one block.
        rows_per_block = data.draw(st.integers(1, max(n, 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_BLOCK_ENTRIES", rows_per_block * max(n, 1))
            got = threshold_adjacency(A, t_a, nodes)
            want = threshold_adjacency(A[np.ix_(nodes, nodes)], t_a)
        assert_same_graph(got, want)

    @pytest.mark.parametrize("size, count", [(600, 420), (1536, 560), (300, 1), (300, 0)])
    def test_equals_thresholding_the_submatrix_at_scale(self, size, count):
        rng = np.random.default_rng(size + count)
        A = rng.choice([0.1, 0.5, 0.6, 0.9], size=(size, size), p=[0.97, 0.01, 0.01, 0.01])
        np.fill_diagonal(A, 0.9)
        nodes = np.sort(rng.choice(size, count, replace=False))
        assert len(nodes) <= 1 or size * len(nodes) > 2 * graph_module._BLOCK_ENTRIES
        got = threshold_adjacency(A, 0.5, nodes)
        assert_same_graph(got, threshold_adjacency(A[np.ix_(nodes, nodes)], 0.5))

    def test_no_nodes_means_every_node(self):
        A = np.random.default_rng(3).random((9, 9))
        assert_same_graph(threshold_adjacency(A, 0.5, np.arange(9)), threshold_adjacency(A, 0.5))

    @pytest.mark.parametrize("nodes", [[2, 1], [1, 1], [-1, 2], [0, 4], [0.0, 1.0],
                                       [[0, 1]], [True, False]],
                             ids=["unsorted", "repeated", "negative", "beyond", "float",
                                  "2-d", "bool"])
    def test_bad_nodes_rejected(self, nodes):
        with pytest.raises(ValidationError, match="nodes"):
            threshold_adjacency(np.zeros((4, 4)), 0.5, nodes)

    def test_extract_lanes_over_nodes(self):
        A = np.zeros((6, 6))
        A[0, 2] = A[2, 4] = A[4, 5] = 1.0
        A[0, 1] = A[1, 3] = 1.0   # a chain through nodes that are left out
        nodes = [0, 2, 4, 5]
        kps = make_keypoints(6)
        lanes = extract_lanes([kps[i] for i in nodes], A, 0.5, nodes=nodes)
        assert [lane.path for lane in lanes] == [(0, 1, 2, 3)]
        assert lanes[0].points[:, 1].tolist() == [1.0, 3.0, 5.0, 6.0]
        with pytest.raises(ValueError, match="4 nodes"):
            extract_lanes(kps, A, 0.5, nodes=nodes)


class TestDirectedLaneGraph:
    @staticmethod
    def graph(src, dst, prob=None, node_count=4):
        prob = [0.9] * len(src) if prob is None else prob
        return DirectedLaneGraph(node_count=node_count, edge_src=np.array(src, dtype=np.int64),
                                 edge_dst=np.array(dst, dtype=np.int64),
                                 edge_prob=np.array(prob, dtype=float))

    def test_sorted_edges_accepted(self):
        graph = self.graph([0, 0, 2], [1, 3, 0])
        assert graph.edges == [(0, 1, 0.9), (0, 3, 0.9), (2, 0, 0.9)]
        assert self.graph([], [], node_count=0).edges == []

    def test_lengths_must_agree(self):
        with pytest.raises(ValidationError, match="one length"):
            self.graph([0, 1], [1, 2], [0.9])
        with pytest.raises(ValidationError, match="one length"):
            self.graph([0, 1], [1])

    @pytest.mark.parametrize("src, dst", [([0, 4], [1, 0]), ([0, 1], [1, -1])])
    def test_nodes_must_be_in_range(self, src, dst):
        with pytest.raises(ValidationError, match=r"\[0, 4\)"):
            self.graph(src, dst)

    @pytest.mark.parametrize("src, dst", [([1, 0], [2, 1]), ([0, 0], [2, 1]), ([0, 0], [1, 1])],
                             ids=["src", "dst", "repeated"])
    def test_edges_must_be_strictly_sorted(self, src, dst):
        # _best_paths finds a node's edges by searchsorted on edge_src.
        with pytest.raises(ValidationError, match=r"sorted by \(src, dst\)"):
            self.graph(src, dst)


class TestTerminals:
    def test_chain(self):
        graph = threshold_adjacency(chain_adjacency(3), 0.5)
        assert find_terminals(graph) == ([0], [2])

    def test_isolated_node_in_neither(self):
        A = np.zeros((4, 4))
        A[0, 1] = 1.0
        starts, ends = find_terminals(threshold_adjacency(A, 0.5))
        assert starts == [0] and ends == [1]  # nodes 2, 3 isolated

    def test_two_disjoint_chains(self):
        A = np.zeros((6, 6))
        A[0, 1] = A[1, 2] = A[3, 4] = A[4, 5] = 1.0
        starts, ends = find_terminals(threshold_adjacency(A, 0.5))
        assert starts == [0, 3] and ends == [2, 5]

    def test_pure_cycle_has_no_terminals(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 2] = A[2, 0] = 0.9
        assert find_terminals(threshold_adjacency(A, 0.5)) == ([], [])


class TestLaneInstance:
    """A lane instance as extract_lanes emits it: a LaneRecord with a path,
    a category and a confidence."""

    def test_rejects_repeated_nodes(self):
        with pytest.raises(ValidationError, match="simple"):
            LaneRecord(path=(0, 1, 0), points=np.zeros((3, 3)),
                       category=0, confidence=0.5)


class TestLaneRecord:
    def test_one_type_under_every_name(self):
        assert lanekit.LaneRecord is LaneRecord
        assert lanekit.io.LaneRecord is LaneRecord
        assert lanekit.GroundTruthLane is LaneRecord

    def test_path_defaults_to_empty(self):
        lane = LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        assert lane.path == ()

    def test_path_is_a_tuple_of_python_ints(self):
        lane = LaneRecord(points=np.zeros((2, 3)), path=np.array([4, 7]))
        assert lane.path == (4, 7)
        assert all(type(i) is int for i in lane.path)

    def test_one_point_lane_rejected(self):
        with pytest.raises(ValidationError, match="N >= 2"):
            LaneRecord(points=[[0.0, 1.0, 0.0]], path=(0,))

    @pytest.mark.parametrize("path", [(0,), (0, 1, 2)])
    def test_path_of_wrong_length_rejected(self, path):
        with pytest.raises(ValidationError, match="2 points"):
            LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], path=path)

    def test_repeated_node_rejected(self):
        with pytest.raises(ValidationError, match="simple"):
            LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]],
                       path=(0, 1, 0))

    def test_non_monotone_y_rejected(self):
        pts = np.array([[0.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValidationError, match="non-decreasing y"):
            LaneRecord(path=(0, 1), points=pts, category=0, confidence=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"points\[1\]: not finite"):
            LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 50.0, bad], [0.0, 100.0, 0.0]])

    @pytest.mark.parametrize("confidence", [np.nan, 7.0, -0.1, "0.5", None])
    def test_bad_confidence_rejected(self, confidence):
        with pytest.raises(ValidationError, match=r"confidence must lie in \[0, 1\]"):
            LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], confidence=confidence)

    @pytest.mark.parametrize("points", [[[0.0, 1.0, "x"], [0.0, 2.0, 0.0]],
                                        [[0.0, 1.0, 0.0], [0.0, 2.0]],
                                        [[0.0, 1.0, 0.0], [0.0, 2.0, {}]]])
    def test_points_that_are_not_numbers(self, points):
        with pytest.raises(ValidationError, match="array of numbers"):
            LaneRecord(points=points)

    @pytest.mark.parametrize("points", [[[0.0, 1.0, True], [0.0, 2.0, 0.0]],
                                        np.array([[False, True, False], [False, True, True]])],
                             ids=["list", "array"])
    def test_boolean_points_rejected(self, points):
        with pytest.raises(ValidationError, match="points: expected numbers, got a boolean"):
            LaneRecord(points=points)

    @pytest.mark.parametrize("category", [2.5, 2.0, -3, True, np.bool_(False), "1", None])
    def test_category_must_be_a_non_negative_integer(self, category):
        with pytest.raises(ValidationError, match="category must be a non-negative integer"):
            LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], category=category)

    def test_category_is_stored_as_a_python_int(self):
        lane = LaneRecord(points=[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], category=np.int64(3))
        assert lane.category == 3 and type(lane.category) is int


class TestExtractLanes:
    def test_lanes_are_records_that_survive_a_file(self, tmp_path):
        kps = make_keypoints(5, class_scores=[0.2, 0.7])
        A = chain_adjacency(5)
        A[3, 4] = 0.0
        lanes = extract_lanes(kps, A, 0.5)
        assert [type(l) for l in lanes] == [LaneRecord]
        assert lanes[0].path == (0, 1, 2, 3)
        save_lane_frame("f", lanes, tmp_path / "lanes.json")
        _, loaded = load_lane_frame(tmp_path / "lanes.json")
        assert len(loaded) == 1
        assert np.array_equal(loaded[0].points, lanes[0].points)
        assert (loaded[0].category, loaded[0].confidence) == (1, 0.7)
        assert (lanes[0].category, lanes[0].confidence) == (1, 0.7)

    def test_five_node_chain(self):
        kps = make_keypoints(5)
        lanes = extract_lanes(kps, chain_adjacency(5), 0.5)
        assert len(lanes) == 1
        assert lanes[0].path == (0, 1, 2, 3, 4)
        assert_allclose(lanes[0].points,
                        [[0.0, i + 1.0, 0.1 * i] for i in range(5)])

    def test_y_merge_shares_suffix(self):
        # 0 -> 2 -> 3 -> 4 and 1 -> 2 -> 3 -> 4
        kps = [Keypoint(grid_index=(0, c), x=float(c), y=1.0) for c in range(2)]
        kps += make_keypoints(3)
        kps[2:] = [Keypoint(grid_index=(i, 0), x=0.0, y=float(i), z=0.0)
                   for i in range(2, 5)]
        A = np.zeros((5, 5))
        A[0, 2] = 0.9
        A[1, 2] = 0.8
        A[2, 3] = A[3, 4] = 0.9
        lanes = extract_lanes(kps, A, 0.5)
        assert [lane.path for lane in lanes] == [(0, 2, 3, 4), (1, 2, 3, 4)]

    def test_diamond_takes_strong_branch(self):
        kps = [Keypoint(grid_index=(0, 0), x=0.0, y=1.0),
               Keypoint(grid_index=(1, 0), x=-1.0, y=2.0),
               Keypoint(grid_index=(1, 1), x=1.0, y=2.0),
               Keypoint(grid_index=(2, 0), x=0.0, y=3.0)]
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 3] = 0.9   # via node 1
        A[0, 2] = A[2, 3] = 0.6   # via node 2
        lanes = extract_lanes(kps, A, 0.5)
        assert [lane.path for lane in lanes] == [(0, 1, 3)]

    def test_disjoint_chains_give_two_lanes(self):
        kps = make_keypoints(6)
        A = np.zeros((6, 6))
        A[0, 1] = A[1, 2] = A[3, 4] = A[4, 5] = 1.0
        lanes = extract_lanes(kps, A, 0.5)
        assert [lane.path for lane in lanes] == [(0, 1, 2), (3, 4, 5)]

    def test_empty_graph(self):
        assert extract_lanes(make_keypoints(4), np.zeros((4, 4)), 0.5) == []

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            extract_lanes(make_keypoints(3), np.zeros((4, 4)), 0.5)

    def test_backward_edge_path_dropped(self):
        # The only start-to-end path runs against increasing y.
        kps = make_keypoints(3)
        A = np.zeros((3, 3))
        A[2, 1] = A[1, 0] = 0.9
        assert extract_lanes(kps, A, 0.5) == []

    def test_true_lanes_recovered_among_weak_skip_edges(self):
        # Unit-probability chain edges beat any parallel shortcut.
        kps = make_keypoints(6)
        A = chain_adjacency(6, prob=1.0)
        A[0, 2] = A[1, 3] = A[2, 5] = 0.8
        lanes = extract_lanes(kps, A, 0.5)
        assert [lane.path for lane in lanes] == [(0, 1, 2, 3, 4, 5)]
        assert path_weight(lanes[0].path, A) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 12), st.floats(0.05, 0.4))
    def test_matches_enumeration_oracle(self, seed, n, density):
        rng = np.random.default_rng(seed)
        A = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
        A = np.triu(A, k=1)   # forward edges only, so no monotonicity drops
        kps = make_keypoints(n)
        lanes = extract_lanes(kps, A, 0.5)
        graph = threshold_adjacency(A, 0.5)
        starts, ends = find_terminals(graph)
        by_pair = {(lane.path[0], lane.path[-1]): lane for lane in lanes}
        for s in starts:
            for e in ends:
                best = oracle_paths(A, 0.5, s, e)
                if best is None:
                    assert (s, e) not in by_pair
                else:
                    lane = by_pair[(s, e)]
                    assert (list(lane.path), path_weight(lane.path, A)) == best
                    # every edge on the emitted path clears the threshold
                    for i, j in zip(lane.path[:-1], lane.path[1:]):
                        assert A[i, j] > 0.5

    def test_equal_cost_duplicates_take_smaller_branch(self):
        # Two kept proposals per middle target, every edge at p = 1.0 (cost
        # 0): 0 -> {1, 2}, chained 1 -> 4 and 2 -> 3, both into 5.  Node 3
        # is reached before node 4, but (0, 1, 4, 5) < (0, 2, 3, 5).
        kps = [Keypoint(grid_index=(row, col), x=0.1 * col, y=float(row + 1))
               for row, col in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0))]
        A = np.zeros((6, 6))
        A[0, 1] = A[0, 2] = A[1, 4] = A[2, 3] = A[3, 5] = A[4, 5] = 1.0
        lanes = extract_lanes(kps, A, 0.5)
        assert [lane.path for lane in lanes] == [(0, 1, 4, 5)]
        assert oracle_paths(A, 0.5, 0, 5) == ([0, 1, 4, 5], 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ties_follow_the_oracle_rule(self, data):
        # Quantised probabilities make equal-cost paths common; without the
        # triangle mask i -> j and j -> i may both clear t_a.
        n = data.draw(st.integers(3, 9))
        A = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.75, 1.0)),
                                        min_size=n * n, max_size=n * n))).reshape(n, n)
        if data.draw(st.booleans()):
            A = np.triu(A, k=1)
        np.fill_diagonal(A, 0.0)
        lanes = extract_lanes(make_keypoints(n), A, 0.5)
        starts, ends = find_terminals(threshold_adjacency(A, 0.5))
        by_pair = {(lane.path[0], lane.path[-1]): lane for lane in lanes}
        assert len(by_pair) == len(lanes)
        for s in starts:
            for e in ends:
                best = oracle_paths(A, 0.5, s, e)
                # node y = index + 1, so only increasing paths run forward
                if best is None or np.any(np.diff(best[0]) < 0):
                    assert (s, e) not in by_pair
                else:
                    lane = by_pair[(s, e)]
                    assert (list(lane.path), path_weight(lane.path, A)) == best


class TestAggregate:
    def test_one_hot(self):
        kps = make_keypoints(4, class_scores=[0.0, 0.0, 0.0, 1.0])
        assert aggregate_lane_attributes(kps) == (3, 1.0)

    def test_mean_tie_breaks_low(self):
        kps = [Keypoint(grid_index=(0, 0), x=0.0, y=1.0, class_scores=[0.6, 0.4]),
               Keypoint(grid_index=(1, 0), x=0.0, y=2.0, class_scores=[0.4, 0.6])]
        category, confidence = aggregate_lane_attributes(kps)
        assert category == 0
        assert confidence == pytest.approx(0.6)

    def test_random_lane_matches_recomputation(self):
        rng = np.random.default_rng(31)
        probs = rng.random((5, 7))
        kps = [Keypoint(grid_index=(i, 0), x=0.0, y=float(i), class_scores=row)
               for i, row in enumerate(probs)]
        category, confidence = aggregate_lane_attributes(kps)
        assert category == int(probs.mean(axis=0).argmax())
        assert confidence == pytest.approx(probs.max(axis=1).mean())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_lane_attributes([])
