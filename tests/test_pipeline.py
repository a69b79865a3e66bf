import ast
from pathlib import Path

import numpy as np
import pytest

import lanekit.graph
import lanekit.pipeline
from lanekit.geometry import build_custom_grid, build_uniform_grid
from lanekit.io import PredictionFrame
from lanekit.graph import extract_lanes
from lanekit.metrics import evaluate
from lanekit.nms import Keypoint, ProposalSet, default_nms_thresholds
from lanekit.pipeline import infer_nms_thresholds, run_pipeline, suppress
from lanekit.synthetic import SceneSpec, generate_scene


def grid12():
    return build_uniform_grid(rows=12, cols=32, y_range=(3.0, 58.0), x_range=(-8.0, 8.0))


def chain_frame(xs, ys, adjacency):
    kps = tuple(Keypoint(grid_index=(i, 0), x=float(x), y=float(y), fg_score=0.9)
                for i, (x, y) in enumerate(zip(xs, ys)))
    return PredictionFrame(frame_id="t", keypoints=ProposalSet(kps, repeats_n=1),
                           adjacency=adjacency)


class TestInferThresholds:
    def test_uniform_grid_proposals(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=0, lane_count=3), grid)
        tx, ty = infer_nms_thresholds(frame.keypoints)
        spacing = grid.positions[0, 1, 0] - grid.positions[0, 0, 0]
        assert tx == pytest.approx(2.0 * spacing)
        assert ty == pytest.approx(0.5 * grid.row_spacing.min())

    def test_single_row_falls_back(self):
        kps = (Keypoint(grid_index=(0, 0), x=0.0, y=5.0, fg_score=0.9),
               Keypoint(grid_index=(0, 1), x=3.0, y=5.0, fg_score=0.9))
        tx, ty = infer_nms_thresholds(ProposalSet(kps, repeats_n=1))
        assert tx == pytest.approx(6.0)
        assert ty == pytest.approx(1.0)


class TestThresholdRule:
    """The window is 2 x the widest row's anchor step laterally and half the
    smallest row gap longitudinally, for proposals and grids alike."""

    @staticmethod
    def base_grid():
        return build_custom_grid(rows=56, cols=64)

    def test_one_anchor_per_lane_row_gives_twice_the_anchor_step(self):
        grid = self.base_grid()
        kps = [Keypoint(grid_index=(r, c), x=float(grid.positions[r, c, 0]),
                        y=float(grid.row_y[r]), fg_score=0.9)
               for r in range(grid.rows) for c in (10, 30, 50)]
        tx, ty = infer_nms_thresholds(ProposalSet(kps))
        widest_step = 20.0 / 63   # the last row spans the full 20 m width
        assert tx == pytest.approx(2.0 * widest_step)
        assert ty == pytest.approx(0.5 * np.diff(grid.row_y).min())

    # Seeds 6 and 22 each have a row where every target kept one proposal.
    @pytest.mark.parametrize("seed", [0, 1, 6, 22])
    def test_noisy_scene_gives_the_grid_window(self, seed):
        grid = self.base_grid()
        _, frame = generate_scene(SceneSpec(seed=seed, lane_count=3, sigma_x=0.1,
                                            proposals_per_target=2, dropout_p=0.05), grid)
        tx, _ = infer_nms_thresholds(frame.keypoints)
        assert tx == pytest.approx(default_nms_thresholds(grid)[0])

    @pytest.mark.parametrize("grid", [
        build_uniform_grid(rows=6, cols=5, y_range=(0.0, 10.0), x_range=(-4.0, 4.0)),
        build_custom_grid(rows=10, cols=5, width=20.0),
        build_custom_grid(rows=72, cols=128, y_origin=1.0)],
        ids=["uniform", "custom", "large"])
    def test_grid_default_is_the_rule_over_every_anchor(self, grid):
        anchors = ProposalSet([Keypoint(grid_index=(r, c), x=float(grid.positions[r, c, 0]),
                                        y=float(grid.positions[r, c, 1]))
                               for r in range(grid.rows) for c in range(grid.cols)])
        assert default_nms_thresholds(grid) == infer_nms_thresholds(anchors)


class TestRunPipeline:
    def test_noiseless_closure_perfect_f1(self):
        grid = grid12()
        for seed in range(8):
            lanes = 2 + seed % 3
            gt, frame = generate_scene(SceneSpec(seed=seed, lane_count=lanes), grid)
            result = run_pipeline(frame)
            assert len(result.lanes) == lanes
            for report in evaluate(list(result.lanes), gt):
                assert report.f1 == 1.0
                assert report.x_err_near == pytest.approx(0.0, abs=1e-9)

    def test_closure_on_custom_grid(self):
        grid = build_custom_grid(rows=14, cols=24)
        gt, frame = generate_scene(SceneSpec(seed=5, lane_count=3), grid)
        result = run_pipeline(frame)
        assert len(result.lanes) == 3
        for report in evaluate(list(result.lanes), gt):
            assert report.f1 == 1.0

    def test_nms_collapses_duplicate_proposals(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=2, lane_count=3,
                                            proposals_per_target=4), grid)
        result = run_pipeline(frame)
        assert len(result.kept) == 3 * grid.rows
        assert np.all(np.diff(result.kept_indices) > 0)

    def test_kept_set_matches_indices(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=3, lane_count=2, sigma_x=0.1), grid)
        result = run_pipeline(frame)
        for idx, kp in zip(result.kept_indices, result.kept):
            assert frame.keypoints[idx] == kp   # every field equal

    def test_min_lane_points_filters_short_chains(self):
        adjacency = np.zeros((5, 5))
        adjacency[0, 1] = 1.0                    # 2-point chain
        adjacency[2, 3] = adjacency[3, 4] = 1.0  # 3-point chain
        frame = chain_frame([0, 0, 4, 4, 4], [5, 10, 5, 10, 15], adjacency)
        short = run_pipeline(frame, thresh_x=1.0, thresh_y=1.0, min_lane_points=3)
        assert len(short.lanes) == 1
        assert len(short.lanes[0].path) == 3
        both = run_pipeline(frame, thresh_x=1.0, thresh_y=1.0, min_lane_points=2)
        assert len(both.lanes) == 2

    def test_explicit_thresholds_override_inference(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=4, lane_count=2), grid)
        wide = run_pipeline(frame, thresh_x=50.0, thresh_y=0.1)
        auto = run_pipeline(frame)
        assert len(wide.kept) < len(auto.kept)

    def test_survives_dropout_smoke(self):
        grid = grid12()
        gt, frame = generate_scene(SceneSpec(seed=6, lane_count=3, dropout_p=0.2,
                                             sigma_x=0.05), grid)
        result = run_pipeline(frame)
        assert len(result.lanes) >= 3
        report = evaluate(list(result.lanes), gt, thresholds=(1.5,))[0]
        assert report.recall > 0.5


class TestSuppress:
    @pytest.mark.parametrize("thresholds", [(None, None), (1.2, None), (None, 0.4), (1.2, 0.4)])
    def test_same_kept_set_as_run_pipeline(self, thresholds):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=9, lane_count=3, sigma_x=0.1,
                                            proposals_per_target=3), grid)
        keep, kept, adjacency = suppress(frame, *thresholds)
        result = run_pipeline(frame, thresh_x=thresholds[0], thresh_y=thresholds[1])
        assert np.array_equal(keep, result.kept_indices)
        assert np.all(np.diff(keep) > 0)
        assert list(kept) == list(result.kept)
        assert np.array_equal(adjacency, frame.adjacency[np.ix_(keep, keep)])

    def test_infers_the_missing_threshold(self):
        grid = grid12()
        _, frame = generate_scene(SceneSpec(seed=10, lane_count=2,
                                            proposals_per_target=2), grid)
        tx, ty = infer_nms_thresholds(frame.keypoints)
        assert np.array_equal(suppress(frame)[0], suppress(frame, tx, ty)[0])
        assert np.array_equal(suppress(frame, thresh_x=tx)[0], suppress(frame, tx, ty)[0])


def padded_large_frame(seed, budget=1536):
    """A large-grid scene padded to ``budget`` proposals, as a top-N head
    returns them: background proposals on free anchors with weak
    connections to everything, diagonal entries anywhere in [0, 1], and the
    whole set in descending confidence order."""
    grid = build_custom_grid(rows=72, cols=128)
    _, frame = generate_scene(SceneSpec(seed=seed, lane_count=5, sigma_x=0.1,
                                        proposals_per_target=4, dropout_p=0.05,
                                        distractor_edge_rate=1.0), grid)
    real = frame.keypoints
    rng = np.random.default_rng(seed)
    free = np.ones((grid.rows, grid.cols), dtype=bool)
    free[tuple(real.grid_index.T)] = False
    pad = budget - len(real)
    cells = np.argwhere(free)[rng.choice(int(free.sum()), pad, replace=False)]
    scores = np.zeros((pad, real.class_scores.shape[1]))
    scores[np.arange(pad), rng.integers(1, scores.shape[1], pad)] = rng.uniform(0.02, 0.2, pad)
    proposals = ProposalSet.from_arrays(
        np.vstack([real.grid_index, cells]),
        np.r_[real.x, grid.positions[cells[:, 0], cells[:, 1], 0]],
        np.r_[real.y, grid.row_y[cells[:, 0]]],
        dx=np.r_[real.dx, rng.normal(0.0, 0.1, pad)], z=np.r_[real.z, np.zeros(pad)],
        fg_score=np.r_[real.fg_score, rng.uniform(0.02, 0.2, pad)],
        class_scores=np.vstack([real.class_scores, scores]), repeats_n=real.repeats_n)
    adjacency = rng.uniform(1e-3, 0.45, (budget, budget))
    adjacency[:len(real), :len(real)] = frame.adjacency
    np.fill_diagonal(adjacency, rng.uniform(0.0, 1.0, budget))
    order = np.argsort(-proposals.confidences, kind="stable")
    return PredictionFrame(frame_id=frame.frame_id, keypoints=proposals.subset(order),
                           adjacency=adjacency[np.ix_(order, order)])


class TestGraphFromKeptRows:
    """``run_pipeline`` reads the lane graph from the kept rows of the
    frame's adjacency; its lanes are those of the pruned matrix."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_lanes_as_the_pruned_matrix(self, seed):
        frame = padded_large_frame(seed)
        thresholds = default_nms_thresholds(build_custom_grid(rows=72, cols=128))
        result = run_pipeline(frame, 0.5, *thresholds)
        keep, kept, pruned = suppress(frame, *thresholds)
        assert len(frame.keypoints) == 1536 and 400 < len(keep) < 1536
        # the kept rows hold edges to suppressed proposals, which must not count
        assert (frame.adjacency[keep] > 0.5).sum() > (pruned > 0.5).sum()
        want = extract_lanes(kept, pruned)
        assert result.kept_indices.tobytes() == keep.tobytes()
        assert len(result.lanes) == len(want) > 0
        for got, lane in zip(result.lanes, want):
            assert got.path == lane.path
            assert got.points.tobytes() == lane.points.tobytes()
            assert (got.category, got.confidence) == (lane.category, lane.confidence)

    def test_graph_steps_are_called_once_through_their_modules(self, monkeypatch):
        # perfbench times and counts these calls by module attribute
        # (graph.threshold_ms, graph.edges, graph.extract_ms, nms.point_nms_ms,
        # nms.build_boxes_ms, nms.box_nms_ms, graph.aggregate_ms).
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(lanekit.graph, "threshold_adjacency")
        counted(lanekit.graph, "aggregate_lane_attributes")
        counted(lanekit.pipeline, "extract_lanes")
        counted(lanekit.pipeline, "point_nms")
        counted(lanekit.nms, "build_nms_boxes")
        counted(lanekit.nms, "box_nms")
        _, frame = generate_scene(SceneSpec(seed=3, lane_count=3, proposals_per_target=2),
                                  grid12())
        lanes = run_pipeline(frame).lanes
        assert lanes
        assert calls.count("aggregate_lane_attributes") == len(lanes)
        assert [c for c in calls if c != "aggregate_lane_attributes"] == [
            "point_nms", "build_nms_boxes", "box_nms", "extract_lanes", "threshold_adjacency"]


# Parameters whose default one module constant owns: ``graph.EDGE_THRESHOLD``
# for ``t_a``, ``nms.NMS_R`` for ``r`` and ``nms.NMS_IOU_THRESH`` for
# ``iou_thresh``.
OWNED_DEFAULTS = {"t_a", "r", "iou_thresh"}


def _literal_defaults(source):
    """``line: name`` of each parameter in ``OWNED_DEFAULTS`` that some
    function of ``source`` gives a literal default other than None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        positional = node.args.posonlyargs + node.args.args
        defaults = [*zip(positional[len(positional) - len(node.args.defaults):],
                         node.args.defaults),
                    *zip(node.args.kwonlyargs, node.args.kw_defaults)]
        for arg, default in defaults:
            if arg.arg not in OWNED_DEFAULTS or default is None:
                continue
            try:
                literal = ast.literal_eval(default) is not None
            except ValueError:
                literal = False
            if literal:
                found.append(f"{default.lineno}: {arg.arg}")
    return found


def test_guard_finds_a_literal_default():
    source = ("def a(t_a=0.5, r=NMS_R, *, iou_thresh=-0.1): pass\n"
              "def b(x, r=None, t_a=graph.EDGE_THRESHOLD): pass\n"
              "f = lambda r=(10): r\n")
    assert _literal_defaults(source) == ["1: t_a", "1: iou_thresh", "3: r"]
    pipeline = Path(lanekit.pipeline.__file__).read_text()
    assert pipeline.count("r=NMS_R,") == 2
    planted = _literal_defaults(pipeline.replace("r=NMS_R,", "r=10,"))
    assert [finding.split(": ")[1] for finding in planted] == ["r", "r"]


def test_inference_defaults_have_one_owner():
    """``t_a``, ``r`` and ``iou_thresh`` default to the module constants
    everywhere in the library, never to a restated literal."""
    package = Path(lanekit.pipeline.__file__).parent
    found = {path.name: _literal_defaults(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
