import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit.errors import SchemaError, ValidationError
from lanekit.config import MODEL_PRESETS
from lanekit.geometry import build_custom_grid, build_uniform_grid, make_forward_camera
from lanekit.io import (
    LaneRecord,
    PredictionFrame,
    load_camera,
    load_ground_truth,
    load_head_weights,
    load_lane_frame,
    load_prediction_frame,
    save_camera,
    save_grid_csv,
    save_ground_truth,
    save_head_weights,
    save_lane_frame,
    save_prediction_frame,
)
from lanekit.metrics import GroundTruthLane
from lanekit.nms import Keypoint, ProposalSet
from lanekit.connection_head import ConnectionFeatures, adjacency_forward, random_head_weights
from lanekit.graph import AdjacencyMatrix
from lanekit.synthetic import SceneSpec, generate_scene


def make_frame(rng, count=5, categories=4):
    kps = []
    for i in range(count):
        scores = rng.uniform(0, 1, categories)
        kps.append(Keypoint(grid_index=(i, i % 3), x=float(rng.uniform(-5, 5)),
                            y=float(3 + 2 * i), dx=float(rng.uniform(-1, 1)),
                            z=float(rng.uniform(-0.2, 0.2)),
                            fg_score=float(rng.uniform(0, 1)), class_scores=scores))
    adjacency = rng.uniform(0, 1, (count, count))
    return PredictionFrame(frame_id="f0", keypoints=ProposalSet(tuple(kps), repeats_n=2),
                           adjacency=adjacency)


def frames_equal(a, b):
    if a.frame_id != b.frame_id:
        return False
    if a.keypoints.repeats_n != b.keypoints.repeats_n:
        return False
    if len(a.keypoints) != len(b.keypoints):
        return False
    for ka, kb in zip(a.keypoints, b.keypoints):
        if ka.grid_index != kb.grid_index:
            return False
        for field in ("x", "y", "dx", "z", "fg_score"):
            if getattr(ka, field) != getattr(kb, field):
                return False
        if not np.array_equal(ka.class_scores, kb.class_scores):
            return False
    return np.array_equal(a.adjacency, b.adjacency)


class TestPredictionFrame:
    def test_minimal_single_keypoint_file(self, tmp_path):
        kp = Keypoint(grid_index=(0, 0), x=1.0, y=3.0, fg_score=0.5)
        frame = PredictionFrame(frame_id="solo",
                                keypoints=ProposalSet((kp,), repeats_n=1),
                                adjacency=np.zeros((1, 1)))
        path = tmp_path / "frame.json"
        save_prediction_frame(frame, path)
        loaded = load_prediction_frame(path)
        assert loaded.frame_id == "solo"
        assert len(loaded.keypoints) == 1
        assert loaded.adjacency.shape == (1, 1)

    def test_adjacency_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        kps = make_frame(rng, count=3).keypoints
        with pytest.raises(ValidationError):
            PredictionFrame(frame_id="bad", keypoints=kps,
                            adjacency=np.zeros((3, 2)))

    def test_adjacency_out_of_range_rejected(self):
        rng = np.random.default_rng(1)
        kps = make_frame(rng, count=3).keypoints
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = 1.5
        with pytest.raises(ValidationError):
            PredictionFrame(frame_id="bad", keypoints=kps, adjacency=adjacency)

    def test_adjacency_nan_rejected(self):
        kps = make_frame(np.random.default_rng(2), count=3).keypoints
        adjacency = np.zeros((3, 3))
        adjacency[2, 0] = np.nan
        with pytest.raises(ValidationError, match="adjacency"):
            PredictionFrame(frame_id="bad", keypoints=kps, adjacency=adjacency)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_tokens_rejected(self, tmp_path, token):
        path = tmp_path / "frame.json"
        save_prediction_frame(make_frame(np.random.default_rng(6)), path)
        raw = json.loads(path.read_text())
        raw["keypoints"][1]["dx"] = float(token.replace("Infinity", "inf"))
        path.write_text(json.dumps(raw))
        assert token in path.read_text()
        with pytest.raises(SchemaError, match=token):
            load_prediction_frame(path)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        frame = make_frame(rng, count=6)
        path = tmp_path / "frame.json"
        save_prediction_frame(frame, path)
        assert frames_equal(load_prediction_frame(path), frame)

    def test_round_trip_serialization_stable(self, tmp_path):
        rng = np.random.default_rng(8)
        frame = make_frame(rng)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_prediction_frame(frame, first)
        save_prediction_frame(load_prediction_frame(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_sparse_adjacency_round_trip(self, tmp_path):
        kps = tuple(Keypoint(grid_index=(i, 0), x=0.0, y=3.0 + i, fg_score=0.5)
                    for i in range(4))
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = 0.9
        adjacency[2, 3] = 0.4
        frame = PredictionFrame(frame_id="sp", keypoints=ProposalSet(kps, repeats_n=1),
                                adjacency=adjacency)
        path = tmp_path / "frame.json"
        save_prediction_frame(frame, path)
        raw = json.loads(path.read_text())
        assert raw["adjacency"]["format"] == "sparse"
        assert len(raw["adjacency"]["triplets"]) == 2
        assert frames_equal(load_prediction_frame(path), frame)

    @pytest.mark.parametrize("triplet", [[0, "a", 0.5], [0, 1], [0.0, 1, 0.5],
                                         [0, 1, "0.5"], 7])
    def test_malformed_sparse_triplet_names_it(self, tmp_path, triplet):
        path = tmp_path / "frame.json"
        frame = make_frame(np.random.default_rng(9), count=3)
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 2] = 0.8   # 2 triplets hold fewer numbers than 9 rows
        save_prediction_frame(PredictionFrame(frame_id=frame.frame_id, keypoints=frame.keypoints,
                                              adjacency=adjacency), path)
        raw = json.loads(path.read_text())
        raw["adjacency"]["triplets"][1] = triplet
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=r"adjacency\.triplets\[1\]"):
            load_prediction_frame(path)

    def test_missing_field_names_the_field(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "frame.json"
        save_prediction_frame(make_frame(rng), path)
        raw = json.loads(path.read_text())
        del raw["keypoints"][2]["fg_score"]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError) as err:
            load_prediction_frame(path)
        assert "fg_score" in str(err.value)

    def test_wrong_type_names_the_field(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "frame.json"
        save_prediction_frame(make_frame(rng), path)
        raw = json.loads(path.read_text())
        raw["keypoints"][0]["x"] = "left"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError) as err:
            load_prediction_frame(path)
        assert "x" in str(err.value)

    def test_class_scores_length_must_match_header(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "frame.json"
        save_prediction_frame(make_frame(rng, categories=4), path)
        raw = json.loads(path.read_text())
        raw["keypoints"][1]["class_scores"] = [0.5, 0.5]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError):
            load_prediction_frame(path)

    @pytest.mark.parametrize("categories", [-1, 2 ** 31, 10 ** 30])
    def test_categories_out_of_range_names_it(self, tmp_path, categories):
        path = tmp_path / "frame.json"
        save_prediction_frame(PredictionFrame(frame_id="e", keypoints=ProposalSet(()),
                                              adjacency=np.zeros((0, 0))), path)
        raw = json.loads(path.read_text())
        raw["categories"] = categories
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match="categories"):
            load_prediction_frame(path)

    def test_invalid_json_is_schema_error(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_prediction_frame(path)


class TestGroundTruthFiles:
    def test_single_straight_lane(self, tmp_path):
        lane = GroundTruthLane(points=np.column_stack([
            np.full(10, 1.5), np.arange(5.0, 55.0, 5.0), np.zeros(10)]), category=3)
        path = tmp_path / "gt.json"
        save_ground_truth({"a": [lane]}, path)
        loaded = load_ground_truth(path)
        assert set(loaded) == {"a"}
        assert loaded["a"][0].category == 3
        np.testing.assert_array_equal(loaded["a"][0].points, lane.points)

    def test_non_monotone_y_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"frames": [{
            "frame_id": "a",
            "lanes": [{"category": 0,
                       "points": [[0, 10, 0], [0, 5, 0], [0, 20, 0]]}],
        }]}))
        with pytest.raises((SchemaError, ValidationError)):
            load_ground_truth(path)

    @pytest.mark.parametrize("category", [-3, 2.5])
    def test_category_must_be_a_non_negative_integer(self, tmp_path, category):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"frames": [{"frame_id": "a", "lanes": [
            {"category": category, "points": [[0, 5, 0], [0, 10, 0]]}]}]}))
        with pytest.raises(ValidationError, match=r"frames\[0\]\.lanes\[0\].*category"):
            load_ground_truth(path)

    def test_duplicate_frame_id_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        lane = {"category": 0, "points": [[0, 5, 0], [0, 10, 0]]}
        path.write_text(json.dumps({"frames": [
            {"frame_id": "a", "lanes": [lane]},
            {"frame_id": "a", "lanes": [lane]},
        ]}))
        with pytest.raises(SchemaError):
            load_ground_truth(path)

    def test_multi_frame_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        frames = {}
        for fid in ("f1", "f2"):
            lanes = []
            for _ in range(3):
                ys = np.sort(rng.uniform(2, 90, 8))
                lanes.append(GroundTruthLane(points=np.column_stack([
                    rng.uniform(-8, 8, 8), ys, rng.uniform(-0.5, 0.5, 8)]),
                    category=int(rng.integers(0, 21))))
            frames[fid] = lanes
        path = tmp_path / "gt.json"
        save_ground_truth(frames, path)
        loaded = load_ground_truth(path)
        assert set(loaded) == set(frames)
        for fid in frames:
            for a, b in zip(frames[fid], loaded[fid]):
                assert a.category == b.category
                np.testing.assert_array_equal(a.points, b.points)


# 1e999 is valid JSON but overflows to inf when parsed.
OVERFLOWING_POINTS = "[[0, 5, 0], [1e999, 10, 0]]"


class TestNonFiniteLanePoints:
    def test_lane_file_overflow_rejected(self, tmp_path):
        path = tmp_path / "lanes.json"
        path.write_text('{"frame_id": "a", "lanes": [{"category": 0, "confidence": 0.5, '
                        '"points": [[0, 5, 0], [1, 10, 0]]}, {"category": 0, '
                        f'"confidence": 0.5, "points": {OVERFLOWING_POINTS}}}]}}')
        with pytest.raises(ValidationError, match=r"lanes\[1\]: points\[1\]: not finite"):
            load_lane_frame(path)

    def test_ground_truth_overflow_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"frames": [{"frame_id": "a", "lanes": '
                        f'[{{"category": 0, "points": {OVERFLOWING_POINTS}}}]}}]}}')
        with pytest.raises(ValidationError,
                           match=r"frames\[0\]\.lanes\[0\]: points\[1\]: not finite"):
            load_ground_truth(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lane_record_rejects(self, bad):
        with pytest.raises(ValidationError, match=r"points\[0\]: not finite"):
            LaneRecord(points=[[0.0, 5.0, bad], [0.0, 10.0, 0.0]])


class TestCameraAndWeights:
    def test_camera_round_trip(self, tmp_path):
        cam = make_forward_camera(height=1.4, pitch_deg=4.0, yaw_deg=2.0)
        path = tmp_path / "cam.json"
        save_camera(cam, path)
        loaded = load_camera(path)
        np.testing.assert_array_equal(loaded.intrinsic, cam.intrinsic)
        np.testing.assert_array_equal(loaded.extrinsic, cam.extrinsic)
        assert loaded.image_size == cam.image_size

    def test_head_weights_round_trip(self, tmp_path):
        weights = random_head_weights(seed=2, d_c=8, dims_per_axis=4, hidden=6, embed=5)
        path = tmp_path / "head.json"
        save_head_weights(weights, path)
        loaded = load_head_weights(path)
        for name in ("origin_w1", "origin_b1", "origin_w2", "origin_b2",
                     "dest_w1", "dest_b1", "dest_w2", "dest_b2", "final_w"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(weights, name))
        assert loaded.final_b == weights.final_b

    def test_grid_csv_layout(self, tmp_path):
        grid = build_uniform_grid(rows=3, cols=4, y_range=(3.0, 9.0), x_range=(-2.0, 2.0))
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,x,y"
        assert len(lines) == 1 + 3 * 4
        row, col, x, y = lines[1].split(",")
        assert (int(row), int(col)) == (0, 0)
        assert float(x) == grid.positions[0, 0, 0]
        assert float(y) == grid.positions[0, 0, 1]


def base_scene_frame(seed=3):
    rows, cols = MODEL_PRESETS["base"].bev_shape
    _, frame = generate_scene(SceneSpec(seed=seed, lane_count=4),
                              build_custom_grid(rows=rows, cols=cols))
    return frame


def head_like_frame(count, seed=5):
    """Random proposals whose adjacency comes from the connection head: a
    sigmoid, so no entry is zero."""
    rng = np.random.default_rng(seed)
    proposals = ProposalSet.from_arrays(
        np.column_stack([np.arange(count) // 8, np.arange(count) % 8]),
        rng.uniform(-8, 8, count), rng.uniform(3, 60, count), rng.uniform(-1, 1, count),
        rng.uniform(-0.2, 0.2, count), rng.uniform(0, 1, count), rng.uniform(0, 1, (count, 3)),
        repeats_n=2)
    features = ConnectionFeatures(rng.normal(size=(count, 8)), proposals.refined_xy)
    adjacency = adjacency_forward(features, random_head_weights(seed, d_c=8, dims_per_axis=8))
    return PredictionFrame(frame_id="head", keypoints=proposals, adjacency=adjacency.probs)


class TestAdjacencyEncoding:
    """The adjacency is written in whichever encoding holds fewer numbers."""

    @staticmethod
    def save_and_reload(frame, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_prediction_frame(frame, first)
        loaded = load_prediction_frame(first)
        save_prediction_frame(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        return json.loads(first.read_text())["adjacency"], loaded

    def test_synthetic_base_frame_goes_sparse(self, tmp_path):
        frame = base_scene_frame()
        n, nonzero = len(frame.keypoints), np.count_nonzero(frame.adjacency)
        assert n <= 512 and 0 < 3 * nonzero < n * n
        adjacency, loaded = self.save_and_reload(frame, tmp_path)
        assert adjacency["format"] == "sparse" and len(adjacency["triplets"]) == nonzero
        assert frames_equal(loaded, frame)

    def test_head_like_frame_above_512_goes_dense(self, tmp_path):
        frame = head_like_frame(600)
        assert np.count_nonzero(frame.adjacency) == 600 * 600
        adjacency, loaded = self.save_and_reload(frame, tmp_path)
        assert adjacency["format"] == "dense"
        assert frames_equal(loaded, frame)

    @pytest.mark.parametrize("nonzero,expected", [(5, "sparse"), (6, "dense"), (16, "dense")])
    def test_rule_is_three_numbers_per_triplet(self, tmp_path, nonzero, expected):
        # 4 keypoints: 16 dense numbers, so 5 triplets (15) are smaller, 6 (18) are not
        frame = make_frame(np.random.default_rng(12), count=4)
        adjacency = np.zeros(16)
        adjacency[:nonzero] = np.linspace(0.1, 1.0, nonzero)
        frame = PredictionFrame(frame_id="r", keypoints=frame.keypoints,
                                adjacency=adjacency.reshape(4, 4))
        written, loaded = self.save_and_reload(frame, tmp_path)
        assert written["format"] == expected
        assert frames_equal(loaded, frame)

    def test_frame_without_keypoints_round_trips(self, tmp_path):
        frame = PredictionFrame(frame_id="empty", keypoints=ProposalSet(()),
                                adjacency=np.zeros((0, 0)))
        written, loaded = self.save_and_reload(frame, tmp_path)
        assert written == {"format": "dense", "probs": [], "size": 0}
        assert frames_equal(loaded, frame)

    def write_with(self, frame, path, adjacency):
        save_prediction_frame(frame, path)
        raw = json.loads(path.read_text())
        raw["adjacency"] = adjacency
        path.write_text(json.dumps(raw))

    def test_dense_file_above_512_still_loads(self, tmp_path):
        frame = PredictionFrame(frame_id="big", keypoints=head_like_frame(520).keypoints,
                                adjacency=np.zeros((520, 520)))
        probs = np.zeros((520, 520))
        probs[3, 7], probs[519, 0] = 0.75, 1.0
        path = tmp_path / "old.json"
        self.write_with(frame, path, {"format": "dense", "size": 520, "probs": probs.tolist()})
        loaded = load_prediction_frame(path)
        assert np.array_equal(loaded.adjacency, probs)

    def test_sparse_file_of_a_full_matrix_still_loads(self, tmp_path):
        frame = make_frame(np.random.default_rng(13), count=4)
        triplets = [[i, j, float(frame.adjacency[i, j])] for i in range(4) for j in range(4)]
        path = tmp_path / "old.json"
        self.write_with(frame, path, {"format": "sparse", "size": 4, "triplets": triplets})
        assert frames_equal(load_prediction_frame(path), frame)

    def test_size_must_match_the_keypoints(self, tmp_path):
        frame = make_frame(np.random.default_rng(14), count=3)
        path = tmp_path / "bad.json"
        self.write_with(frame, path, {"format": "sparse", "size": 10 ** 9, "triplets": []})
        with pytest.raises(SchemaError, match=r"adjacency\.size"):
            load_prediction_frame(path)

    @pytest.mark.parametrize("probs", [[[0.1, 0.2, 0.3], [0.1], [0.2, 0.2, 0.2]],
                                       [[0.1, 0.2, "0.3"]] * 3, [[0.1, 0.2, None]] * 3,
                                       [[[0.1], [0.2], [0.3]]] * 3, [[0.1, 0.2, 0.3]] * 2,
                                       [[0.1, 0.2, 10 ** 400]] * 3, []])
    def test_malformed_dense_probs_name_the_field(self, tmp_path, probs):
        frame = make_frame(np.random.default_rng(15), count=3)
        path = tmp_path / "bad.json"
        self.write_with(frame, path, {"format": "dense", "size": 3, "probs": probs})
        with pytest.raises(ValidationError, match=r"adjacency\.probs"):
            load_prediction_frame(path)

    def test_integer_beyond_float_range(self, tmp_path):
        frame = make_frame(np.random.default_rng(16), count=3)
        path = tmp_path / "bad.json"
        self.write_with(frame, path, {"format": "sparse", "size": 3,
                                      "triplets": [[0, 1, 0.5], [1, 2, 10 ** 400]]})
        with pytest.raises(SchemaError, match=r"adjacency\.triplets\[1\]"):
            load_prediction_frame(path)
        save_prediction_frame(frame, path)
        raw = json.loads(path.read_text())
        raw["keypoints"][0]["x"] = 10 ** 400
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=r"keypoints\[0\]\.x: number out of range"):
            load_prediction_frame(path)

    def test_adjacency_check_is_the_graph_one(self):
        kps = make_frame(np.random.default_rng(17), count=2).keypoints
        for bad in (np.array([[0.0, 1.5], [0.0, 0.0]]), np.array([[0.0, np.nan], [0.0, 0.0]])):
            with pytest.raises(ValidationError, match="adjacency probabilities"):
                PredictionFrame(frame_id="bad", keypoints=kps, adjacency=bad)
            with pytest.raises(ValidationError, match="adjacency probabilities"):
                AdjacencyMatrix(bad)


class TestCameraFileBounds:
    def write(self, tmp_path, edit):
        path = tmp_path / "camera.json"
        save_camera(make_forward_camera(), path)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("size", [[-5, 0], [480, 0], [0, 640], [True, 640]])
    def test_non_positive_image_size(self, tmp_path, size):
        path = self.write(tmp_path, lambda raw: raw.update(image_size=size))
        with pytest.raises(ValidationError, match="image_size"):
            load_camera(path)

    def test_huge_focal_length(self, tmp_path):
        path = self.write(tmp_path, lambda raw: raw["intrinsic"].__setitem__(0, 1e308))
        with pytest.raises(ValidationError, match="intrinsic"):
            load_camera(path)

    def test_overflowing_translation(self, tmp_path):
        # 1e999 is valid JSON number syntax and parses to an infinite float.
        path = self.write(tmp_path, lambda raw: raw["extrinsic"].__setitem__(3, 123.25))
        path.write_text(path.read_text().replace("123.25", "1e999"))
        with pytest.raises(ValidationError, match="extrinsic"):
            load_camera(path)


def _set(*keys, value=True):
    """An edit that sets the entry at ``keys`` of a loaded JSON document."""
    def edit(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value
    return edit


def _sparse_frame(path):
    frame = make_frame(np.random.default_rng(18), count=3)
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = 0.5
    save_prediction_frame(PredictionFrame(frame_id="b", keypoints=frame.keypoints,
                                          adjacency=adjacency), path)


def _lane_file(path):
    save_lane_frame("b", [LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], 1, 0.5)], path)


def _head_file(path):
    save_head_weights(random_head_weights(0, d_c=1, dims_per_axis=1, hidden=2, embed=2), path)


def _dense_frame(path):
    save_prediction_frame(make_frame(np.random.default_rng(19), count=3), path)


def _gt_file(path):
    save_ground_truth({"a": [GroundTruthLane([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], 1)]}, path)


def _all_scores_true(raw):
    for keypoint in raw["keypoints"]:
        keypoint["class_scores"] = [True] * len(keypoint["class_scores"])


def _camera_file(path):
    save_camera(make_forward_camera(), path)


class TestBooleansAreNotNumbers:
    """JSON ``true`` and ``false`` are rejected wherever a number belongs,
    naming the field, although Python's bool is an int."""

    @pytest.mark.parametrize("write, load, edit, field", [
        (_sparse_frame, load_prediction_frame, _set("keypoints", 0, "row"),
         r"keypoints\[0\]\.row"),
        (_sparse_frame, load_prediction_frame, _set("keypoints", 1, "fg_score"),
         r"keypoints\[1\]\.fg_score"),
        (_sparse_frame, load_prediction_frame, _set("keypoints", 2, "x", value=False),
         r"keypoints\[2\]\.x"),
        (_sparse_frame, load_prediction_frame, _set("repeats_n"), "repeats_n"),
        (_sparse_frame, load_prediction_frame, _set("categories", value=False), "categories"),
        (_sparse_frame, load_prediction_frame, _set("adjacency", "size"), r"adjacency\.size"),
        (_sparse_frame, load_prediction_frame, _set("adjacency", "triplets", 0, 2),
         r"adjacency\.triplets\[0\]"),
        (_sparse_frame, load_prediction_frame, _set("adjacency", "triplets", 0, 0, value=False),
         r"adjacency\.triplets\[0\]"),
        (_lane_file, load_lane_frame, _set("lanes", 0, "category"), r"lanes\[0\]\.category"),
        (_lane_file, load_lane_frame, _set("lanes", 0, "confidence"),
         r"lanes\[0\]\.confidence"),
        (_head_file, load_head_weights, _set("final.b"), r"final\.b")],
        ids=["row", "fg_score", "x", "repeats_n", "categories", "size", "triplet-prob",
             "triplet-index", "category", "confidence", "final.b"])
    def test_bool_names_the_field(self, tmp_path, write, load, edit, field):
        path = tmp_path / "file.json"
        write(path)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=field):
            load(path)

    @pytest.mark.parametrize("write, load, edit, field", [
        (_lane_file, load_lane_frame, _set("lanes", 0, "points", 1, 0), r"lanes\[0\]: points"),
        (_gt_file, load_ground_truth, _set("frames", 0, "lanes", 0, "points", 0, 2, value=False),
         r"frames\[0\]\.lanes\[0\]: points"),
        (_sparse_frame, load_prediction_frame, _set("keypoints", 1, "class_scores", 0),
         r"keypoints\.class_scores"),
        (_sparse_frame, load_prediction_frame, _all_scores_true, r"keypoints\.class_scores"),
        (_dense_frame, load_prediction_frame, _set("adjacency", "probs", 2, 1),
         r"adjacency\.probs"),
        (_camera_file, load_camera, _set("intrinsic", 0), "intrinsic"),
        (_camera_file, load_camera, _set("extrinsic", 15, value=False), "extrinsic"),
        (_head_file, load_head_weights, _set("origin.w1", 0, 0), r"origin\.w1"),
        (_head_file, load_head_weights, _set("final.w", value=[True, False]), r"final\.w")],
        ids=["lane-points", "gt-points", "class_scores", "all-class_scores", "probs",
             "intrinsic", "extrinsic", "w1", "final.w"])
    def test_bool_in_a_number_list_names_the_field(self, tmp_path, write, load, edit, field):
        path = tmp_path / "file.json"
        write(path)
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match=field + ": expected numbers, got a boolean"):
            load(path)


_floats = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0, 1)


@st.composite
def proposal_sets(draw):
    """A valid ProposalSet: N in [0, 6] proposals of C in [0, 3] class scores."""
    n, width = draw(st.integers(0, 6)), draw(st.integers(0, 3))

    def column(elements, shape):
        count = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=count, max_size=count)),
                        dtype=float).reshape(shape)

    grid_index = np.array(draw(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1),
                                                  st.integers(-2 ** 63, 2 ** 63 - 1)),
                                        min_size=n, max_size=n)), dtype=np.int64)
    return ProposalSet.from_arrays(grid_index.reshape(n, 2), column(_floats, n),
                                   column(_floats, n), column(_floats, n), column(_floats, n),
                                   column(_unit, n), column(_unit, (n, width)),
                                   repeats_n=draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(proposal_sets(), st.data())
def test_prediction_frame_round_trips_every_column(proposals, data):
    n = len(proposals)
    adjacency = np.array(data.draw(st.lists(_unit, min_size=n * n, max_size=n * n)),
                         dtype=float).reshape(n, n)
    frame = PredictionFrame(frame_id="rt", keypoints=proposals, adjacency=adjacency)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.json"
        save_prediction_frame(frame, path)
        loaded = load_prediction_frame(path)
    assert loaded.keypoints.repeats_n == proposals.repeats_n
    for name in ("grid_index", "x", "y", "dx", "z", "fg_score", "class_scores"):
        again, want = getattr(loaded.keypoints, name), getattr(proposals, name)
        assert again.dtype == want.dtype and np.array_equal(again, want), name
    assert np.array_equal(loaded.adjacency, frame.adjacency)
