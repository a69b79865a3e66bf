import json

import numpy as np
import pytest

from lanekit.errors import SchemaError, ValidationError
from lanekit.geometry import build_uniform_grid, make_forward_camera
from lanekit.io import (
    PredictionFrame,
    load_camera,
    load_ground_truth,
    load_head_weights,
    load_prediction_frame,
    save_camera,
    save_grid_csv,
    save_ground_truth,
    save_head_weights,
    save_prediction_frame,
)
from lanekit.metrics import GroundTruthLane
from lanekit.nms import Keypoint, ProposalSet
from lanekit.connection_head import random_head_weights


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
    if len(a.keypoints.keypoints) != len(b.keypoints.keypoints):
        return False
    for ka, kb in zip(a.keypoints.keypoints, b.keypoints.keypoints):
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
        assert len(loaded.keypoints.keypoints) == 1
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
        save_prediction_frame(frame, path, sparse_adjacency=True)
        raw = json.loads(path.read_text())
        assert raw["adjacency"]["format"] == "sparse"
        assert len(raw["adjacency"]["triplets"]) == 2
        assert frames_equal(load_prediction_frame(path), frame)

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
