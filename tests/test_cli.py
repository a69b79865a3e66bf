import json

import numpy as np
import pytest

from lanekit.cli import main
from lanekit.io import load_lane_frame, load_prediction_frame


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scene(tmp_path):
    pred = tmp_path / "frame.json"
    gt = tmp_path / "gt.json"
    assert run(["synth", "--seed", 7, "--lanes", 3,
                "--out-pred", pred, "--out-gt", gt]) == 0
    return pred, gt


class TestExitCodes:
    def test_usage_error_is_exit_2_missing_args(self):
        with pytest.raises(SystemExit) as err:
            run(["extract"])
        assert err.value.code == 2

    def test_usage_error_is_exit_2_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2

    def test_missing_file_is_exit_1(self, tmp_path):
        assert run(["extract", "--pred", tmp_path / "nope.json",
                    "--out", tmp_path / "out.json"]) == 1

    def test_malformed_json_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["extract", "--pred", bad, "--out", tmp_path / "out.json"]) == 1

    def test_bad_spec_value_is_exit_1(self, tmp_path):
        assert run(["synth", "--seed", 1, "--dropout", "1.5",
                    "--out-pred", tmp_path / "f.json"]) == 1

    @pytest.mark.parametrize("command", ["nms", "extract"])
    def test_iou_outside_unit_interval_is_exit_1(self, scene, tmp_path, capsys, command):
        pred, _ = scene
        out = tmp_path / "out.json"
        assert run([command, "--pred", pred, "--iou", "-1", "--out", out]) == 1
        assert "iou_thresh" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineCommands:
    def test_extract_then_eval_perfect(self, scene, tmp_path, capsys):
        pred, gt = scene
        lanes = tmp_path / "lanes.json"
        assert run(["extract", "--pred", pred, "--out", lanes]) == 0
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", lanes, "--gt", gt,
                    "--report", report, "--per-frame"]) == 0
        out = capsys.readouterr().out
        assert "F1=1.0000" in out
        payload = json.loads(report.read_text())
        assert {r["threshold"] for r in payload["aggregate"]} == {1.5, 0.5}
        for r in payload["aggregate"]:
            assert r["f1"] == 1.0
        assert "scene-7" in payload["per_frame"]

    def test_eval_directory_input(self, tmp_path):
        gt_all = {}
        lane_dir = tmp_path / "lanes"
        lane_dir.mkdir()
        for seed in (1, 2, 3):
            pred = tmp_path / f"frame{seed}.json"
            gt = tmp_path / f"gt{seed}.json"
            assert run(["synth", "--seed", seed, "--out-pred", pred,
                        "--out-gt", gt]) == 0
            assert run(["extract", "--pred", pred,
                        "--out", lane_dir / f"s{seed}.json"]) == 0
            gt_all[f"scene-{seed}"] = json.loads(gt.read_text())["frames"][0]["lanes"]
        merged = tmp_path / "gt_all.json"
        merged.write_text(json.dumps({"frames": [
            {"frame_id": fid, "lanes": lanes} for fid, lanes in gt_all.items()]}))
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", lane_dir, "--gt", merged,
                    "--threshold", "1.5", "--report", report]) == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"][0]["f1"] == 1.0
        assert payload["aggregate"][0]["tp"] == 9

    def test_eval_non_finite_lane_point_is_exit_1(self, scene, tmp_path, capsys):
        _, gt = scene
        lanes = tmp_path / "lanes.json"
        lanes.write_text('{"frame_id": "scene-7", "lanes": [{"category": 0, '
                         '"confidence": 0.9, "points": [[0, 5, 0], [1e999, 10, 0]]}]}')
        assert run(["eval", "--pred", lanes, "--gt", gt]) == 1
        assert "points[1]: not finite" in capsys.readouterr().err

    def test_nms_prunes_and_keeps_format(self, scene, tmp_path):
        pred, _ = scene
        out = tmp_path / "pruned.json"
        assert run(["nms", "--pred", pred, "--out", out]) == 0
        frame = load_prediction_frame(out)
        original = load_prediction_frame(pred)
        assert 0 < len(frame.keypoints) < len(original.keypoints)
        assert frame.adjacency.shape == (len(frame.keypoints),) * 2

    def test_extract_threshold_flags(self, scene, tmp_path):
        pred, _ = scene
        out = tmp_path / "lanes.json"
        assert run(["extract", "--pred", pred, "--t-a", "0.99",
                    "--min-lane-points", "2", "--out", out]) == 0
        _, lanes = load_lane_frame(out)
        assert len(lanes) == 3


class TestMatchCommand:
    def test_strongest_match_emits_chain_targets(self, scene, tmp_path):
        pred, gt = scene
        out = tmp_path / "match.json"
        assert run(["match", "--pred", pred, "--gt", gt,
                    "--strongest", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["pairs"]) == 36
        targets = payload["connection_targets"]
        assert len(targets) == 3 * 11
        src_counts = np.bincount([s for s, _ in targets])
        dst_counts = np.bincount([d for _, d in targets])
        assert src_counts.max() <= 1 and dst_counts.max() <= 1

    def test_duplicate_match_covers_all_gts_without_targets(self, scene, tmp_path):
        pred, gt = scene
        out = tmp_path / "match.json"
        assert run(["match", "--pred", pred, "--gt", gt, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["pairs"]) == 72
        assert payload["connection_targets"] is None
        assert payload["unmatched_gts"] == []

    def test_unknown_frame_id_is_exit_1(self, scene, tmp_path):
        pred, gt = scene
        assert run(["match", "--pred", pred, "--gt", gt,
                    "--frame-id", "missing"]) == 1


class TestGeometryCommands:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["grid", "--mode", "custom", "--rows", 5, "--cols", 4,
                    "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "row,col,x,y"
        assert len(lines) == 1 + 5 * 4

    def test_grid_preset(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["grid", "--preset", "large", "--out", out]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 72 * 128

    def test_project_default_camera(self, tmp_path):
        out = tmp_path / "proj.csv"
        assert run(["project", "--rows", 6, "--cols", 8, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "row,col,u,v,valid"
        assert len(lines) == 1 + 6 * 8

