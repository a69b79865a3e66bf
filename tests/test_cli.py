import argparse
import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import lanekit.cli
from lanekit.cli import COMMANDS, build_parser, main
from lanekit.config import MODEL_PRESETS
from lanekit.geometry import build_custom_grid, build_uniform_grid
from lanekit.io import (LaneRecord, PredictionFrame, json_text, load_ground_truth,
                        load_lane_frame, load_prediction_frame, save_ground_truth,
                        save_lane_frame, save_prediction_frame)
from lanekit.matching import match_keypoints
from lanekit.metrics import evaluate
from lanekit.pipeline import run_pipeline, suppress
from lanekit.synthetic import SceneSpec, generate_scene, gt_keypoints


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

    @pytest.mark.parametrize("threshold, message", [
        (",", "thresholds: empty threshold list"),
        ("1.5,abc", "thresholds[1]: not a number: 'abc'")])
    def test_bad_threshold_list_is_exit_2_with_its_message(self, capsys, threshold, message):
        with pytest.raises(SystemExit) as err:
            run(["eval", "--pred", "l.json", "--gt", "g.json", f"--threshold={threshold}"])
        assert err.value.code == 2
        assert f"argument --threshold: {message}\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["nms", "extract"])
    @pytest.mark.parametrize("flag, value", [("--thresh-x", "inf"), ("--thresh-x", "1e300"),
                                             ("--thresh-y", "inf"), ("--thresh-y", "nan")])
    def test_non_finite_or_huge_threshold_is_exit_1(self, scene, tmp_path, capsys,
                                                    command, flag, value):
        pred, _ = scene
        out = tmp_path / "out.json"
        assert run([command, "--pred", pred, flag, value, "--out", out]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


    def test_overflowing_refined_x_is_exit_1(self, scene, tmp_path, capsys):
        pred, _ = scene
        raw = json.loads(pred.read_text())
        raw["keypoints"][1].update(x=1e308, dx=1e308)
        pred.write_text(json.dumps(raw))
        out = tmp_path / "out.json"
        assert run(["extract", "--pred", pred, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: keypoints[1].x + dx must be finite, got inf\n")
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

    def test_eval_per_frame_equals_evaluating_each_frame_alone(self, tmp_path):
        rng = np.random.default_rng(5)
        lane_dir = tmp_path / "lanes"
        lane_dir.mkdir()
        gts = {}
        for f in range(4):
            fid = f"f{f}"
            gts[fid] = [LaneRecord([[x, 1.0, 0.0], [x + rng.uniform(-1, 1), 90.0, 0.1]])
                        for x in (-3.5, 0.0, 3.5)[:f + 1]]
            preds = [LaneRecord(g.points + [rng.normal(0, 0.6), 0.0, 0.0],
                                confidence=float(rng.uniform(0.05, 0.95)))
                     for g in gts[fid] if rng.random() < 0.8]
            save_lane_frame(fid, preds, lane_dir / f"{fid}.json")
        save_ground_truth(gts, tmp_path / "gt.json")
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", lane_dir, "--gt", tmp_path / "gt.json",
                    "--threshold", "1.5,0.5", "--report", report, "--per-frame"]) == 0
        payload = json.loads(report.read_text())
        loaded_gts = load_ground_truth(tmp_path / "gt.json")
        assert sorted(payload["per_frame"]) == sorted(gts)
        for fid, frame_reports in payload["per_frame"].items():
            _, preds = load_lane_frame(lane_dir / f"{fid}.json")
            alone = evaluate({fid: preds}, {fid: loaded_gts[fid]}, thresholds=(1.5, 0.5))
            assert frame_reports == [r.as_dict() for r in alone]
        all_preds = {fid: load_lane_frame(lane_dir / f"{fid}.json")[1] for fid in gts}
        assert payload["aggregate"] == [
            r.as_dict() for r in evaluate(all_preds, loaded_gts, thresholds=(1.5, 0.5))]

    @pytest.mark.parametrize("threshold", ["nan", "-1", "1.5,inf"])
    def test_eval_bad_threshold_is_exit_1(self, scene, tmp_path, capsys, threshold):
        pred, gt = scene
        lanes = tmp_path / "lanes.json"
        assert run(["extract", "--pred", pred, "--out", lanes]) == 0
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", lanes, "--gt", gt, f"--threshold={threshold}",
                    "--report", report]) == 1
        assert "threshold" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_non_finite_lane_point_is_exit_1(self, scene, tmp_path, capsys):
        _, gt = scene
        lanes = tmp_path / "lanes.json"
        lanes.write_text('{"frame_id": "scene-7", "lanes": [{"category": 0, '
                         '"confidence": 0.9, "points": [[0, 5, 0], [1e999, 10, 0]]}]}')
        assert run(["eval", "--pred", lanes, "--gt", gt]) == 1
        assert "points[1] must be finite, got inf" in capsys.readouterr().err

    def test_eval_directory_error_names_the_file(self, scene, tmp_path, capsys):
        _, gt = scene
        lane_dir = tmp_path / "lanes"
        lane_dir.mkdir()
        good = {"category": 0, "confidence": 0.9, "points": [[0, 5, 0], [0, 10, 0]]}
        (lane_dir / "f0.json").write_text(json.dumps({"frame_id": "a", "lanes": [good]}))
        (lane_dir / "f1.json").write_text(json.dumps({"frame_id": "b", "lanes": [
            {**good, "points": [[0, 10, 0], [0, 5, 0]]}]}))
        assert run(["eval", "--pred", lane_dir, "--gt", gt]) == 1
        assert capsys.readouterr().err == (
            "error: f1.json: lanes[0]: lane points must have non-decreasing y\n")

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

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_is_exit_1(self, scene, tmp_path, capsys, repeats):
        pred, gt = scene
        out = tmp_path / "match.json"
        assert run(["match", "--pred", pred, "--gt", gt, f"--repeats={repeats}",
                    "--out", out]) == 1
        assert "repeats_n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--lambda-dist", "nan"),
                                             ("--lambda-cls", "inf"),
                                             ("--lambda-dist", "-1")])
    def test_non_finite_or_negative_weight_is_exit_1(self, scene, tmp_path, capsys,
                                                      flag, value):
        pred, gt = scene
        out = tmp_path / "match.json"
        assert run(["match", "--pred", pred, "--gt", gt, f"{flag}={value}",
                    "--out", out]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


class TestSynthGrid:
    """``synth`` draws on the uniform grid, or on the custom grid under
    ``--mode custom`` or a ``--preset``."""

    @pytest.mark.parametrize("args, name", [
        (["--x-max", "inf"], "x_range"),
        (["--x-min=-1e308", "--x-max", "1e308"], "x_range"),
        (["--mode", "custom", "--width", "inf"], "width")])
    def test_huge_or_non_finite_grid_is_exit_1(self, tmp_path, capsys, args, name):
        out = tmp_path / "frame.json"
        assert run(["synth", "--seed", 1, *args, "--out-pred", out]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    CUSTOM_OPTIONS = ["--spacing-near", "--spacing-far", "--width", "--y-origin"]

    @pytest.mark.parametrize("option", CUSTOM_OPTIONS)
    def test_custom_grid_option_on_the_uniform_grid_is_exit_1(self, tmp_path, capsys, option):
        out = tmp_path / "frame.json"
        assert run(["synth", "--seed", 1, option, 1, "--out-pred", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {option} shapes the custom grid only; give --mode custom or --preset\n")
        assert not out.exists()
        assert run(["synth", "--seed", 1, "--mode", "custom", option, 1, "--out-pred", out]) == 0

    @pytest.mark.parametrize("option", CUSTOM_OPTIONS)
    def test_custom_grid_option_shapes_the_preset_grid(self, tmp_path, option):
        assert run(["synth", "--seed", 1, "--preset", "lite", option, 1.25,
                    "--out-pred", tmp_path / "got.json"]) == 0
        rows, cols = MODEL_PRESETS["lite"].bev_shape
        for name, grid in [("want.json", build_custom_grid(
                               rows, cols, **{option[2:].replace("-", "_"): 1.25})),
                           ("preset.json", build_custom_grid(rows, cols))]:
            save_prediction_frame(generate_scene(SceneSpec(seed=1), grid)[1], tmp_path / name)
        got = (tmp_path / "got.json").read_bytes()
        assert got == (tmp_path / "want.json").read_bytes()
        assert got != (tmp_path / "preset.json").read_bytes()

    # Each uniform-grid option, a value for it, and the library argument it sets.
    UNIFORM_OPTIONS = [("--rows", 5, "rows"), ("--cols", 9, "cols"),
                       ("--y-min", 4.0, "y_range"), ("--y-max", 50.0, "y_range"),
                       ("--x-min", -9.0, "x_range"), ("--x-max", 9.0, "x_range")]

    @pytest.mark.parametrize("grid, under, option", [
        *[(["--preset", "lite"], "--preset", option) for option, _, _ in UNIFORM_OPTIONS],
        *[(["--mode", "custom"], "--mode custom", option)
          for option, _, _ in UNIFORM_OPTIONS[2:]]],
        ids=[f"preset-{option[2:]}" for option, _, _ in UNIFORM_OPTIONS]
        + [f"custom-{option[2:]}" for option, _, _ in UNIFORM_OPTIONS[2:]])
    def test_option_the_grid_does_not_read_is_exit_1(self, tmp_path, capsys, grid, under,
                                                      option):
        out = tmp_path / "frame.json"
        assert run(["synth", "--seed", 1, *grid, option, 1, "--out-pred", out]) == 1
        assert capsys.readouterr().err == f"error: {option} is not read under {under}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["uniform", "custom"])
    def test_mode_under_preset_is_exit_1(self, tmp_path, capsys, mode):
        out = tmp_path / "frame.json"
        assert run(["synth", "--seed", 1, "--preset", "lite", "--mode", mode,
                    "--out-pred", out]) == 1
        assert capsys.readouterr().err == "error: --mode is not read under --preset\n"
        assert not out.exists()

    def test_mode_uniform_is_the_left_out_mode(self, tmp_path):
        for name, mode in [("given.json", ["--mode", "uniform"]), ("left-out.json", [])]:
            assert run(["synth", "--seed", 1, *mode, "--out-pred", tmp_path / name]) == 0
        assert (tmp_path / "given.json").read_bytes() == (tmp_path / "left-out.json").read_bytes()

    @pytest.mark.parametrize("option, value, name", UNIFORM_OPTIONS)
    def test_uniform_grid_option_shapes_the_uniform_grid(self, tmp_path, option, value, name):
        assert run(["synth", "--seed", 1, option, value, "--out-pred", tmp_path / "got.json"]) == 0
        want = dict(TestLeftOutOptions.CLI_GRID)
        if name in ("rows", "cols"):
            want[name] = value
        else:
            low, high = want[name]
            want[name] = (value, high) if option.endswith("min") else (low, value)
        save_prediction_frame(generate_scene(SceneSpec(seed=1), build_uniform_grid(**want))[1],
                              tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("option, name", [("--rows", "rows"), ("--cols", "cols")])
    def test_rows_and_cols_shape_the_custom_grid(self, tmp_path, option, name):
        assert run(["synth", "--seed", 1, "--mode", "custom", option, 9,
                    "--out-pred", tmp_path / "got.json"]) == 0
        shape = {"rows": 12, "cols": 32, name: 9}
        save_prediction_frame(generate_scene(SceneSpec(seed=1), build_custom_grid(**shape))[1],
                              tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_preset(self, tmp_path):
        assert run(["synth", "--seed", 1, "--preset", "large",
                    "--out-pred", tmp_path / "got.json"]) == 0
        _, frame = generate_scene(SceneSpec(seed=1),
                                  build_custom_grid(*MODEL_PRESETS["large"].bev_shape))
        save_prediction_frame(frame, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


class TestNoOutputOverAnInput:
    """No command writes over a file or directory it reads, and no two of
    its outputs share a path; such a call reads and writes nothing."""

    @pytest.fixture()
    def files(self, scene, tmp_path):
        pred, gt = scene
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "a.json").write_bytes(pred.read_bytes())
        lanes = tmp_path / "lanes.json"
        assert run(["extract", "--pred", pred, "--out", lanes]) == 0
        # The same file as "frame", named through another directory.
        (tmp_path / "gt-link.json").symlink_to(gt)
        return {"frame": pred, "frame-again": frames / ".." / pred.name, "gt": gt,
                "gt-link": tmp_path / "gt-link.json", "frames": frames,
                "frames-again": frames / ".." / frames.name, "lanes": lanes,
                "file-in-frames": frames / "a.json", "new-in-frames": frames / "new.json"}

    @pytest.mark.parametrize("argv, message", [
        (["nms", "--pred", "frame", "--out", "frame"], "--out and --pred name the same path"),
        (["extract", "--pred", "frame", "--out", "frame-again"],
         "--out and --pred name the same path"),
        (["extract", "--pred", "frames", "--out", "frames"],
         "--out and --pred name the same path"),
        (["match", "--pred", "frame", "--gt", "gt", "--out", "gt"],
         "--out and --gt name the same path"),
        (["eval", "--pred", "lanes", "--gt", "gt", "--report", "lanes"],
         "--report and --pred name the same path"),
        (["synth", "--seed", "1", "--out-pred", "gt", "--out-gt", "gt"],
         "--out-gt and --out-pred name the same path"),
        (["nms", "--pred", "frame", "--out", "frame-again"],
         "--out and --pred name the same path"),
        (["extract", "--pred", "frames", "--out", "frames-again"],
         "--out and --pred name the same path"),
        (["match", "--pred", "frame", "--gt", "gt", "--out", "frame"],
         "--out and --pred name the same path"),
        (["eval", "--pred", "lanes", "--gt", "gt", "--report", "gt-link"],
         "--report and --gt name the same path"),
        (["eval", "--pred", "frames", "--gt", "gt", "--report", "frames"],
         "--report and --pred name the same path"),
        (["synth", "--seed", "1", "--out-pred", "gt-link", "--out-gt", "gt"],
         "--out-gt and --out-pred name the same path"),
        (["eval", "--pred", "frames", "--gt", "gt", "--report", "file-in-frames"],
         "--report names a .json file in the --pred directory"),
        (["eval", "--pred", "frames-again", "--gt", "gt", "--report", "new-in-frames"],
         "--report names a .json file in the --pred directory"),
        (["extract", "--pred", "frames", "--out", "new-in-frames"],
         "--out names a .json file in the --pred directory")],
        ids=["nms", "extract", "extract-dir", "match", "eval", "synth", "nms-dotted",
             "extract-dir-dotted", "match-pred", "eval-gt-link", "eval-dir", "synth-link",
             "eval-file-in-dir", "eval-new-file-in-dir", "extract-new-file-in-dir"])
    def test_shared_path_is_exit_1_naming_both_options(self, files, tmp_path, capsys,
                                                        argv, message):
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run([files.get(word, word) for word in argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message} ")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not files["new-in-frames"].exists()

    def test_other_files_beside_a_pred_directory_are_fine(self, files, tmp_path):
        # A report one level below the --pred directory, or beside it, is
        # not one of the files the directory's run reads.
        lanes = tmp_path / "lane-files"
        lanes.mkdir()
        (lanes / "a.json").write_bytes(files["lanes"].read_bytes())
        (lanes / "sub").mkdir()
        for report in (lanes / "sub" / "r.json", tmp_path / "r.json", lanes / "r.txt"):
            assert run(["eval", "--pred", lanes, "--gt", files["gt"], "--report", report]) == 0
            assert report.exists()


class TestExtractDirectory:
    """``extract --pred DIR --out DIR``: one process, one lane file per frame."""

    @pytest.fixture()
    def frames(self, tmp_path):
        pred = tmp_path / "frames"
        pred.mkdir()
        for seed, name in ((5, "b.json"), (6, "a.json"), (7, "c.json")):
            assert run(["synth", "--seed", seed, "--lanes", 3, "--noise-x", "0.1",
                        "--dropout", "0.05", "--out-pred", pred / name]) == 0
        (pred / "notes.txt").write_text("not a frame\n")
        return pred

    def test_each_lane_file_equals_a_single_file_extract(self, frames, tmp_path, capsys):
        out = tmp_path / "lanes"
        assert run(["extract", "--pred", frames, "--out", out, "--t-a", "0.6"]) == 0
        assert "from 3 frames" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["a.json", "b.json", "c.json"]
        for name in ("a.json", "b.json", "c.json"):
            single = tmp_path / f"single-{name}"
            assert run(["extract", "--pred", frames / name, "--out", single,
                        "--t-a", "0.6"]) == 0
            assert (out / name).read_bytes() == single.read_bytes()

    def test_existing_output_directory_is_reused(self, frames, tmp_path):
        out = tmp_path / "lanes"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run(["extract", "--pred", frames, "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "a.json", "b.json", "c.json", "keep.txt"]

    def test_lane_files_evaluate_as_a_sequence(self, frames, tmp_path):
        out = tmp_path / "lanes"
        assert run(["extract", "--pred", frames, "--out", out]) == 0
        ids = {load_lane_frame(p)[0] for p in out.iterdir()}
        assert ids == {load_prediction_frame(p).frame_id for p in frames.glob("*.json")}

    def test_no_frame_files_is_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "frame.txt").write_text("{}")
        assert run(["extract", "--pred", empty, "--out", tmp_path / "lanes"]) == 1
        assert "no .json frame files" in capsys.readouterr().err
        assert not (tmp_path / "lanes").exists()

    def test_duplicate_frame_id_is_exit_1(self, frames, tmp_path, capsys):
        (frames / "d.json").write_bytes((frames / "a.json").read_bytes())
        out = tmp_path / "lanes"
        assert run(["extract", "--pred", frames, "--out", out]) == 1
        assert "duplicate frame_id" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_regular_file_is_exit_1(self, frames, tmp_path, capsys):
        out = tmp_path / "lanes.json"
        out.write_text("keep me\n")
        assert run(["extract", "--pred", frames, "--out", out]) == 1
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep me\n"

    def test_a_bad_frame_leaves_no_output(self, frames, tmp_path):
        (frames / "z.json").write_text("{broken")
        out = tmp_path / "lanes"
        assert run(["extract", "--pred", frames, "--out", out]) == 1
        assert not out.exists()

    def test_a_bad_frame_is_named_by_its_file(self, frames, tmp_path, capsys):
        raw = json.loads((frames / "b.json").read_text())
        raw["keypoints"][1]["fg_score"] = 1.5
        (frames / "b.json").write_text(json.dumps(raw))
        assert run(["extract", "--pred", frames, "--out", tmp_path / "lanes"]) == 1
        assert capsys.readouterr().err == (
            "error: b.json: keypoints[1].fg_score must lie in [0, 1], got 1.5\n")


class TestLeftOutOptions:
    """Run with no optional options, a command writes the same bytes as the
    library call with its own defaults.  The one default the CLI states is
    the uniform grid's geometry, ``CLI_GRID``."""

    CLI_GRID = dict(rows=12, cols=32, y_range=(3.0, 58.0), x_range=(-8.0, 8.0))

    @staticmethod
    def assert_same_files(tmp_path, *names):
        for name in names:
            assert (tmp_path / f"got-{name}").read_bytes() == (tmp_path / name).read_bytes()

    def test_extract(self, scene, tmp_path):
        pred, _ = scene
        assert run(["extract", "--pred", pred, "--out", tmp_path / "got-lanes.json"]) == 0
        frame = load_prediction_frame(pred)
        save_lane_frame(frame.frame_id, run_pipeline(frame).lanes, tmp_path / "lanes.json")
        self.assert_same_files(tmp_path, "lanes.json")

    def test_nms(self, scene, tmp_path):
        pred, _ = scene
        assert run(["nms", "--pred", pred, "--out", tmp_path / "got-kept.json"]) == 0
        frame = load_prediction_frame(pred)
        _, kept, adjacency = suppress(frame)
        save_prediction_frame(PredictionFrame(frame.frame_id, kept, adjacency, frame.camera),
                              tmp_path / "kept.json")
        self.assert_same_files(tmp_path, "kept.json")

    def test_synth(self, tmp_path):
        assert run(["synth", "--seed", 7, "--out-pred", tmp_path / "got-frame.json",
                    "--out-gt", tmp_path / "got-gt.json"]) == 0
        gt, frame = generate_scene(SceneSpec(seed=7), build_uniform_grid(**self.CLI_GRID))
        save_prediction_frame(frame, tmp_path / "frame.json")
        save_ground_truth({frame.frame_id: gt}, tmp_path / "gt.json")
        self.assert_same_files(tmp_path, "frame.json", "gt.json")

    def test_match(self, scene, capsys):
        pred, gt = scene
        capsys.readouterr()
        assert run(["match", "--pred", pred, "--gt", gt]) == 0
        frame = load_prediction_frame(pred)
        # Left out, --repeats is the frame's own repeats_n (2 here: duplicated
        # matching, so no chain targets).
        matching = match_keypoints(frame.keypoints,
                                   gt_keypoints(load_ground_truth(gt)[frame.frame_id]),
                                   repeats_n=frame.keypoints.repeats_n)
        assert frame.keypoints.repeats_n == 2
        assert capsys.readouterr().out == json_text({
            "frame_id": frame.frame_id,
            "pairs": [[int(p), int(g)] for p, g in matching.pairs],
            "unmatched_proposals": [int(p) for p in matching.unmatched_proposals],
            "unmatched_gts": [int(g) for g in matching.unmatched_gts],
            "connection_targets": None})

    def test_eval(self, scene, tmp_path):
        pred, gt = scene
        frame = load_prediction_frame(pred)
        lanes = run_pipeline(frame).lanes
        save_lane_frame(frame.frame_id, lanes, tmp_path / "lanes.json")
        assert run(["eval", "--pred", tmp_path / "lanes.json", "--gt", gt,
                    "--report", tmp_path / "got-report.json"]) == 0
        reports = evaluate({frame.frame_id: lanes}, load_ground_truth(gt))
        (tmp_path / "report.json").write_text(json_text(
            {"aggregate": [r.as_dict() for r in reports]}))
        self.assert_same_files(tmp_path, "report.json")


def _restated_defaults(source):
    """``line: option`` of each ``add_argument`` call in ``source`` with a
    ``default=`` other than ``SUPPRESS``.  synth's grid mode and uniform
    grid are the CLI's own, but held in ``_UNIFORM_MODE`` and
    ``_UNIFORM_GRID``, so their options are SUPPRESS like the rest."""
    found = []
    for call in ast.walk(ast.parse(source)):
        if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument"):
            continue
        option = getattr(call.args[0], "value", None) if call.args else None
        for keyword in call.keywords:
            if (keyword.arg == "default"
                    and ast.unparse(keyword.value) not in ("SUPPRESS", "argparse.SUPPRESS")):
                found.append(f"{call.lineno}: {option}")
    return found


def test_guard_finds_a_restated_default():
    source = ('p.add_argument("--iou", dest="iou_thresh", type=float, default=0.1)\n'
              'p.add_argument("--mode", choices=("uniform", "custom"), default="uniform")\n'
              'p.add_argument("--r", type=int, default=SUPPRESS)\n'
              'p.add_argument("--t-a", type=float, default=argparse.SUPPRESS)\n'
              'p.add_argument("--strongest", action="store_true", default=False)\n'
              'p.add_argument("--out", required=True)\n')
    assert _restated_defaults(source) == ["1: --iou", "2: --mode", "5: --strongest"]
    cli = Path(lanekit.cli.__file__).read_text()
    iou = '"--iou", dest="iou_thresh", type=float, default=SUPPRESS'
    assert cli.count(iou) == 1
    planted = _restated_defaults(cli.replace(iou, iou.replace("SUPPRESS", "0.1")))
    assert [finding.split(": ")[1] for finding in planted] == ["--iou"]


def test_cli_states_no_library_default():
    """A left-out option takes the library function's default, so the
    default has one owner; only the uniform grid's geometry is the CLI's."""
    assert _restated_defaults(Path(lanekit.cli.__file__).read_text()) == []


# One argv per subcommand, setting every one of its options.
REPRESENTATIVE_ARGV = {
    "nms": ["nms", "--pred", "f.json", "--thresh-x", "0.5", "--thresh-y", "2", "--r", "5",
            "--iou", "0.2", "--out", "o.json"],
    "extract": ["extract", "--pred", "f.json", "--t-a", "0.4", "--min-lane-points", "3",
                "--thresh-x", "0.5", "--thresh-y", "2", "--r", "5", "--iou", "0.2",
                "--out", "l.json"],
    "match": ["match", "--pred", "f.json", "--gt", "g.json", "--frame-id", "a",
              "--repeats", "2", "--strongest", "--lambda-dist", "2", "--lambda-cls", "0.5",
              "--out", "m.json"],
    "eval": ["eval", "--pred", "l.json", "--gt", "g.json", "--threshold", "1.5,0.5",
             "--report", "r.json", "--per-frame"],
    "synth": ["synth", "--mode", "custom", "--rows", "4", "--cols", "6", "--y-min", "2",
              "--y-max", "40", "--x-min", "-5", "--x-max", "5", "--spacing-near", "0.4",
              "--spacing-far", "2", "--width", "18", "--y-origin", "2.5", "--preset", "lite",
              "--seed", "3", "--lanes", "2", "--noise-x", "0.1", "--noise-z", "0.05",
              "--dropout", "0.1", "--n", "3", "--distractors", "0.2", "--strong-distractors",
              "--out-pred", "f.json", "--out-gt", "g.json"],
}


def subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def usage_error(parser, argv, capsys):
    """The exit code and stderr of a parse of ``argv`` that fails."""
    with pytest.raises(SystemExit) as err:
        parser.parse_args(argv)
    return err.value.code, capsys.readouterr().err


class TestParser:
    @pytest.mark.parametrize("name", COMMANDS)
    def test_representative_argv_sets_every_option(self, name):
        options = {option for action in subparser(build_parser(name), name)._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options <= set(REPRESENTATIVE_ARGV[name])

    @pytest.mark.parametrize("name", COMMANDS)
    def test_one_command_parser_parses_like_the_full_one(self, name):
        argv = REPRESENTATIVE_ARGV[name]
        assert build_parser(name).parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_one_command_parser_prints_the_same_help_and_usage(self, name):
        one, full = build_parser(name), build_parser()
        assert subparser(one, name).format_help() == subparser(full, name).format_help()
        assert one.format_usage() == full.format_usage()

    @pytest.mark.parametrize("name", COMMANDS)
    @pytest.mark.parametrize("extra", [[], ["--bogus"], ["stray"]])
    def test_one_command_parser_gives_the_same_usage_errors(self, name, extra, capsys):
        # After the required options, a stray word is the top-level parser's error.
        argv = ([name] if extra != ["stray"] else REPRESENTATIVE_ARGV[name]) + extra
        want = usage_error(build_parser(), argv, capsys)
        assert want[0] == 2
        assert usage_error(build_parser(name), argv, capsys) == want

    @pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["frobnicate"], 2)])
    def test_no_command_lists_every_command(self, argv, code, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
        out = capsys.readouterr()
        assert "{" + ",".join(COMMANDS) + "}" in out.out + out.err

    def test_a_call_builds_only_its_own_subparser(self, scene, tmp_path, monkeypatch):
        pred, gt = scene
        lanes = tmp_path / "lanes.json"
        assert run(["extract", "--pred", pred, "--out", lanes]) == 0
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        assert run(["eval", "--pred", lanes, "--gt", gt]) == 0
        assert added == ["eval"]


def test_readme_command_table_lists_the_cli_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([\w-]+)`", section, re.M) == list(COMMANDS)
