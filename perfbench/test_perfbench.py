"""The benchmark's own tests, at tiny size.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def make(name, tmp_path, seed=5):
    workload = W.WORKLOADS[name](tmp_path, 1)
    workload.generate(seed)
    workload.setup(seed)
    workload.load()
    return workload


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in run.benchmark_spec()["workloads"]} <= set(W.WORKLOADS)


@pytest.mark.parametrize("grid, lanes, n, budget", [
    (W.base_grid, 3, 2, W.BASE_BUDGET), (W.base_grid, 4, 2, W.BASE_BUDGET),
    (W.large_grid, 5, 4, W.LARGE_BUDGET)])
def test_padded_frames_hold_exactly_the_budget(grid, lanes, n, budget):
    grid = grid()
    _, frame = W.scene(grid, 3, lanes, n)
    padded = W.pad_frame(frame, grid, budget, np.random.default_rng(0))
    assert len(padded.keypoints) == budget
    assert padded.adjacency.shape == (budget, budget)
    assert padded.adjacency.min() > 0.0
    confidences = padded.keypoints.confidences
    assert np.all(np.diff(confidences) <= 0)
    cells = [k.grid_index for k in padded.keypoints]
    assert len(set(cells)) == budget


@pytest.mark.parametrize("seed", range(4))
def test_each_eval_construction_yields_its_designed_outcome(seed):
    import lanekit
    rng = np.random.default_rng(seed)
    gt, preds, extra, outcomes = W.eval_frame(rng, spurious=2)
    for lane, pred, outcome in zip(gt, preds, outcomes):
        reports = lanekit.evaluate({0: [] if pred is None else [pred]}, {0: [lane]},
                                   thresholds=W.EVAL_THRESHOLDS)
        for report in reports:
            hit = outcome in W.MATCHES_AT[report.threshold]
            assert report.tp == int(hit), (outcome, report.threshold)
    lanes = [p for p in preds if p is not None] + extra
    reports = lanekit.evaluate({0: lanes}, {0: gt}, thresholds=W.EVAL_THRESHOLDS)
    designed = W.designed_counts(outcomes, len(extra))
    assert {r.threshold: (r.tp, r.fp, r.fn) for r in reports} == designed


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_each_workload_completes_at_tiny_size(name, tmp_path):
    workload = make(name, tmp_path)
    loop = child.run_loop(workload, seconds=0.2)
    assert loop["attempted"] >= 2
    assert loop["failed"] == 0
    assert child.canary(workload, loop["results"])
    summary = child.summarize(workload, loop, None)
    assert summary["correct"]
    assert summary["metrics"]["lane_f1"] > 0
    assert summary["metrics"]["gt_match_rate"] > 0
    assert 0 < summary["metrics"]["op_ref.p50"] <= summary["metrics"]["op_ref.p90"]
    assert summary["info"]["op_ms.p50"][0] > 0


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_a_corrupted_output_counts_as_a_failure(name, tmp_path):
    workload = make(name, tmp_path)
    collect = workload.collect
    calls = []

    def corrupt_after_reference(k, raw):
        calls.append(k)
        result = collect(k, raw)
        return result if len(calls) == 1 else workload.corrupt(result)

    workload.collect = corrupt_after_reference
    loop = child.run_loop(workload, seconds=0.2)
    assert loop["attempted"] >= 2
    assert loop["failed"] == loop["attempted"] - 1
    assert not child.summarize(workload, loop, None)["correct"]


def test_traced_run_reports_layers_and_absent_targets(tmp_path, monkeypatch):
    workload = make("pipeline-large", tmp_path)
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (
        tracing.Wrap("lanekit.nms", "renamed_away", "nms.gone", None, ("nms.gone_ms",)),))
    tracer = tracing.Tracer()
    loop = child.run_loop(workload, seconds=0.3, tracer=tracer)
    assert loop["failed"] == 0 and loop["traced_ops"]
    import lanekit.nms
    assert lanekit.nms.box_nms.__module__ == "lanekit.nms"   # originals restored
    names = [m["name"] for m in run.benchmark_spec()["per_layer"]] + ["nms.gone_ms"]
    metrics = tracing.layer_metrics(tracer, loop["traced_ops"], names, cli_self=False)
    assert "nms.gone_ms" not in metrics
    assert metrics["nms.proposals"] == W.LARGE_BUDGET
    assert 0 < metrics["nms.point_nms_ms"] < metrics["pipeline.run_ms"]
    assert metrics["nms.keep_ratio"] == metrics["nms.kept"] / metrics["nms.proposals"]
    assert metrics["io.load_frame_ms"] == 0.0


def test_op_ref_divides_by_the_kernel_times_around_each_op(tmp_path, monkeypatch):
    workload = make("eval-seq", tmp_path)
    kernel_times = iter([4.0, 6.0] * 1000)
    monkeypatch.setattr(child.ReferenceKernel, "ms", lambda self: next(kernel_times))
    loop = child.run_loop(workload, seconds=0.2)
    for op_ms, ratio in zip(loop["plain_ms"], loop["plain_ref"]):
        assert ratio == pytest.approx(op_ms / 5.0)


def test_self_time_subtracts_the_union_of_children():
    assert tracing._covered([(0, 2), (1, 3), (5, 6), (9, 12)], 0, 10) == 5
    assert tracing._covered([], 0, 1) == 0


def test_run_fails_without_lanekit_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-seq",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
