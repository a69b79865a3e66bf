"""The benchmark tracer's wrap targets all exist, and its counts read them.

``perfbench/tracing.py`` wraps lanekit functions by module attribute and
silently skips a target that was renamed, so a metric would quietly vanish
from every traced run.  This reads its ``WRAPS`` without importing the rest
of the benchmark and requires each ``(module, attr)`` to resolve.

A wrap's count function (and ``match_keypoints``' span-name function) reads
the wrapped call's arguments and result, so a change to what a target takes
or returns breaks it, and with it every traced op.  The second test records
real calls, made the way the benchmark's workloads make them, and runs each
of those functions on them.
"""

import importlib
import importlib.util
import numbers
from pathlib import Path

import numpy as np
import pytest

from lanekit import cli, connection_head, matching
from lanekit.connection_head import ConnectionFeatures, random_head_weights
from lanekit.geometry import build_uniform_grid
from lanekit.io import save_ground_truth, save_prediction_frame
from lanekit.pipeline import run_pipeline
from lanekit.synthetic import SceneSpec, generate_scene, gt_keypoints

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("wrap", wraps(), ids=lambda w: f"{w.module}.{w.attr}")
def test_wrap_target_resolves(wrap):
    assert callable(getattr(importlib.import_module(wrap.module), wrap.attr, None))


def _recorder(original, calls):
    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    return record


def test_counts_and_span_names_read_real_calls(tmp_path, monkeypatch, capsys):
    reading = [w for w in wraps() if w.count is not None or callable(w.span)]
    calls = {}
    for wrap in reading:
        module = importlib.import_module(wrap.module)
        calls[wrap] = []
        monkeypatch.setattr(module, wrap.attr, _recorder(getattr(module, wrap.attr),
                                                         calls[wrap]))

    # The CLI ops of extract-cli and eval-seq: load, pipeline, save, evaluate.
    grid = build_uniform_grid(rows=12, cols=32, y_range=(3.0, 58.0), x_range=(-8.0, 8.0))
    gt, frame = generate_scene(SceneSpec(seed=2, sigma_x=0.05, dropout_p=0.1), grid)
    pred, gt_file, lanes = tmp_path / "frame.json", tmp_path / "gt.json", tmp_path / "lanes"
    save_prediction_frame(frame, pred)
    save_ground_truth({frame.frame_id: gt}, gt_file)
    lanes.mkdir()
    assert cli.main(["extract", "--pred", str(pred), "--out", str(lanes / "a.json")]) == 0
    assert cli.main(["eval", "--pred", str(lanes), "--gt", str(gt_file)]) == 0
    capsys.readouterr()
    # match-train's op, through the module attributes it calls: the head on
    # the kept proposals, then both matchings.
    kept = run_pipeline(frame).kept
    rng = np.random.default_rng(2)
    connection_head.adjacency_forward(
        ConnectionFeatures(rng.normal(size=(len(kept), 4)), kept.refined_xy),
        random_head_weights(2, d_c=4, dims_per_axis=4))
    gts = gt_keypoints(gt, grid)
    matching.match_keypoints(frame.keypoints, gts, repeats_n=2)
    matching.match_keypoints(kept, gts, strongest=True)

    for wrap in reading:
        assert calls[wrap], f"no call reached {wrap.module}.{wrap.attr}"
        for args, kwargs, result in calls[wrap]:
            if wrap.count is not None:
                counts = wrap.count(args, kwargs, result)
                assert counts and all(isinstance(name, str) for name in counts)
                assert all(isinstance(value, numbers.Real) and value >= 0
                           for value in counts.values()), counts
    names = [wrap.span(*call[:2]) for wrap in reading if callable(wrap.span)
             for call in calls[wrap]]
    assert names == ["matching.match_dup", "matching.match_strongest"]


def test_match_keypoints_reaches_cost_and_solve_once_each(monkeypatch):
    """The benchmark's ``matching.build_cost_ms`` and ``matching.solve_ms``
    spans wrap ``build_cost_matrix`` and ``solve_assignment`` as attributes
    of ``lanekit.matching``, so every ``match_keypoints`` call must reach
    each of them through that module, exactly once."""
    calls = {"build_cost_matrix": [], "solve_assignment": []}
    for attr, seen in calls.items():
        monkeypatch.setattr(matching, attr, _recorder(getattr(matching, attr), seen))
    grid = build_uniform_grid(rows=12, cols=32, y_range=(3.0, 58.0), x_range=(-8.0, 8.0))
    gt, frame = generate_scene(SceneSpec(seed=2, sigma_x=0.05, dropout_p=0.1), grid)
    gts = gt_keypoints(gt, grid)
    for options in ({"repeats_n": 2}, {"strongest": True}, {}):
        matching.match_keypoints(frame.keypoints, gts, **options)
        assert {attr: len(seen) for attr, seen in calls.items()} \
            == {"build_cost_matrix": 1, "solve_assignment": 1}, options
        for seen in calls.values():
            seen.clear()
