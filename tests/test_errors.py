"""The one rule for scalar arguments (``errors.check_real``/``check_int``),
seen from every public entry point that takes a scalar.

A bool is not a number, an integer argument takes no float, NaN lies in no
interval, and a bad value raises a ValidationError whose message starts with
the argument's name.  Values that were always valid stay valid.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import lanekit
from lanekit.connection_head import positional_encode
from lanekit.errors import SchemaError, ValidationError, check_int, check_real
from lanekit.geometry import CameraModel, build_custom_grid, build_uniform_grid
from lanekit.graph import LaneRecord, threshold_adjacency
from lanekit.io import PredictionFrame, load_ground_truth, load_lane_frame, load_prediction_frame
from lanekit.matching import GroundTruthKeypoint, build_cost_matrix, match_keypoints
from lanekit.metrics import evaluate, match_lanes
from lanekit.nms import Keypoint, ProposalSet, box_nms, point_nms, select_topn_proposals
from lanekit.pipeline import run_pipeline
from lanekit.synthetic import SceneSpec, generate_scene

NAN = float("nan")
INF = float("inf")


def keypoint(**fields):
    return Keypoint(**{"grid_index": (0, 0), "x": 0.0, "y": 1.0, **fields})


def gt_keypoint(**fields):
    return GroundTruthKeypoint(**{"lane_id": 0, "order_in_lane": 0, "x": 0.0, "y": 1.0,
                                  "row": 0, **fields})


def grid():
    return build_uniform_grid(4, 4, y_range=(3.0, 6.0), x_range=(-1.5, 1.5))


def frame():
    proposals = ProposalSet([keypoint(y=1.0, fg_score=0.9), keypoint(y=2.0, fg_score=0.8)])
    return PredictionFrame(frame_id="f", keypoints=proposals,
                           adjacency=[[0.0, 1.0], [0.0, 0.0]])


def lane():
    return LaneRecord([[0.0, 1.0, 0.0], [0.0, 10.0, 0.0]])


def camera(image_size):
    return CameraModel(np.diag([100.0, 100.0, 1.0]), np.eye(4), image_size)


BOXES = [[0.0, 0.0, 10.0, 10.0]]

# (call, argument name).  Each call passes one bad scalar: a bool, a float
# or a string where an integer belongs, a string, None or NaN where a number
# belongs, or a number out of range.
REJECTED = {
    "repeats_n_float": (lambda: ProposalSet([keypoint()], repeats_n=2.5), "repeats_n"),
    "from_arrays_repeats_n_float": (
        lambda: ProposalSet.from_arrays([(0, 0)], [0.0], [1.0], repeats_n=2.5), "repeats_n"),
    "keypoint_x_string": (lambda: ProposalSet([keypoint(x="1.5")]), "x"),
    "keypoint_x_bool": (lambda: keypoint(x=True), "x"),
    "keypoint_y_bool": (lambda: keypoint(y=True), "y"),
    "keypoint_dx_bool": (lambda: keypoint(dx=True), "dx"),
    "keypoint_z_none": (lambda: keypoint(z=None), "z"),
    "box_nms_iou_bool": (lambda: box_nms(BOXES, [0.5], iou_thresh=True), "iou_thresh"),
    "point_nms_r_bool": (lambda: point_nms([[0.0, 0.0]], [0.5], 1.0, 1.0, r=True), "r"),
    "point_nms_thresh_x_bool": (lambda: point_nms([[0.0, 0.0]], [0.5], True, 1.0), "thresh_x"),
    "evaluate_threshold_bool": (
        lambda: evaluate([lane()], [lane()], thresholds=(True,)), "thresholds[0]"),
    "evaluate_near_far_split_bool": (
        lambda: evaluate([lane()], [lane()], near_far_split=True), "near_far_split"),
    "match_lanes_threshold_bool": (lambda: match_lanes([lane()], [lane()], True),
                                   "dist_threshold"),
    "lambda_dist_bool": (lambda: build_cost_matrix([keypoint()], [gt_keypoint()],
                                                   lambda_dist=True), "lambda_dist"),
    "gt_category_bool": (lambda: gt_keypoint(category=True), "category"),
    "gt_x_nan": (lambda: gt_keypoint(x=NAN), "x"),
    "gt_category_string": (lambda: gt_keypoint(category="a"), "category"),
    "gt_row_negative": (lambda: gt_keypoint(row=-1), "row"),
    "gt_lane_id_float": (lambda: gt_keypoint(lane_id=0.5), "lane_id"),
    "match_repeats_n_float": (lambda: match_keypoints([keypoint()], [gt_keypoint()],
                                                      repeats_n=2.5), "repeats_n"),
    "min_lane_points_string": (lambda: run_pipeline(frame(), min_lane_points="2"),
                               "min_lane_points"),
    "min_lane_points_float": (lambda: run_pipeline(frame(), min_lane_points=2.5),
                              "min_lane_points"),
    "topn_n_float": (lambda: select_topn_proposals(np.zeros((4, 4)), grid(), n=2.5), "n"),
    "uniform_rows_float": (lambda: build_uniform_grid(2.5, 4, (3.0, 6.0), (-1.5, 1.5)),
                           "rows"),
    "scene_lane_count_float": (lambda: generate_scene(SceneSpec(seed=0, lane_count=2.5),
                                                      grid()), "lane_count"),
    "t_a_false": (lambda: threshold_adjacency(np.zeros((2, 2)), t_a=False), "t_a"),
    "match_repeats_n_zero": (lambda: match_keypoints([keypoint()], [gt_keypoint()],
                                                     repeats_n=0), "repeats_n"),
    "scene_lane_count_zero": (lambda: SceneSpec(seed=0, lane_count=0), "lane_count"),
    "topn_n_negative": (lambda: select_topn_proposals(np.zeros((4, 4)), grid(), n=-1), "n"),
    "uniform_rows_one": (lambda: build_uniform_grid(1, 4, (3.0, 6.0), (-1.5, 1.5)), "rows"),
    "custom_cols_one": (lambda: build_custom_grid(4, 1), "cols"),
    "camera_image_size_float": (lambda: camera((2.5, 3)), "image_size"),
    "scene_seed_float": (lambda: SceneSpec(seed=0.5), "seed"),
    "scene_edge_threshold_past_one": (lambda: SceneSpec(seed=0, edge_threshold=1.5),
                                      "edge_threshold"),
    "scene_categories_bool": (lambda: SceneSpec(seed=0, categories=True), "categories"),
    "custom_width_bool": (lambda: build_custom_grid(4, 4, width=True), "width"),
    "lane_path_float": (lambda: LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
                                           path=(0.5, 1.5)), "path"),
    "dims_per_axis_bool": (lambda: positional_encode((0.0, 0.0), dims_per_axis=True),
                           "dims_per_axis"),
}


@pytest.mark.parametrize("call, name", REJECTED.values(), ids=REJECTED.keys())
def test_bad_scalar_is_rejected_naming_it(call, name):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must "):
        call()


# Boundary values, ints given for reals, and numpy scalars: all valid.
ACCEPTED = {
    "distractor_edge_rate_one": lambda: SceneSpec(seed=0, distractor_edge_rate=1.0),
    "edge_threshold_bounds": lambda: (SceneSpec(seed=0, edge_threshold=0.0),
                                      SceneSpec(seed=0, edge_threshold=1.0)),
    "t_a_zero": lambda: threshold_adjacency(np.zeros((2, 2)), t_a=0.0),
    "t_a_int_zero": lambda: threshold_adjacency(np.zeros((2, 2)), t_a=0),
    "iou_thresh_bounds": lambda: (box_nms(BOXES, [0.5], 0), box_nms(BOXES, [0.5], 1),
                                  box_nms(BOXES, [0.5], 0.0), box_nms(BOXES, [0.5], 1.0)),
    "near_far_split_infinite": lambda: (evaluate([lane()], [lane()], near_far_split=INF),
                                        evaluate([lane()], [lane()], near_far_split=-INF)),
    "near_far_split_int": lambda: evaluate([lane()], [lane()], near_far_split=40),
    "int_threshold": lambda: evaluate([lane()], [lane()], thresholds=(1,)),
    "lambda_zero": lambda: build_cost_matrix([keypoint()], [gt_keypoint()], 0, 0),
    "numpy_scalars_keypoint": lambda: keypoint(
        grid_index=(np.int64(1), np.int32(2)), x=np.float64(0.5), y=np.float32(1.0),
        fg_score=np.float64(1.0)),
    "numpy_scalars_set": lambda: ProposalSet([keypoint()], repeats_n=np.int64(2)),
    "numpy_scalars_nms": lambda: point_nms([[0.0, 0.0]], [0.5], np.float64(1.0),
                                           np.float64(1.0), r=np.int64(10),
                                           iou_thresh=np.float64(0.1)),
    "numpy_scalars_lane": lambda: LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
                                             category=np.int64(2),
                                             confidence=np.float64(0.0),
                                             path=np.array([3, 1])),
    "numpy_scalars_gt": lambda: gt_keypoint(lane_id=np.int64(1), category=np.int64(0),
                                            row=np.int64(0), x=np.float64(1.0)),
    "gt_row_none": lambda: gt_keypoint(row=None),
    "numpy_scalars_grid": lambda: build_uniform_grid(np.int64(2), np.int64(2),
                                                     (3.0, 6.0), (-1.5, 1.5)),
    "numpy_scalars_camera": lambda: camera((np.int64(480), 640)),
    "numpy_scalars_pipeline": lambda: run_pipeline(frame(), min_lane_points=np.int64(2)),
    "numpy_scalars_matching": lambda: match_keypoints([keypoint()], [gt_keypoint()],
                                                      repeats_n=np.int64(1)),
    "topn_n_bounds": lambda: (select_topn_proposals(np.zeros((4, 4)), grid(), 0),
                              select_topn_proposals(np.zeros((4, 4)), grid(), 16)),
    "scene_seed_numpy": lambda: SceneSpec(seed=np.int64(7)),
}


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_valid_scalar_still_accepted(call):
    call()


def test_accepted_values_keep_their_meaning():
    lane_record = LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], category=np.int64(2),
                             path=np.array([3, 1]))
    assert type(lane_record.category) is int and lane_record.path == (3, 1)
    assert keypoint(grid_index=(np.int64(1), 2)).grid_index == (1, 2)
    assert ProposalSet([keypoint()], repeats_n=np.int64(2)).repeats_n == 2
    assert camera((np.int64(480), 640)).image_size == (480, 640)
    assert check_real(np.float64(0.25), "v", 0, 1, "[]") == 0.25


@pytest.mark.parametrize("ends, accepted, rejected", [
    ("[]", [0, 1, 0.5], [-1e-9, 1.0000001, NAN]),
    ("()", [1e-300, 0.999], [0, 1, NAN]),
    ("[)", [0, 0.5], [1, NAN]),
    ("(]", [1, 0.5], [0, NAN])])
def test_check_real_interval_ends(ends, accepted, rejected):
    for value in accepted:
        assert check_real(value, "v", 0, 1, ends) == value
    for value in rejected:
        with pytest.raises(ValidationError, match=r"^v must lie in "):
            check_real(value, "v", 0, 1, ends)


@pytest.mark.parametrize("value", [True, np.True_, "1", None, 1 + 0j, [1.0]])
def test_check_real_rejects_non_numbers(value):
    with pytest.raises(ValidationError, match="^v must be finite"):
        check_real(value, "v")


@pytest.mark.parametrize("value, low", [(True, None), (np.False_, 0), (2.0, None),
                                        (np.float64(3), 0), ("3", None), (-1, 0), (1, 2)])
def test_check_int_rejects(value, low):
    with pytest.raises(ValidationError, match="^k must be "):
        check_int(value, "k", low)


def test_check_int_returns_a_python_int():
    assert type(check_int(np.uint8(3), "k", 0)) is int


# A lane, GT or frame file whose document orjson refuses (for its NaN)
# and whose nesting the stdlib decoder cannot follow.
DEEP = "[" * 1000 + "NaN" + "]" * 1000


@pytest.mark.parametrize("loader, document", [
    (load_lane_frame, '{"frame_id": "f", "lanes": %s}' % DEEP),
    (load_ground_truth, '{"frames": %s}' % DEEP),
    (load_prediction_frame, '{"frame_id": "f", "keypoints": %s}' % DEEP),
    (load_lane_frame, "[" * 100_000 + "NaN" + "]" * 100_000)],
    ids=["lane_frame", "ground_truth", "prediction_frame", "lane_frame_100k"])
def test_deeply_nested_document_is_a_schema_error(tmp_path, loader, document):
    path = tmp_path / "deep.json"
    path.write_text(document)
    with pytest.raises(SchemaError, match="^file: ") as err:
        loader(path)
    assert err.value.field == "file"


def _bool_isinstance_checks(source):
    """Lines of ``isinstance(..., bool)`` calls (``np.bool_`` too) in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            for kind in ast.walk(node.args[1]):
                if ((isinstance(kind, ast.Name) and kind.id == "bool")
                        or (isinstance(kind, ast.Attribute) and kind.attr == "bool_")):
                    yield node.lineno


def test_guard_finds_a_bool_check():
    assert list(_bool_isinstance_checks("isinstance(v, (int, np.bool_))\n"
                                        "isinstance(v, bool)\nisinstance(v, int)")) == [1, 2]


def test_no_bool_checks_outside_errors_and_io():
    """The bool rule lives in ``errors`` (and ``io``'s JSON types), so it
    cannot drift back into hand-written copies."""
    package = Path(lanekit.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             if path.name not in ("errors.py", "io.py")
             for line in _bool_isinstance_checks(path.read_text())]
    assert found == []
