"""The one rule for scalar arguments (``errors.check_real``/``check_int``)
and the one rule for array arguments (``errors.float_array`` and its integer
twin ``errors.int_array``), seen from every public entry point that takes
them.

A bool is not a number, an integer argument takes no float, NaN lies in no
interval, an array has the shape its argument states, and a bad value raises
a ValidationError whose message starts with the argument's name.  Values
that were always valid stay valid.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lanekit
from lanekit import errors
from lanekit.connection_head import (ConnectionFeatures, HeadWeights, positional_encode,
                                     random_head_weights)
from lanekit.errors import (SchemaError, ValidationError, check_int, check_real, float_array,
                            int_array)
from lanekit.geometry import (AnchorGrid, CameraModel, ProjectionMap, bilinear_sample,
                              build_custom_grid, build_uniform_grid, make_forward_camera,
                              project_grid_to_image, project_points, unproject_pixel_to_ground)
from lanekit.graph import (DirectedLaneGraph, LaneRecord, extract_lanes, path_weight,
                           threshold_adjacency)
from lanekit.io import PredictionFrame, load_ground_truth, load_lane_frame, load_prediction_frame
from lanekit.matching import (CostMatrix, GroundTruthKeypoint, Matching, build_connection_targets,
                              build_cost_matrix, match_keypoints, solve_assignment)
from lanekit.metrics import evaluate, match_lanes, resample_lane
from lanekit.nms import (Keypoint, ProposalSet, box_nms, build_nms_boxes, point_nms,
                         round_half_away)
from lanekit.oracles import oracle_number_array
from lanekit.pipeline import run_pipeline
from lanekit.synthetic import SceneSpec, generate_scene, keypoint_recall

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


def matching(pairs=((0, 0),), unmatched_proposals=(), unmatched_gts=()):
    return Matching(pairs=pairs, unmatched_proposals=unmatched_proposals,
                    unmatched_gts=unmatched_gts)


BOXES = [[0.0, 0.0, 10.0, 10.0]]

# (call, argument name).  Each call passes one bad scalar: a bool, a float
# or a string where an integer belongs, a string, None or NaN where a number
# belongs, a number out of range, or a string outside its choices.
REJECTED = {
    "repeats_n_float": (lambda: ProposalSet([keypoint()], repeats_n=2.5), "repeats_n"),
    "from_arrays_repeats_n_float": (
        lambda: ProposalSet.from_arrays([(0, 0)], [0.0], [1.0], repeats_n=2.5), "repeats_n"),
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
    "uniform_rows_float": (lambda: build_uniform_grid(2.5, 4, (3.0, 6.0), (-1.5, 1.5)),
                           "rows"),
    "scene_lane_count_float": (lambda: generate_scene(SceneSpec(seed=0, lane_count=2.5),
                                                      grid()), "lane_count"),
    "t_a_false": (lambda: threshold_adjacency(np.zeros((2, 2)), t_a=False), "t_a"),
    "match_repeats_n_zero": (lambda: match_keypoints([keypoint()], [gt_keypoint()],
                                                     repeats_n=0), "repeats_n"),
    "scene_lane_count_zero": (lambda: SceneSpec(seed=0, lane_count=0), "lane_count"),
    "uniform_rows_one": (lambda: build_uniform_grid(1, 4, (3.0, 6.0), (-1.5, 1.5)), "rows"),
    "custom_cols_one": (lambda: build_custom_grid(4, 1), "cols"),
    "camera_image_size_float": (lambda: camera((2.5, 3)), "image_size"),
    "camera_image_size_negative": (lambda: camera((-5, 0)), "image_size"),
    "camera_image_size_zero": (lambda: camera((480, 0)), "image_size"),
    "camera_image_size_bool": (lambda: camera((True, 640)), "image_size"),
    "scene_seed_float": (lambda: SceneSpec(seed=0.5), "seed"),
    "scene_categories_bool": (lambda: SceneSpec(seed=0, categories=True), "categories"),
    "custom_width_bool": (lambda: build_custom_grid(4, 4, width=True), "width"),
    "lane_path_float": (lambda: LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
                                           path=(0.5, 1.5)), "path[0]"),
    "dims_per_axis_bool": (lambda: positional_encode((0.0, 0.0), dims_per_axis=True),
                           "dims_per_axis"),
    # These once raised a bare TypeError, or made weights of input width 61.
    "head_hidden_float": (lambda: random_head_weights(1, d_c=4, hidden=2.5), "hidden"),
    "head_d_c_negative": (lambda: random_head_weights(1, d_c=-3), "d_c"),
    "head_d_c_nan": (lambda: random_head_weights(1, d_c=NAN), "d_c"),
    "head_dims_per_axis_zero": (lambda: random_head_weights(1, d_c=4, dims_per_axis=0),
                                "dims_per_axis"),
    "head_embed_bool": (lambda: random_head_weights(1, d_c=4, embed=True), "embed"),
    "nms_boxes_thresh_x_bool": (lambda: build_nms_boxes([[0.0, 0.0]], True, 1.0), "thresh_x"),
    "nms_boxes_r_nan": (lambda: build_nms_boxes([[0.0, 0.0]], 1.0, 1.0, r=NAN), "r"),
    "anchor_grid_rows_float": (lambda: anchor_grid(rows=2.0), "rows"),
    "anchor_grid_cols_bool": (lambda: anchor_grid(cols=True), "cols"),
    "anchor_grid_mode_unknown": (lambda: anchor_grid(mode="polar"), "mode"),
    "graph_node_count_bool": (lambda: DirectedLaneGraph(True, [0], [0], [0.9]), "node_count"),
    "graph_node_count_float": (lambda: DirectedLaneGraph(2.5, [0], [1], [0.9]), "node_count"),
    "targets_size_bool": (lambda: build_connection_targets(matching(), [gt_keypoint()], True),
                          "size"),
    "targets_size_float": (lambda: build_connection_targets(matching(), [gt_keypoint()], 2.0),
                           "size"),
    "check_real_int_beyond_double": (lambda: check_real(-10 ** 400, "v"), "v"),
    "final_b_int_beyond_double": (lambda: HeadWeights(**head_fields(final_b=10 ** 400)),
                                  "final_b"),
    "final_b_bool": (lambda: HeadWeights(**head_fields(final_b=True)), "final_b"),
    "nms_boxes_thresh_x_int_beyond_double": (
        lambda: build_nms_boxes([[0.0, 0.0]], 10 ** 400, 1.0), "thresh_x"),
    # Too many digits for repr, which once raised a bare ValueError.
    "check_real_int_too_long_to_show": (lambda: check_real(10 ** 5000, "v"), "v"),
    "check_int_int_too_long_to_show": (lambda: check_int(-10 ** 5000, "k", 0), "k"),
    # A bound that is no float is shown as it prints: "lie in (1/2, 1e+100]".
    "custom_spacing_far_below_a_fraction": (
        lambda: build_custom_grid(4, 4, spacing_near=Fraction(1, 2), spacing_far=0.1),
        "spacing_far"),
}


@pytest.mark.parametrize("call, name", REJECTED.values(), ids=REJECTED.keys())
def test_bad_scalar_is_rejected_naming_it(call, name):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must "):
        call()


# Boundary values, ints given for reals, and numpy scalars: all valid.
ACCEPTED = {
    "distractor_edge_rate_one": lambda: SceneSpec(seed=0, distractor_edge_rate=1.0),
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
    "head_d_c_zero": lambda: random_head_weights(1, d_c=0, dims_per_axis=np.int64(2),
                                                 hidden=1, embed=1),
    "scene_seed_numpy": lambda: SceneSpec(seed=np.int64(7)),
    "int_within_double_range": lambda: (check_real(2 ** 1023, "v"),
                                        HeadWeights(**head_fields(final_b=-2 ** 1000))),
}


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_valid_scalar_still_accepted(call):
    call()


def test_accepted_values_keep_their_meaning():
    lane_record = LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], category=np.int64(2),
                             confidence=1, path=np.array([3, 1]))
    assert type(lane_record.category) is int and lane_record.path == (3, 1)
    assert type(lane_record.confidence) is float and lane_record.confidence == 1.0
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


# (call, argument name) for the scalars that entered as part of a camera,
# a projection or a recall: each must be a real number in its interval.
REJECTED_CAMERA_SCALARS = {
    "camera_focal_bool": (lambda: make_forward_camera(focal=True), "focal"),
    "camera_focal_nan": (lambda: make_forward_camera(focal=NAN), "focal"),
    "camera_height_bool": (lambda: make_forward_camera(height=True), "height"),
    "camera_height_nan": (lambda: make_forward_camera(height=NAN), "height"),
    "camera_pitch_nan": (lambda: make_forward_camera(pitch_deg=NAN), "pitch_deg"),
    "camera_yaw_bool": (lambda: make_forward_camera(yaw_deg=True), "yaw_deg"),
    "project_ground_height_bool": (
        lambda: project_grid_to_image(grid(), make_forward_camera(), ground_height=True),
        "ground_height"),
    "project_ground_height_nan": (
        lambda: project_grid_to_image(grid(), make_forward_camera(), ground_height=NAN),
        "ground_height"),
    "unproject_ground_height_nan": (
        lambda: unproject_pixel_to_ground(make_forward_camera(), (640.0, 700.0), NAN),
        "ground_height"),
    "recall_tol_nan": (lambda: keypoint_recall([keypoint()], [gt_keypoint()], tol=NAN), "tol"),
    "recall_tol_bool": (lambda: keypoint_recall([keypoint()], [gt_keypoint()], tol=True),
                        "tol"),
}


@pytest.mark.parametrize("call, name", REJECTED_CAMERA_SCALARS.values(),
                         ids=REJECTED_CAMERA_SCALARS.keys())
def test_bad_camera_or_recall_scalar_is_rejected_naming_it(call, name):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must "):
        call()


def head_fields(**changes):
    weights = random_head_weights(0, d_c=2, dims_per_axis=2, hidden=3, embed=2)
    return {**{name: getattr(weights, name) for name in weights.__dataclass_fields__},
            **changes}


def with_entry(array, index, value):
    """A float copy of ``array`` with one entry replaced."""
    array = np.array(array, dtype=float)
    array[index] = value
    return array


def columns(**changes):
    """Two proposals as ``from_arrays`` columns, some of them replaced."""
    return ProposalSet.from_arrays(**{"grid_index": [(0, 0), (1, 0)], "x": [0.0, 0.5],
                                      "y": [1.0, 2.0], "dx": [0.0, 0.0], "z": [0.0, 0.0],
                                      "fg_score": [0.5, 0.5], "class_scores": [[0.5], [0.5]],
                                      **changes})


def anchor_grid(**changes):
    return AnchorGrid(**{"rows": 2, "cols": 1, "positions": [[[0.0, 1.0]], [[0.0, 2.0]]],
                         "row_spacing": [1.0, 1.0], "mode": "uniform", **changes})


def pmap():
    return ProjectionMap(pixel_coords=np.ones((1, 1, 2)), valid=np.ones((1, 1), bool))


def scene(**coeffs):
    spec = SceneSpec(**{"seed": 0, "lane_count": 1, "x_coeffs": ((0.0, 0.0, 0.0, 0.0),),
                        "z_coeffs": ((0.0, 0.0),), **coeffs})
    return generate_scene(spec, grid())


EYE3, EYE4 = np.eye(3), np.eye(4)
EDGES = {"node_count": 3, "edge_src": [0, 1], "edge_dst": [1, 2]}

# (call, argument name).  Each call passes one bad array or pair argument: a
# boolean entry (in a list, a tuple or a bool array), the wrong shape, or a
# NaN where the argument's rule asks for finite values.
REJECTED_ARRAYS = {
    "intrinsic_bool": (lambda: CameraModel([[True, 0, 0], [0, 1, 0], [0, 0, 1]], EYE4,
                                           (4, 4)), "intrinsic"),
    "intrinsic_shape": (lambda: CameraModel(np.eye(4), EYE4, (4, 4)), "intrinsic"),
    "intrinsic_nan": (lambda: CameraModel(with_entry(EYE3, (0, 2), NAN), EYE4, (4, 4)),
                      "intrinsic"),
    "intrinsic_huge": (lambda: CameraModel(with_entry(EYE3, (0, 0), 1e308), EYE4, (4, 4)),
                       "intrinsic"),
    "extrinsic_bool": (lambda: CameraModel(EYE3, EYE4.astype(bool), (4, 4)), "extrinsic"),
    "extrinsic_shape": (lambda: CameraModel(EYE3, EYE4[:3], (4, 4)), "extrinsic"),
    "extrinsic_nan": (lambda: CameraModel(EYE3, with_entry(EYE4, (0, 3), NAN), (4, 4)),
                      "extrinsic"),
    "positions_bool": (lambda: anchor_grid(positions=[[[False, 1.0]], [[0.0, 2.0]]]),
                       "positions"),
    "positions_shape": (lambda: anchor_grid(positions=[[0.0, 1.0], [0.0, 2.0]]), "positions"),
    "positions_rows_not_increasing": (
        lambda: anchor_grid(positions=[[[0.0, 2.0]], [[0.0, 2.0]]]), "positions"),
    "row_spacing_custom_not_increasing": (
        lambda: anchor_grid(mode="custom", row_spacing=[1.0, 1.0]), "row_spacing"),
    "positions_nan": (lambda: anchor_grid(positions=[[[NAN, 1.0]], [[0.0, 2.0]]]),
                      "positions"),
    "row_spacing_bool": (lambda: anchor_grid(row_spacing=(True, 1.0)), "row_spacing"),
    "row_spacing_shape": (lambda: anchor_grid(row_spacing=[1.0]), "row_spacing"),
    "row_spacing_nan": (lambda: anchor_grid(row_spacing=[1.0, NAN]), "row_spacing"),
    "y_range_bool": (lambda: build_uniform_grid(2, 2, (True, 5.0), (-1.0, 1.0)), "y_range[0]"),
    "y_range_length": (lambda: build_uniform_grid(2, 2, (1.0, 3.0, 5.0), (-1.0, 1.0)),
                       "y_range"),
    "x_range_nan": (lambda: build_uniform_grid(2, 2, (1.0, 5.0), (-1.0, NAN)), "x_range[1]"),
    "normalize_to_range_bool": (
        lambda: build_custom_grid(4, 4, normalize_to_range=(0.0, True)),
        "normalize_to_range[1]"),
    "normalize_to_range_length": (lambda: build_custom_grid(4, 4, normalize_to_range=(0.0,)),
                                  "normalize_to_range"),
    "principal_bool": (lambda: make_forward_camera(principal=(True, 480.0)), "principal[0]"),
    "principal_nan": (lambda: make_forward_camera(principal=(640.0, NAN)), "principal[1]"),
    "image_size_length": (lambda: make_forward_camera(image_size=(960, 1280, 3)),
                          "image_size"),
    "pixel_bool": (lambda: unproject_pixel_to_ground(make_forward_camera(), (640.0, True)),
                   "pixel[1]"),
    "pixel_nan": (lambda: unproject_pixel_to_ground(make_forward_camera(), (NAN, 700.0)),
                  "pixel[0]"),
    "pixel_length": (lambda: unproject_pixel_to_ground(make_forward_camera(), (640.0,)),
                     "pixel"),
    "points_ego_bool": (lambda: project_points([[0.0, 5.0, True]], make_forward_camera()),
                        "points_ego"),
    "points_ego_shape": (lambda: project_points([[0.0, 5.0]], make_forward_camera()),
                         "points_ego"),
    # Once NaN pixels and depth, silently.
    "points_ego_nan": (lambda: project_points([[NAN, 5.0, 0.0]], make_forward_camera()),
                       "points_ego"),
    "points_ego_inf": (lambda: project_points([[0.0, INF, 0.0]], make_forward_camera()),
                       "points_ego"),
    # Once numpy's matmul overflow warning, an error under -W error.
    "points_ego_huge": (lambda: project_points([[1e308, 5.0, 0.0]], make_forward_camera()),
                        "points_ego"),
    "feature_map_bool": (lambda: bilinear_sample(np.ones((2, 2, 1), bool), pmap()),
                         "feature_map"),
    "feature_map_shape": (lambda: bilinear_sample(np.ones((2, 2)), pmap()), "feature_map"),
    # An integer mask once indexed cells by ~1 == -2, and a mask of another
    # shape reshaped the samples to its own.
    "pmap_valid_integers": (lambda: ProjectionMap(np.ones((1, 2, 2)), [[1, 0]]), "valid"),
    "pmap_valid_shape": (lambda: ProjectionMap(np.ones((1, 2, 2)), np.ones((2, 1), bool)),
                         "valid"),
    "pmap_pixel_coords_shape": (lambda: ProjectionMap(np.ones((1, 2)), np.ones((1, 2), bool)),
                                "pixel_coords"),
    "head_w1_bool": (lambda: HeadWeights(**head_fields(origin_w1=np.ones((6, 3), bool))),
                     "origin_w1"),
    "head_w1_nan": (lambda: HeadWeights(**head_fields(origin_w1=np.full((6, 3), NAN))),
                    "origin_w1"),
    "head_dest_w1_width": (lambda: HeadWeights(**head_fields(dest_w1=np.ones((5, 3)))),
                           "dest_w1"),
    "head_dest_w2_width": (lambda: HeadWeights(**head_fields(dest_w2=np.ones((3, 4)))),
                           "dest_w2"),
    "head_final_w_shape": (lambda: HeadWeights(**head_fields(final_w=np.ones(3))), "final_w"),
    "head_final_b_nan": (lambda: HeadWeights(**head_fields(final_b=NAN)), "final_b"),
    "f_c_bool": (lambda: ConnectionFeatures([[True]], [[0.0, 1.0]]), "f_c"),
    "f_c_shape": (lambda: ConnectionFeatures([1.0], [[0.0, 1.0]]), "f_c"),
    "f_c_nan": (lambda: ConnectionFeatures([[NAN]], [[0.0, 1.0]]), "f_c"),
    "positions_of_features_shape": (lambda: ConnectionFeatures([[1.0]], [[0.0, 1.0, 2.0]]),
                                    "positions"),
    "positions_of_features_nan": (lambda: ConnectionFeatures([[1.0]], [[0.0, NAN]]),
                                  "positions"),
    "position_bool": (lambda: positional_encode((0.0, True), dims_per_axis=2), "position"),
    "position_shape": (lambda: positional_encode((0.0, 1.0, 2.0), dims_per_axis=2),
                       "position"),
    # Once NaN features, silently, and numpy's sin warning.
    "position_nan": (lambda: positional_encode((NAN, 1.0), dims_per_axis=2), "position"),
    "position_inf": (lambda: positional_encode((INF, 1.0), dims_per_axis=2), "position"),
    "costs_bool": (lambda: CostMatrix([[True, 1.0]]), "costs"),
    "costs_shape": (lambda: solve_assignment([1.0, 2.0]), "costs"),
    "costs_nan": (lambda: solve_assignment([[NAN, 1.0], [2.0, NAN]]), "costs"),
    "costs_minus_inf": (lambda: CostMatrix([[-INF, 1.0]]), "costs"),
    "adjacency_bool": (lambda: threshold_adjacency([[False, True], [False, False]], 0.5),
                       "adjacency"),
    "adjacency_shape": (lambda: extract_lanes([keypoint()], [0.0], 0.5), "adjacency"),
    "frame_adjacency_bool": (lambda: PredictionFrame("f", frame().keypoints,
                                                     [[0.0, True], [0.0, 0.0]]), "adjacency"),
    "frame_adjacency_shape": (lambda: PredictionFrame("f", frame().keypoints, np.zeros((2, 3))),
                              "adjacency"),
    "frame_adjacency_nan": (lambda: PredictionFrame("f", frame().keypoints,
                                                    [[0.0, NAN], [0.0, 0.0]]), "adjacency"),
    "edge_prob_bool": (lambda: DirectedLaneGraph(**EDGES, edge_prob=[True, 0.5]), "edge_prob"),
    "edge_prob_nan": (lambda: DirectedLaneGraph(**EDGES, edge_prob=[0.5, NAN]), "edge_prob"),
    "edge_prob_past_one": (lambda: DirectedLaneGraph(**EDGES, edge_prob=[0.5, 3.0]),
                           "edge_prob"),
    "from_arrays_x_bool": (lambda: columns(x=(0.0, True)), "x"),
    "from_arrays_x_shape": (lambda: columns(x=[[0.0, 0.5]]), "x"),
    "from_arrays_x_nan": (lambda: columns(x=[0.0, NAN]), "x"),
    "from_arrays_y_shape": (lambda: columns(y=[1.0]), "y"),
    "from_arrays_dx_bool": (lambda: columns(dx=[False, 0.0]), "dx"),
    "from_arrays_dx_shape": (lambda: columns(dx=[0.0]), "dx"),
    "from_arrays_z_shape": (lambda: columns(z=[0.0, 0.0, 0.0]), "z"),
    "from_arrays_refined_x_overflow": (lambda: columns(x=[0.0, 1e308], dx=[0.0, 1e308]),
                                       "x + dx"),
    "from_arrays_z_nan": (lambda: columns(z=[NAN, 0.0]), "z"),
    "from_arrays_fg_score_bool": (lambda: columns(fg_score=[True, 0.5]), "fg_score"),
    "from_arrays_fg_score_shape": (lambda: columns(fg_score=[0.5, 0.5, 0.5]), "fg_score"),
    "from_arrays_class_scores_bool": (lambda: columns(class_scores=[[True], [0.5]]),
                                      "class_scores"),
    "from_arrays_class_scores_shape": (lambda: columns(class_scores=[0.5, 0.5]),
                                       "class_scores"),
    "from_arrays_class_scores_nan": (lambda: columns(class_scores=[[0.5], [NAN]]),
                                     "class_scores"),
    "nms_boxes_points_bool": (lambda: build_nms_boxes([[0.0, True]], 1.0, 1.0), "points_xy"),
    "nms_boxes_points_shape": (lambda: build_nms_boxes(np.zeros((3, 4)), 1, 1), "points_xy"),
    "box_nms_boxes_bool": (lambda: box_nms([[0, 0, True, 1]], [0.5], 0.1), "boxes"),
    "box_nms_boxes_tuple_bool": (lambda: box_nms(((0, 0, True, 1),), [0.5], 0.1), "boxes"),
    "box_nms_boxes_shape": (lambda: box_nms(np.zeros((2, 2)), [0.5], 0.1), "boxes"),
    "box_nms_boxes_nan": (lambda: box_nms([[0, 0, NAN, 1]], [0.5], 0.1), "boxes"),
    "box_nms_scores_bool": (lambda: box_nms(BOXES, [True], 0.1), "scores"),
    "box_nms_scores_shape": (lambda: box_nms(BOXES, [[0.5]], 0.1), "scores"),
    "box_nms_scores_nan": (lambda: box_nms(BOXES, [NAN], 0.1), "scores"),
    "point_nms_points_bool": (lambda: point_nms([[0.0, True]], [0.5], 1.0, 1.0), "points_xy"),
    "point_nms_points_shape": (lambda: point_nms([0.0, 1.0, 2.0, 3.0], [0.5, 0.5], 1.0, 1.0),
                               "points_xy"),
    "point_nms_points_nan": (lambda: point_nms([[0.0, NAN]], [0.5], 1.0, 1.0), "points_xy"),
    "round_values_bool": (lambda: round_half_away((0.5, True)), "values"),
    "round_values_nan": (lambda: round_half_away([0.5, NAN]), "values"),
    "x_coeffs_bool": (lambda: scene(x_coeffs=((0.0, True, 0.0, 0.0),)), "x_coeffs"),
    "x_coeffs_shape": (lambda: scene(x_coeffs=((0.0, 0.0, 0.0),)), "x_coeffs"),
    "x_coeffs_nan": (lambda: scene(x_coeffs=((0.0, 0.0, NAN, 0.0),)), "x_coeffs"),
    "z_coeffs_bool": (lambda: scene(z_coeffs=((True, 0.0),)), "z_coeffs"),
    "z_coeffs_shape": (lambda: scene(z_coeffs=((0.0, 0.0), (0.0, 0.0))), "z_coeffs"),
    "z_coeffs_nan": (lambda: scene(z_coeffs=((NAN, 0.0),)), "z_coeffs"),
    "y_samples_bool": (lambda: resample_lane(lane(), [1.0, True]), "y_samples"),
    "y_samples_shape": (lambda: resample_lane(lane(), [[1.0, 2.0]]), "y_samples"),
    "grid_index_bool": (lambda: ProposalSet.from_arrays([(0, True)], [0.0], [1.0]), "grid_index"),
    "grid_index_float": (lambda: columns(grid_index=[(0, 0), (1.0, 0)]), "grid_index"),
    "grid_index_string": (lambda: columns(grid_index=[("0", 0), (1, 0)]), "grid_index"),
    "grid_index_shape": (lambda: columns(grid_index=[(0, 0)]), "grid_index"),
    "subset_bool": (lambda: columns().subset([True, False]), "indices"),
    "subset_float": (lambda: columns().subset([1.7]), "indices"),
    "subset_string": (lambda: columns().subset(["1"]), "indices"),
    "subset_negative": (lambda: columns().subset([-1]), "indices"),
    "subset_past_end": (lambda: columns().subset([5]), "indices"),
    "subset_shape": (lambda: columns().subset([[0, 1]]), "indices"),
    "nodes_float": (lambda: threshold_adjacency(np.zeros((2, 2)), 0.5, nodes=[0.5]), "nodes"),
    "nodes_bool": (lambda: threshold_adjacency(np.zeros((2, 2)), 0.5, nodes=[True]), "nodes"),
    "edge_src_float": (lambda: DirectedLaneGraph(2, [0.5], [1.0], [0.9]), "edge_src"),
    "edge_dst_bool": (lambda: DirectedLaneGraph(2, [0], [True], [0.9]), "edge_dst"),
    "edge_dst_beyond_int64": (lambda: DirectedLaneGraph(2, [0], [2 ** 64], [0.9]), "edge_dst"),
    "pairs_bool": (lambda: matching(pairs=[(True, 0)]), "pairs"),
    "pairs_float": (lambda: matching(pairs=[(1.9, 0)]), "pairs"),
    "pairs_negative": (lambda: matching(pairs=[(0, -1)]), "pairs"),
    "pairs_shape": (lambda: matching(pairs=[(0, 1, 2)]), "pairs"),
    "unmatched_proposals_float": (lambda: matching(unmatched_proposals=(1.0,)),
                                  "unmatched_proposals"),
    "unmatched_gts_negative": (lambda: matching(unmatched_gts={-2}), "unmatched_gts"),
    "targets_pair_past_size": (lambda: build_connection_targets(matching(pairs=[(5, 0)]),
                                                                [gt_keypoint()], 2),
                               "matching.pairs"),
    "targets_pair_negative": (lambda: build_connection_targets(
        SimpleNamespace(pairs=((-1, 0),)), [gt_keypoint()], 2), "matching.pairs"),
    "targets_gt_past_gts": (lambda: build_connection_targets(matching(pairs=[(0, 7)]),
                                                             [gt_keypoint()], 2),
                            "matching.pairs"),
    "targets_gt_negative": (lambda: build_connection_targets(
        SimpleNamespace(pairs=((0, -1),)), [gt_keypoint()], 2), "matching.pairs"),
    "unmatched_proposals_in_a_pair": (lambda: matching(unmatched_proposals=(0,)),
                                      "unmatched_proposals"),
    "unmatched_gts_in_a_pair": (lambda: matching(unmatched_gts=[0, 1]), "unmatched_gts"),
    "keypoint_x_string": (lambda: ProposalSet([keypoint(x="1.5")]), "x"),
    "keypoint_x_bool": (lambda: ProposalSet([keypoint(x=True)]), "x"),
    "keypoint_y_bool": (lambda: ProposalSet([keypoint(y=True)]), "y"),
    "keypoint_dx_bool": (lambda: ProposalSet([keypoint(dx=True)]), "dx"),
    "keypoint_z_none": (lambda: ProposalSet([keypoint(z=None)]), "z"),
    "path_weight_path_past_end": (lambda: path_weight([0, 5], np.zeros((2, 2))), "path"),
    "path_weight_path_negative": (lambda: path_weight([0, -1], np.zeros((2, 2))), "path"),
    "path_weight_path_float": (lambda: path_weight([0, 1.0], np.zeros((2, 2))), "path"),
    "path_weight_adjacency_past_one": (
        lambda: path_weight([0, 1], [[0.0, 3.0], [0.0, 0.0]]), "adjacency"),
    "path_weight_adjacency_nan": (
        lambda: path_weight([0, 1], [[0.0, NAN], [0.0, 0.0]]), "adjacency"),
}


@pytest.mark.parametrize("call, name", REJECTED_ARRAYS.values(), ids=REJECTED_ARRAYS.keys())
def test_bad_array_is_rejected_naming_it(call, name):
    # A proposal column is named with the row it fails on, keypoints[i].name.
    with pytest.raises(ValidationError,
                       match=rf"^(keypoints\[\d+\]\.)?{re.escape(name)}(?![\w.])"):
        call()


# Empty inputs, integer and tuple entries, arrays for pairs, and +inf costs:
# all valid, with the meaning they always had.
ACCEPTED_ARRAYS = {
    "box_nms_empty_array": lambda: box_nms(np.empty((0, 4)), [], 0.1).size == 0,
    "box_nms_empty_lists": lambda: box_nms([], [], 0.1).size == 0,
    "round_half_away_empty": lambda: round_half_away(np.zeros((0, 4))).shape == (0, 4),
    "round_half_away_scalar": lambda: round_half_away(2.5) == 3,
    "empty_frame": lambda: PredictionFrame("f", ProposalSet([]), []).adjacency.shape == (0, 0),
    "empty_columns": lambda: len(ProposalSet.from_arrays([], [], [], class_scores=[])) == 0,
    "integer_boxes": lambda: box_nms(((0, 0, 10, 10), (0, 0, 10, 10)), (1, 0), 0.1).tolist()
    == [0],
    "pair_as_array": lambda: build_uniform_grid(2, 2, np.array([1.0, 5.0]), (-1, 1)).row_y
    .tolist() == [1.0, 5.0],
    "pixel_as_array": lambda: unproject_pixel_to_ground(
        make_forward_camera(), np.array([640.0, 700.0]))[0] == 0.0,
    "costs_infeasible": lambda: solve_assignment([[INF, 1.0], [2.0, INF]]).pairs
    == ((0, 1), (1, 0)),
    "edge_prob_one": lambda: DirectedLaneGraph(**EDGES, edge_prob=[1.0, 0.0]).edges[0]
    == (0, 1, 1.0),
    "recall_tol": lambda: keypoint_recall([keypoint(x=0.25)], [gt_keypoint()], tol=0.25) == 1.0,
    "grid_index_int64_limits": lambda: columns(grid_index=[(2 ** 63 - 1, -2 ** 63), (0, 0)])
    .grid_index.tolist() == [[2 ** 63 - 1, -2 ** 63], [0, 0]],
    "grid_index_numpy_integers": lambda: columns(
        grid_index=[(np.int64(1), np.uint8(2)), (np.int32(3), 4)]).grid_index.tolist()
    == [[1, 2], [3, 4]],
    "grid_index_uint64_in_range": lambda: columns(
        grid_index=np.array([[2 ** 63 - 1, 0], [1, 2]], np.uint64)).grid_index[0, 0]
    == 2 ** 63 - 1,
    "grid_index_object_array": lambda: columns(
        grid_index=np.array([[0, 0], [1, 0]], dtype=object)).grid_index.dtype == np.int64,
    "subset_numpy_integers": lambda: columns().subset(np.array([1, 0], np.int32)).y.tolist()
    == [2.0, 1.0],
    "subset_empty": lambda: len(columns().subset([])) == 0,
    "nodes_uint16": lambda: threshold_adjacency(np.zeros((3, 3)), 0.5,
                                                nodes=np.array([0, 2], np.uint16)).node_count
    == 2,
    "graph_numpy_integers": lambda: DirectedLaneGraph(
        np.int64(3), np.array([0, 1], np.uint8), [np.int32(1), 2], [0.5, 0.5]).edges
    == [(0, 1, 0.5), (1, 2, 0.5)],
    "matching_numpy_integers": lambda: matching(
        pairs=[(np.int64(1), np.uint8(0))], unmatched_proposals={np.int32(0)}).pairs
    == ((1, 0),),
    "targets_last_row": lambda: build_connection_targets(
        matching(pairs=[(1, 0), (0, 1)]), [gt_keypoint(), gt_keypoint(order_in_lane=1)], 2)
    .tolist() == [[0.0, 0.0], [1.0, 0.0]],
}


@pytest.mark.parametrize("call", ACCEPTED_ARRAYS.values(), ids=ACCEPTED_ARRAYS.keys())
def test_valid_array_still_accepted(call):
    assert call()


@pytest.mark.parametrize("values, shape", [
    ([[1.0, 2.0]], (None, 2)), ([], (None, 3)), ([], (0,)), (np.zeros((2, 3, 4)), (2, None, 4)),
    (3.0, ()), ([1, 2], None), ([[1.0]], (1, 1))])
def test_float_array_matches_the_shape_pattern(values, shape):
    array = float_array(values, "v", shape)
    assert array.dtype == float
    if shape is not None:
        assert array.ndim == len(shape)


@pytest.mark.parametrize("values, shape, message", [
    ([1.0, 2.0], (None, 2), r"^v must have shape \(\*, 2\), got \(2,\)$"),
    ([[1.0, 2.0]], (2,), r"^v must have shape \(2,\), got \(1, 2\)$"),
    ([], (3, 3), r"^v must have shape \(3, 3\), got \(0,\)$"),
    (((1.0,), (2.0, True)), None, r"^v: expected a rectangular"),
    (((1.0, 2.0), (3.0, True)), None, r"^v: expected numbers, got a boolean$"),
    ([np.float64(1.0), np.bool_(True)], None, r"^v: expected numbers, got a boolean$"),
    (["1.0"], None, r"^v: expected a rectangular")])
def test_float_array_rejects(values, shape, message):
    with pytest.raises(ValidationError, match=message):
        float_array(values, "v", shape)


@pytest.mark.parametrize("values, shape, message", [
    ([1, 2], (None, 2), r"^v must have shape \(\*, 2\), got \(2,\)$"),
    ([[1], [1, 2]], None, r"^v: expected a rectangular"),
    (["1"], None, r"^v: expected a rectangular"),
    ([1, True], None, r"^v: expected numbers, got a boolean$"),
    (np.array([0, 1], bool), None, r"^v: expected numbers, got a boolean$"),
    ([2.0], None, r"^v\[0\] must be an integer, got 2\.0$"),
    ([[0, 0], [1, 0.5]], None, r"^v\[1\] must be an integer, got 0\.5$"),
    (np.array([[1.0, 2.0]]), None, r"^v\[0\] must be an integer, got 1\.0$"),
    ([0, None], None, r"^v\[1\] must be an integer, got None$"),
    (np.array([1, True], dtype=object), None, r"^v\[1\] must be an integer, got True$"),
    ([0, 2 ** 63], None, r"^v\[1\] must lie in the int64 range, got 9223372036854775808$"),
    ([[0, 0], [0, -2 ** 63 - 1]], None,
     r"^v\[1\] must lie in the int64 range, got -9223372036854775809$"),
    ([2 ** 64], None, r"^v\[0\] must lie in the int64 range, got 18446744073709551616$"),
    (np.array([1, 2 ** 63], np.uint64), None,
     r"^v\[1\] must lie in the int64 range, got 9223372036854775808$")])
def test_int_array_rejects(values, shape, message):
    with pytest.raises(ValidationError, match=message):
        int_array(values, "v", shape)


@pytest.mark.parametrize("values, shape, message", [
    ([0.5, True], (None,), r"^x\[1\]: expected numbers, got a boolean$"),
    ([0.5, "a", None], (None,), r"^x\[1\]: expected a rectangular array of numbers$"),
    ([0.5, [1.0]], (None,), r"^x\[1\] must have shape \(\), got \(1,\)$"),
    ([[0.5], [0.5, True]], (None, None), r"^x\[1\]: expected numbers, got a boolean$"),
    ([[0, 1, 0.5], 7], (None, 3), r"^x\[1\] must have shape \(3,\), got \(\)$"),
    ([[0.5], [0.5, 0.5]], (None, None), r"^x\[1\] must have shape \(1,\), got \(2,\)$"),
    ([[0.5], [0.5, 0.5]], None, r"^x\[1\] must have shape \(1,\), got \(2,\)$"),
    # A rectangular array of the wrong shape is rejected as a whole.
    ([[0.5, 0.5]], (None,), r"^v must have shape \(\*,\), got \(1, 2\)$")])
def test_float_array_names_rows_as_asked(values, shape, message):
    with pytest.raises(ValidationError, match=message):
        float_array(values, "v", shape, "x[{}]")
    assert float_array([[0.5], [1]], "v", (None, 1), "x[{}]").tolist() == [[0.5], [1.0]]


def test_int_array_names_rows_as_asked_and_keeps_int64_exactly():
    with pytest.raises(ValidationError, match=r"^keypoints\[2\]\.grid_index must lie in the int64"):
        int_array([(0, 0), (1, 0), (2 ** 63, 0)], "grid_index", (3, 2), "keypoints[{}].grid_index")
    edges = [-2 ** 63, 2 ** 63 - 1, 2 ** 53 + 1]
    for values in (edges, np.array(edges, dtype=object), np.array(edges[1:], np.uint64)):
        array = int_array(values, "v")
        assert array.dtype == np.int64 and array.tolist() == list(values)
    assert int_array([], "v", (None, 2)).shape == (0, 2)


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


def _package_findings(finder, skipped):
    """``file:line`` of each finding of ``finder`` in lanekit's modules
    outside ``skipped``."""
    package = Path(lanekit.__file__).parent
    return [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
            if path.name not in skipped for line in finder(path.read_text())]


def test_guard_finds_a_bool_check():
    assert list(_bool_isinstance_checks("isinstance(v, (int, np.bool_))\n"
                                        "isinstance(v, bool)\nisinstance(v, int)")) == [1, 2]


def test_no_bool_checks_outside_errors():
    """The bool rule lives in ``errors`` alone, file values included, so it
    cannot drift back into hand-written copies."""
    assert _package_findings(_bool_isinstance_checks, ("errors.py",)) == []


def _raised_value_errors(source):
    """Lines of ``raise ValueError`` statements in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield node.lineno


def _array_conversions_of_arguments(source):
    """Lines where a function converts one of its own parameters, or in
    ``__post_init__`` a field ``self.<name>``, with ``np.asarray`` or
    ``np.array``, whatever the dtype."""
    lines = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, ast.FunctionDef):
            continue
        arguments = function.args
        params = {a.arg for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
        params.discard("self")
        for call in ast.walk(function):
            if not (isinstance(call, ast.Call) and call.args
                    and ast.unparse(call.func) in ("np.asarray", "np.array")):
                continue
            value = call.args[0]
            if (isinstance(value, ast.Name) and value.id in params) or (
                    function.name == "__post_init__" and isinstance(value, ast.Attribute)
                    and ast.unparse(value.value) == "self"):
                lines.add(call.lineno)
    return sorted(lines)


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _foreign_private_constructions(sources):
    """``file:line`` of each call, among ``sources`` (file name -> source),
    to a private record constructor from a module that does not define its
    type: ``unchecked(C, ...)`` where the calling module defines no class
    ``C``, or a call to a private function that calls ``unchecked`` (such
    as ``graph._lane``) from another module than the one defining it."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    makers = {node.name: name for name, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and any(
                  isinstance(call, ast.Call) and _called_name(call) == "unchecked"
                  for call in ast.walk(node))}
    findings = []
    for name, tree in trees.items():
        own = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            called = _called_name(call)
            if called == "unchecked":
                kind = call.args[0] if call.args else None
                if not (isinstance(kind, ast.Name) and kind.id in own):
                    findings.append(f"{name}:{call.lineno}")
            elif makers.get(called, name) != name:
                findings.append(f"{name}:{call.lineno}")
    return sorted(findings)


def _lane_record_calls(source):
    """Lines of ``LaneRecord(...)`` calls in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) == "LaneRecord":
            yield node.lineno


def test_guards_find_what_they_look_for():
    assert list(_raised_value_errors("raise ValueError('a')\nraise ValueError\n"
                                     "raise ValidationError('b')")) == [1, 2]
    graph = ("class LaneRecord:\n    pass\n"
             "def _lane(points):\n    return unchecked(LaneRecord, points=points)\n"
             "def lanes(rows):\n    return [unchecked(LaneRecord, points=r) for r in rows]\n")
    metrics = ("from .graph import LaneRecord, _lane, lanes\n"
               "a = unchecked(LaneRecord, points=1)\nb = errors.unchecked(Other)\n"
               "c = graph._lane(2)\nd = _lane(3)\ne = lanes([4])\nf = LaneRecord(5)\n")
    assert _foreign_private_constructions({"graph.py": graph, "metrics.py": metrics}) == [
        "metrics.py:2", "metrics.py:3", "metrics.py:4", "metrics.py:5"]
    source = ("def f(a, b=None):\n"
              "    x = np.asarray(a, dtype=float)\n"
              "    y = np.array(b, float)\n"
              "    z = np.asarray(a)\n"
              "    w = np.asarray(x, dtype=float)\n"
              "    i = np.asarray(b, dtype=np.int64).reshape(-1)\n"
              "    j = np.array([int(v) for v in a])\n"
              "class C:\n"
              "    def __post_init__(self):\n"
              "        v = np.asarray(self.v, dtype=np.float64)\n"
              "        u, w = np.asarray(self.u), np.asarray(self.w)\n"
              "    def m(self, k):\n"
              "        v = np.asarray(self.v, dtype=float)\n"
              "        k = np.array(k, dtype=np.int64)\n")
    assert _array_conversions_of_arguments(source) == [2, 3, 4, 6, 10, 11, 14]
    assert list(_lane_record_calls("from .graph import LaneRecord\nLaneRecord(p)\n"
                                   "graph.LaneRecord(p, 1)\nlane_records([p], [1])\n")) == [2, 3]


def test_private_constructors_are_called_only_where_their_type_lives():
    """A record made without its rule (``errors.unchecked``) holds values
    that the module defining its type has just made or checked; no other
    module can vouch for them."""
    package = Path(lanekit.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _foreign_private_constructions(sources) == []


def test_io_makes_no_lane_records():
    """A lane or ground-truth file's lanes enter through ``graph.lane_records``
    alone, which checks them once per file and names a bad one."""
    assert list(_lane_record_calls((Path(lanekit.__file__).parent / "io.py").read_text())) == []


def test_no_bare_value_errors_outside_oracles():
    """Bad input raises ValidationError (a ValueError), so callers can tell
    it apart; only the brute-force oracles keep plain ValueErrors."""
    assert _package_findings(_raised_value_errors, ("oracles.py",)) == []


def test_no_hand_written_float_conversions_outside_errors():
    """A caller's array, float or integer, enters through
    ``errors.float_array`` or ``errors.int_array``, so the boolean, shape and
    type rule cannot drift back into hand-written copies."""
    assert _package_findings(_array_conversions_of_arguments, ("errors.py", "oracles.py")) == []


def _row_rejections(source):
    """Lines of calls to ``reject_rows`` or ``reject_non_finite``, the
    hand-written row checks that the ``within`` interval replaced."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("reject_rows", "reject_non_finite"):
                yield node.lineno


def test_guard_finds_a_row_rejection():
    source = ("reject_rows(bad, 'a', '', 'p')\nerrors.reject_non_finite(v, 'a')\n"
              "float_array(v, 'a', within=FINITE)")
    assert list(_row_rejections(source)) == [1, 2]


def test_no_row_rejections_outside_errors():
    """How an out-of-range entry is found and reported is decided in
    ``errors`` alone, by the ``within`` interval of the array rule."""
    assert _package_findings(_row_rejections, ("errors.py",)) == []


# ``float_array`` and ``int_array`` against the plain reading of their rule,
# ``oracle_number_array``: nested lists and tuples 1 to 3 deep, rectangular
# and of one kind of leaf, with up to two parts changed.
LEAF_KINDS = st.sampled_from([st.floats(), st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(0, 1), st.integers(-2 ** 65, 2 ** 65),
                              st.floats().map(np.float64), st.floats() | st.integers(),
                              st.floats() | st.booleans(), st.integers() | st.booleans()])
ODD_LEAVES = st.sampled_from([0, -3, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1,
                              2 ** 64, 10 ** 30, True, False, np.bool_(True), np.bool_(False),
                              np.float64(0.5), np.float64("nan"), np.int64(3), "", "1.5", None,
                              np.array(1.0), np.array(True), np.array([1.0, 2.0]),
                              np.array([2, 3]), np.array([True, False])])
# An array inside a list is drawn twice as often as the other edits.
EDITS = st.sampled_from(["leaf", "array", "short", "long", "empty", "deeper", "remove",
                         "duplicate", "array"])
INTERVALS = st.sampled_from([None, (-INF, INF, "()"), (0, 1, "[]"),
                             (0, INF, "[]"), (-2 ** 63, 2 ** 63, "[)"), (0, 10, "[)")])


def _places(value, where=()):
    """Every place in the nested lists ``value``, parents before children."""
    yield where
    if isinstance(value, list):
        for i, entry in enumerate(value):
            yield from _places(entry, where + (i,))


def _edited(draw, node, edit):
    """``node`` changed by ``edit``; None where the edit removes it."""
    if edit == "leaf":
        return draw(ODD_LEAVES)
    if edit == "array":
        try:
            return np.array(node, dtype=draw(st.sampled_from([None, bool])))
        except (ValueError, TypeError):   # ragged, or no boolean reading
            return node
    if edit == "deeper":
        return [node]
    if edit == "empty":
        return []
    if not isinstance(node, list):
        return None if edit == "remove" else node
    return {"short": node[:-1], "long": node + node[-1:], "remove": None,
            "duplicate": node}[edit]


@st.composite
def nested_numbers(draw):
    """Arguments of the array rules: values, a shape pattern, a row name
    and an interval, each of the last three None at times."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    leaf = draw(LEAF_KINDS)

    def build(depth):
        return draw(leaf) if depth == len(dims) else [build(depth + 1)
                                                      for _ in range(dims[depth])]

    values = build(0)
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(list(_places(values))[1:] or [None]))
        if where is None:   # an empty list
            break
        edit = draw(EDITS)
        parent = values
        for i in where[:-1]:
            parent = parent[i]
        new = _edited(draw, parent[where[-1]], edit)
        if new is None:
            del parent[where[-1]]
        elif edit == "duplicate":
            parent.insert(where[-1], new)
        else:
            parent[where[-1]] = new

    def tupled(value):
        if not isinstance(value, list):
            return value
        entries = [tupled(entry) for entry in value]
        return tuple(entries) if draw(st.booleans()) else entries

    shape = draw(st.one_of(
        st.none(), st.tuples(*(st.sampled_from([n, None]) for n in dims)),
        st.lists(st.none() | st.integers(0, 3), min_size=1, max_size=4).map(tuple)))
    return tupled(values), shape, draw(st.sampled_from([None, "v[{}].x"])), draw(INTERVALS)


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


_CYCLE = []
_CYCLE.append(_CYCLE)


def _outcome(rule, *args):
    try:
        array = rule(*args)
    except ValidationError as exc:
        return "error", str(exc)
    return array.dtype.str, array.shape, array.tobytes()


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nested_numbers())
# numpy reads a boolean array among rows of floats as floats.
@example(([np.array([True, False]), [1.0, 2.0]], None, None, None))
@example(([[1.0, 2.0], (np.array([0.5, True]), [3.0, 4.0])], (2, 2, 2), "v[{}].x", None))
# Deeper than numpy reads, and a list holding itself.
@example((_nested(1.0, 70), None, None, None))
@example((_CYCLE, None, "v[{}].x", None))
def test_array_rules_agree_with_the_oracle(args):
    """``float_array`` and ``int_array`` give the same array, dtype, shape
    and bits, or the same message, as with the oracle's rule in place."""
    values, shape, row_name, within = args
    for rule in (float_array, int_array):
        got = _outcome(rule, values, "v", shape, row_name, within)
        with mock.patch.object(errors, "_number_array", oracle_number_array):
            want = _outcome(rule, values, "v", shape, row_name, within)
        assert got == want
