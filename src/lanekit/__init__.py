"""Deterministic post-processing for keypoint-graph 3D lane detection.

The pieces compose into one inference path: anchor grids in the BEV plane
(`geometry`), proposal selection and point suppression (`nms`), adjacency
prediction (`connection_head`), lane extraction over the keypoint graph
(`graph`), training-time assignment (`matching`), metric evaluation
(`metrics`), plus serialization (`io`), synthetic scenes (`synthetic`) and
the glue (`pipeline`, `cli`).
"""

from .config import EVAL_THRESHOLDS_M, MODEL_PRESETS, ModelConfig
from .connection_head import (ConnectionFeatures, HeadWeights,
                              adjacency_forward, positional_encode,
                              random_head_weights)
from .errors import NoGroundIntersection, SchemaError, ValidationError
from .geometry import (AnchorGrid, CameraModel, ProjectionMap,
                       bilinear_sample, build_custom_grid, build_uniform_grid,
                       make_forward_camera, project_grid_to_image,
                       project_points, unproject_pixel_to_ground)
from .graph import (AdjacencyMatrix, DirectedLaneGraph, LaneRecord,
                    extract_lanes, find_terminals, path_weight,
                    threshold_adjacency)
from .io import (PredictionFrame, load_ground_truth, load_lane_frame, load_prediction_frame,
                 save_ground_truth, save_lane_frame, save_prediction_frame)
from .matching import (GroundTruthKeypoint, Matching, build_connection_targets,
                       build_cost_matrix, match_keypoints, solve_assignment)
from .metrics import EvalReport, GroundTruthLane, evaluate, match_lanes, resample_lane
from .nms import (Keypoint, ProposalSet, box_nms, build_nms_boxes,
                  default_nms_thresholds, infer_nms_thresholds, point_nms)
from .pipeline import PipelineResult, run_pipeline, suppress
from .synthetic import SceneSpec, generate_scene, gt_keypoints, keypoint_recall

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix", "AnchorGrid", "CameraModel", "ConnectionFeatures",
    "DirectedLaneGraph", "EVAL_THRESHOLDS_M", "EvalReport",
    "GroundTruthKeypoint", "GroundTruthLane", "HeadWeights", "Keypoint",
    "LaneRecord", "MODEL_PRESETS", "Matching", "ModelConfig",
    "NoGroundIntersection", "PipelineResult", "PredictionFrame",
    "ProjectionMap", "ProposalSet", "SceneSpec", "SchemaError",
    "ValidationError", "adjacency_forward",
    "bilinear_sample", "box_nms", "build_connection_targets",
    "build_cost_matrix", "build_custom_grid", "build_nms_boxes",
    "build_uniform_grid",
    "default_nms_thresholds", "evaluate", "extract_lanes", "find_terminals",
    "generate_scene", "gt_keypoints", "infer_nms_thresholds",
    "keypoint_recall", "load_ground_truth", "load_lane_frame", "load_prediction_frame",
    "make_forward_camera", "match_keypoints", "match_lanes", "path_weight",
    "point_nms", "positional_encode", "project_grid_to_image",
    "project_points", "random_head_weights", "resample_lane", "run_pipeline",
    "save_ground_truth", "save_lane_frame", "save_prediction_frame",
    "solve_assignment", "suppress", "threshold_adjacency", "unproject_pixel_to_ground",
]
