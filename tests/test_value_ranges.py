"""Every argument whose values have a range keeps exactly the values it
always accepted, now that ``errors.float_array`` and ``errors.int_array``
check that range with their ``within`` interval.

Each site below places one drawn value into an otherwise valid argument and
states the predicate its hand-written check used to apply.  The values are
drawn at and next to the interval's ends (``np.nextafter``), NaN, the
infinities and the int64 edges, besides arbitrary ones.  A value is accepted
exactly when the predicate holds, and a rejection names the argument and
the row that holds the value.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanekit.connection_head import ConnectionFeatures, HeadWeights, random_head_weights
from lanekit.errors import ValidationError
from lanekit.geometry import (AnchorGrid, CameraModel, ProjectionMap, bilinear_sample,
                              build_uniform_grid)
from lanekit.graph import (AdjacencyMatrix, DirectedLaneGraph, LaneRecord, path_weight,
                           threshold_adjacency)
from lanekit.io import PredictionFrame, load_prediction_frame, save_prediction_frame
from lanekit.matching import CostMatrix, Matching
from lanekit.metrics import evaluate, resample_lane
from lanekit.nms import ProposalSet, box_nms, build_nms_boxes, round_half_away
from lanekit.synthetic import SceneSpec, generate_scene

_TEMP = tempfile.TemporaryDirectory(prefix="lanekit-ranges-")   # removed at exit
FRAME_PATH = Path(_TEMP.name) / "frame.json"
INT64 = (-2 ** 63, 2 ** 63)


def finite(v):
    return math.isfinite(v)


def columns(name, value):
    """Two proposals whose column ``name`` holds ``value`` in row 1."""
    cols = {"grid_index": [(0, 0), (1, 0)], "x": [0.0, 0.5], "y": [1.0, 2.0],
            "dx": [0.0, 0.0], "z": [0.0, 0.0], "fg_score": [0.5, 0.5],
            "class_scores": [[0.5], [0.5]]}
    cols[name] = [cols[name][0], [value] if name == "class_scores" else value]
    return ProposalSet.from_arrays(**cols)


def lane():
    return LaneRecord([[0.0, 1.0, 0.0], [0.0, 10.0, 0.0]])


def head(value):
    weights = random_head_weights(0, d_c=2, dims_per_axis=2, hidden=3, embed=2)
    fields = dict(vars(weights), origin_b1=[0.1, value, 0.1])
    return HeadWeights(**fields)


def camera(name, value):
    intrinsic, extrinsic = np.diag([100.0, 100.0, 1.0]), np.eye(4)
    # Row 1's last entry is free in both: the principal point's v, a translation.
    (intrinsic if name == "intrinsic" else extrinsic)[1, -1] = value
    return CameraModel(intrinsic, extrinsic, (4, 4))


def anchor_grid(positions_x=0.0, spacing=1.0):
    return AnchorGrid(rows=2, cols=1, positions=[[[0.0, 1.0]], [[positions_x, 2.0]]],
                      row_spacing=[1.0, spacing], mode="uniform")


def sample(value):
    pmap = ProjectionMap(pixel_coords=np.array([[[0.0, 0.0]], [[value, 0.0]]]),
                         valid=np.ones((2, 1), bool))
    return bilinear_sample(np.ones((2, 2, 1)), pmap)


def scene(x0=0.0, z0=0.0):
    grid = build_uniform_grid(4, 4, y_range=(3.0, 6.0), x_range=(-1.5, 1.5))
    return generate_scene(SceneSpec(seed=0, lane_count=1, x_coeffs=((x0, 0.0, 0.0, 0.0),),
                                    z_coeffs=((z0, 0.0),)), grid)


def load_triplet_index(value):
    """A sparse frame file whose triplet 1 starts at row ``value``, loaded."""
    proposals = ProposalSet.from_arrays([(0, 0), (1, 0), (2, 0)], [0.0] * 3, [1.0, 2.0, 3.0])
    save_prediction_frame(PredictionFrame("f", proposals, np.zeros((3, 3))), FRAME_PATH)
    raw = json.loads(FRAME_PATH.read_text())
    raw["adjacency"] = {"format": "sparse", "size": 3,
                        "triplets": [[0, 1, 0.5], [value, 2, 0.5]]}
    FRAME_PATH.write_text(json.dumps(raw))
    return load_prediction_frame(FRAME_PATH)


def box_edges_in_int64(v):
    """The former check of ``build_nms_boxes([[0, 0], [v, 0]], 1.0, 1.0)``:
    a finite point whose box edges v * 10 -+ 5 lie in the int64 range."""
    return finite(v) and -2.0 ** 63 <= v * 10 - 5.0 and v * 10 + 5.0 < 2.0 ** 63


# name: (interval ends to probe, call with the value, the former predicate,
# the message a rejection starts with).  Float sites first.
FLOAT_SITES = {
    **{f"from_arrays_{name}": ((), lambda v, name=name: columns(name, v), finite,
                               rf"keypoints\[1\]\.{name} must ")
       for name in ("x", "y", "dx", "z")},
    "from_arrays_fg_score": ((0, 1), lambda v: columns("fg_score", v),
                             lambda v: finite(v) and 0.0 <= v <= 1.0,
                             r"keypoints\[1\]\.fg_score must "),
    "from_arrays_class_scores": ((0, 1), lambda v: columns("class_scores", v),
                                 lambda v: 0.0 <= v <= 1.0, r"keypoints\[1\]\.class_scores must "),
    "round_half_away": (INT64, lambda v: round_half_away([0.0, v]),
                        lambda v: -2.0 ** 63 <= v < 2.0 ** 63, r"values\[1\] must "),
    "build_nms_boxes": (INT64, lambda v: build_nms_boxes([[0.0, 0.0], [v, 0.0]], 1.0, 1.0),
                        box_edges_in_int64, r"points_xy\[1\]( box edge)? must "),
    "box_nms_boxes": ((), lambda v: box_nms([[0, 0, 1, 1], [v, 0, v, 1]], [0.5, 0.4], 0.1),
                      finite, r"boxes\[1\] must "),
    "box_nms_scores": ((), lambda v: box_nms([[0, 0, 1, 1], [2, 0, 3, 1]], [0.5, v], 0.1),
                       finite, r"scores\[1\] must "),
    "adjacency_matrix": ((0, 1), lambda v: AdjacencyMatrix([[0.0, 0.5], [v, 0.0]]),
                         lambda v: v >= 0.0 and v <= 1.0, r"adjacency\[1\] must "),
    "edge_prob": ((1,), lambda v: DirectedLaneGraph(3, [0, 1], [1, 2], [0.5, v]),
                  lambda v: v <= 1.0, r"edge_prob\[1\] must "),
    "path_weight_adjacency": ((0, 1), lambda v: path_weight([0, 1], [[0.0, 0.5], [v, 0.0]]),
                              lambda v: v >= 0.0 and v <= 1.0, r"adjacency\[1\] must "),
    "lane_points": ((), lambda v: LaneRecord([[0.0, 1.0, 0.0], [v, 2.0, 0.0]]), finite,
                    r"points\[1\] must "),
    "cost_matrix": ((0,), lambda v: CostMatrix([[1.0, 2.0], [v, 1.0]]), lambda v: v >= 0.0,
                    r"costs\[1\] must "),
    "conf_steps": ((0, 1), lambda v: evaluate([lane()], [lane()], (1.5,), conf_steps=(0.5, v)),
                   lambda v: 0.0 <= v <= 1.0, r"conf_steps\[1\] must "),
    "y_samples": ((), lambda v: resample_lane(lane(), [v]), finite, r"y_samples\[0\] must "),
    "head_weights": ((), head, finite, r"origin_b1\[1\] must "),
    "features_f_c": ((), lambda v: ConnectionFeatures([[0.0], [v]], [[0.0, 1.0], [0.0, 2.0]]),
                     finite, r"f_c\[1\] must "),
    "features_positions": ((), lambda v: ConnectionFeatures([[0.0], [0.0]],
                                                            [[0.0, 1.0], [v, 2.0]]),
                           finite, r"positions\[1\] must "),
    "camera_intrinsic": ((-1e12, 1e12), lambda v: camera("intrinsic", v),
                         lambda v: abs(v) <= 1e12, r"intrinsic\[1\] must "),
    "camera_extrinsic": ((-1e12, 1e12), lambda v: camera("extrinsic", v),
                         lambda v: abs(v) <= 1e12, r"extrinsic\[1\] must "),
    "grid_positions": ((-1e100, 1e100), lambda v: anchor_grid(positions_x=v),
                       lambda v: abs(v) <= 1e100, r"positions\[1\] must "),
    "grid_row_spacing": ((), lambda v: anchor_grid(spacing=v), finite,
                         r"row_spacing\[1\] must "),
    "pixel_coords": ((), sample, finite, r"pmap\.pixel_coords\[1\] must "),
    # A finite lane outside the grid's x range [-1.5, 1.5] is rejected too.
    "x_coeffs": ((-1.5, 1.5), lambda v: scene(x0=v), lambda v: -1.5 <= v <= 1.5,
                 r"(x_coeffs\[0\] must |lane leaves the lateral grid range)"),
    "z_coeffs": ((), lambda v: scene(z0=v), finite, r"z_coeffs\[0\] must "),
}

INT_SITES = {
    "subset": ((0, 2), lambda v: columns("x", 0.0).subset([0, v]), lambda v: 0 <= v < 2,
               r"indices\[1\] must "),
    "edge_src": ((0, 3), lambda v: DirectedLaneGraph(3, [0, v], [1, 2], [0.5, 0.5]),
                 lambda v: 0 <= v < 3, r"edge_src\[1\] must "),
    "edge_dst": ((0, 3), lambda v: DirectedLaneGraph(3, [0, 1], [1, v], [0.5, 0.5]),
                 lambda v: 0 <= v < 3, r"edge_dst\[1\] must "),
    # The former predicate: nodes[0] >= 0, nodes[-1] < 3, and increasing.
    "threshold_nodes": ((0, 3), lambda v: threshold_adjacency(np.zeros((3, 3)), 0.5, [0, v]),
                        lambda v: 0 < v < 3,
                        r"(nodes\[1\] must |nodes must be strictly increasing)"),
    "path_weight_path": ((0, 2), lambda v: path_weight([0, v], np.zeros((2, 2))),
                         lambda v: 0 <= v < 2, r"path\[1\] must "),
    # The former check took any non-negative int here, beyond int64 too,
    # though such an index names no keypoint; a path is an int64 array now.
    # A node listed twice is no simple path.
    "lane_path": ((0,), lambda v: LaneRecord([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], path=(7, v)),
                  lambda v: 0 <= v < 2 ** 63 and v != 7,
                  r"(path\[1\] must |lane path must be simple)"),
    "triplet_index": ((0, 3), load_triplet_index, lambda v: 0 <= v < 3,
                      r"adjacency\.triplets\[1\] must "),
    "matching_pairs": ((0,), lambda v: Matching(((0, 0), (1, v)), (), ()),
                       lambda v: 0 <= v < 2 ** 63, r"pairs\[1\] must "),
    "matching_unmatched": ((0,), lambda v: Matching((), (v,), ()), lambda v: 0 <= v < 2 ** 63,
                           r"unmatched_proposals\[0\] must "),
}


def _float_values(ends):
    edges = [np.nextafter(e, to) for e in map(float, ends + INT64) for to in (-np.inf, np.inf)]
    special = [*map(float, ends + INT64), *edges, math.nan, math.inf, -math.inf, 0.0, -0.0,
               float(np.finfo(float).max), -float(np.finfo(float).max)]
    return st.sampled_from([float(v) for v in special]) | st.floats()


def _int_values(ends):
    special = [v + step for v in ends + INT64 for step in (-1, 0, 1)]
    return st.sampled_from(special) | st.integers()


SITES = {**{name: (_float_values(ends), *rest) for name, (ends, *rest) in FLOAT_SITES.items()},
         **{name: (_int_values(ends), *rest) for name, (ends, *rest) in INT_SITES.items()}}


@pytest.mark.parametrize("site", SITES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_site_keeps_its_accepted_values(site, data):
    values, call, accepts, message = SITES[site]
    value = data.draw(values, label="value")
    try:
        call(value)
    except ValidationError as exc:
        assert not accepts(value), f"{value!r} was accepted, now rejected: {exc}"
        assert re.match(message, str(exc)), str(exc)
    else:
        assert accepts(value), f"{value!r} was rejected, now accepted"
