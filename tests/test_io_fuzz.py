"""Fuzz tests of the JSON loaders.

Whatever a file holds, ``load_prediction_frame``, ``load_lane_frame``,
``load_ground_truth``, ``load_camera`` and ``load_head_weights`` either
return or raise ``ValidationError`` (which ``SchemaError`` subclasses); no
other exception may escape.  Inputs are
arbitrary JSON documents and valid files with a few parts replaced, removed
or duplicated.  Whatever a loader accepts must also save and load back
unchanged, and must hold no JSON boolean where a number belongs.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanekit.connection_head import random_head_weights
from lanekit.errors import ValidationError
from lanekit.geometry import build_uniform_grid, make_forward_camera, project_grid_to_image
from lanekit.io import (LaneRecord, PredictionFrame, load_camera, load_ground_truth,
                        load_head_weights, load_lane_frame, load_prediction_frame,
                        save_camera, save_ground_truth, save_head_weights, save_lane_frame,
                        save_prediction_frame)
from lanekit.nms import ProposalSet

_TEMP = tempfile.TemporaryDirectory(prefix="lanekit-fuzz-")   # removed at exit
WORKDIR = Path(_TEMP.name)

# Values a hand-edited file is likely to hold where a number belongs.
SPECIAL = st.sampled_from([0, 1, -1, 2, 0.5, -0.0, 1e308, -1e308, 2 ** 63, 10 ** 400,
                           -10 ** 400, True, False, None, "", "0.5", "a", [], {}, [[]],
                           [0, 1], [0.5, 0.5, 0.5], "dense", "sparse"])
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5) | SPECIAL)
JSON = st.recursive(SCALARS, lambda children: st.lists(children, max_size=4)
                    | st.dictionaries(st.text(max_size=8), children, max_size=4),
                    max_leaves=12)
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def valid_frame():
    rng = np.random.default_rng(0)
    proposals = ProposalSet.from_arrays([[0, 1], [1, 1], [2, 0]], rng.uniform(-3, 3, 3),
                                        [3.0, 5.0, 7.0], rng.uniform(-1, 1, 3),
                                        rng.uniform(-0.2, 0.2, 3), rng.uniform(0, 1, 3),
                                        rng.uniform(0, 1, (3, 2)), repeats_n=2)
    adjacency = np.zeros((3, 3))
    adjacency[0, 1] = 0.9
    sparse = PredictionFrame(frame_id="s", keypoints=proposals, adjacency=adjacency)
    dense = PredictionFrame(frame_id="d", keypoints=proposals,
                            adjacency=rng.uniform(0.1, 1, (3, 3)))
    return sparse, dense


def saved(save, *args):
    path = WORKDIR / "valid.json"
    save(*args, path)
    return json.loads(path.read_text())


LANES = [LaneRecord([[0.0, 3.0, 0.0], [0.5, 9.0, 0.1], [1.0, 20.0, 0.2]], 2, 0.75),
         LaneRecord([[4.0, 1.0, 0.0], [4.0, 1.0, 0.0]], 0, 1.0)]
VALID = {
    "frame": [saved(save_prediction_frame, frame) for frame in valid_frame()],
    "lanes": [saved(save_lane_frame, "f", LANES)],
    "gt": [saved(save_ground_truth, {"f": LANES, "g": LANES[:1]})],
    "camera": [saved(save_camera, make_forward_camera())],
    "weights": [saved(save_head_weights,
                      random_head_weights(0, d_c=1, dims_per_axis=1, hidden=2, embed=2))],
}


def paths(doc, prefix=()):
    """Every location inside ``doc``, parents before children."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


GRID = build_uniform_grid(4, 4, (3.0, 80.0), (-10.0, 10.0))
HUGE = st.floats(min_value=1e6, max_value=1e308) | st.floats(min_value=-1e308, max_value=-1e6)
# Entries of a camera file a huge number may land in: any intrinsic entry,
# and the translation column of the extrinsic.
CAMERA_ENTRIES = [("intrinsic", i) for i in range(9)] + [("extrinsic", i) for i in (3, 7, 11)]


@st.composite
def huge_camera(draw):
    """A valid camera file with one to three entries made huge but finite."""
    doc = copy.deepcopy(VALID["camera"][0])
    for key, index in draw(st.lists(st.sampled_from(CAMERA_ENTRIES), min_size=1, max_size=3)):
        doc[key][index] = draw(HUGE)
    return doc


@st.composite
def mutated(draw, kind):
    """A valid file of ``kind`` with one to three parts changed."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID[kind])))
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(list(paths(doc))))
        if not where:
            continue
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        key = where[-1]
        action = draw(st.sampled_from(["replace", "remove", "duplicate"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(JSON))   # drawn values may be shared
        elif action == "remove":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key + "_"] = copy.deepcopy(parent[key])
    return doc


def load(loader, doc):
    path = WORKDIR / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        return loader(path)
    except ValidationError:
        return None


def resaved(save, *args):
    path = WORKDIR / "again.json"
    save(*args, path)
    return path


def no_bools(*values):
    return not any(isinstance(v, bool) for v in values)


def check_frame(doc):
    frame = load(load_prediction_frame, doc)
    if frame is not None:
        adjacency = doc["adjacency"]
        triplets = adjacency["triplets"] if adjacency["format"] == "sparse" else []
        assert no_bools(doc["categories"], doc["repeats_n"], adjacency["size"],
                        *(v for triplet in triplets for v in triplet),
                        *(entry[name] for entry in doc["keypoints"]
                          for name in ("row", "col", "x", "y", "dx", "z", "fg_score")))
        again = load_prediction_frame(resaved(save_prediction_frame, frame))
        assert again.frame_id == frame.frame_id and again.camera == frame.camera
        assert again.keypoints.repeats_n == frame.keypoints.repeats_n
        for name in ("grid_index", "x", "y", "dx", "z", "fg_score", "class_scores"):
            assert np.array_equal(getattr(again.keypoints, name),
                                  getattr(frame.keypoints, name))
        assert np.array_equal(again.adjacency, frame.adjacency)


def check_lanes(doc):
    loaded = load(load_lane_frame, doc)
    if loaded is not None:
        frame_id, lanes = loaded
        assert no_bools(*(l.category for l in lanes), *(l.confidence for l in lanes))
        again = load_lane_frame(resaved(save_lane_frame, frame_id, lanes))
        assert again[0] == frame_id and len(again[1]) == len(lanes)
        for a, b in zip(again[1], lanes):
            assert (a.category, a.confidence) == (b.category, b.confidence)
            assert np.array_equal(a.points, b.points)


def check_gt(doc):
    frames = load(load_ground_truth, doc)
    if frames is not None:
        assert no_bools(*(l.category for lanes in frames.values() for l in lanes))
        again = load_ground_truth(resaved(save_ground_truth, frames))
        assert sorted(again) == sorted(frames)
        for fid in frames:
            assert [l.category for l in again[fid]] == [l.category for l in frames[fid]]
            assert all(np.array_equal(a.points, b.points)
                       for a, b in zip(again[fid], frames[fid]))


def check_camera(doc):
    camera = load(load_camera, doc)
    if camera is not None:
        again = load_camera(resaved(save_camera, camera))
        assert np.array_equal(again.intrinsic, camera.intrinsic)
        assert np.array_equal(again.extrinsic, camera.extrinsic)
        assert again.image_size == camera.image_size
        # An accepted camera projects without overflow (a RuntimeWarning,
        # which tier-1 turns into an error).
        project_grid_to_image(GRID, camera)


def check_weights(doc):
    weights = load(load_head_weights, doc)
    if weights is not None:
        assert no_bools(doc["final.b"])
        again = load_head_weights(resaved(save_head_weights, weights))
        for name, value in vars(weights).items():
            assert np.array_equal(getattr(again, name), value)


@FUZZ
@given(JSON)
def test_arbitrary_json(doc):
    check_frame(doc)
    check_lanes(doc)
    check_gt(doc)
    check_camera(doc)
    check_weights(doc)


@FUZZ
@given(mutated("frame"))
def test_mutated_prediction_frame(doc):
    check_frame(doc)


@FUZZ
@given(mutated("lanes"))
def test_mutated_lane_file(doc):
    check_lanes(doc)


@FUZZ
@given(mutated("gt"))
def test_mutated_ground_truth(doc):
    check_gt(doc)


@FUZZ
@given(mutated("camera"))
def test_mutated_camera(doc):
    check_camera(doc)


@FUZZ
@given(huge_camera())
def test_camera_with_huge_entries(doc):
    check_camera(doc)


@FUZZ
@given(mutated("weights"))
def test_mutated_head_weights(doc):
    check_weights(doc)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text(text):
    path = WORKDIR / "text.json"
    path.write_text(text)
    for loader in (load_prediction_frame, load_lane_frame, load_ground_truth,
                   load_camera, load_head_weights):
        try:
            loader(path)
        except ValidationError:
            pass
