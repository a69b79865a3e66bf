"""Fuzz tests of the JSON loaders.

Whatever a file holds, ``load_prediction_frame``, ``load_lane_frame`` and
``load_ground_truth`` either return or raise ``ValidationError`` (which
``SchemaError`` subclasses); no other exception may escape.  Inputs are
arbitrary JSON documents and valid files with a few parts replaced, removed
or duplicated, or a few point rows edited.  Whatever a loader accepts must
also save and load back unchanged, must hold no JSON boolean where a number
belongs, alone or in a list of numbers, and its lanes' points must be the
file's.

The loaders' one decoder, ``io._load_json``, must also return exactly what
the stdlib decoder returns, types included, or raise the same
``SchemaError``, on every writer's output and on arbitrary documents, with
integer literals read by orjson's rule: an int inside [-2**63, 2**64), else
the nearest float.
"""

import copy
import json
from decimal import Decimal
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lanekit.errors import SchemaError, ValidationError
from lanekit.io import (LaneRecord, PredictionFrame, _load_json, _reject_constant,
                        load_ground_truth, load_lane_frame, load_prediction_frame,
                        save_ground_truth, save_lane_frame, save_prediction_frame)
from lanekit.nms import ProposalSet

_TEMP = tempfile.TemporaryDirectory(prefix="lanekit-fuzz-")   # removed at exit
WORKDIR = Path(_TEMP.name)

# Values a hand-edited file is likely to hold where a number belongs.
SPECIAL = st.sampled_from([0, 1, -1, 2, 0.5, -0.0, 1e308, -1e308, 2 ** 63, 10 ** 400,
                           -10 ** 400, True, False, None, "", "0.5", "a", [], {}, [[]],
                           [0, 1], [0.5, 0.5, 0.5], "dense", "sparse"])

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def json_values(integers=st.integers(), floats=FINITE, text=st.text(max_size=5)):
    """JSON values whose integers, floats and strings are drawn from the
    strategies given."""
    scalars = st.none() | st.booleans() | integers | floats | text | SPECIAL
    return st.recursive(scalars, lambda children: st.lists(children, max_size=4)
                        | st.dictionaries(st.text(max_size=8), children, max_size=4),
                        max_leaves=12)


JSON = json_values()
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
}


def paths(doc, prefix=()):
    """Every location inside ``doc``, parents before children."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


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


# Edits of one point row that end ``float_array``'s walk of the rows early.
POINT_EDITS = ["int", "true", "string", "deeper", "short", "empty"]


def file_lanes(doc):
    """The lane entries of a lane or ground-truth file ``doc``."""
    if "frames" in doc:
        return [lane for frame in doc["frames"] for lane in frame["lanes"]]
    return doc["lanes"]


@st.composite
def point_edited(draw, kind):
    """A valid file of ``kind`` with one to three point rows edited: a
    coordinate made an int, ``true``, a string or a list of itself, or a row
    made one short or empty."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID[kind])))
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.sampled_from(file_lanes(doc)))["points"]
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(POINT_EDITS))
        if edit == "short":
            rows[i] = rows[i][:-1]
        elif edit == "empty":
            rows[i] = []
        elif rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = {"int": draw(st.integers() | st.sampled_from([2 ** 63, 2 ** 64])),
                          "true": True, "string": str(rows[i][j]),
                          "deeper": [rows[i][j]]}[edit]
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


def leaves(value):
    """The entries of ``value`` and of every list nested in it."""
    if isinstance(value, list):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def check_frame(doc):
    frame = load(load_prediction_frame, doc)
    if frame is not None:
        adjacency = doc["adjacency"]
        triplets = adjacency["triplets"] if adjacency["format"] == "sparse" else []
        assert no_bools(doc["categories"], doc["repeats_n"], adjacency["size"],
                        *(v for triplet in triplets for v in triplet),
                        *(entry[name] for entry in doc["keypoints"]
                          for name in ("row", "col", "x", "y", "dx", "z", "fg_score")),
                        *leaves([entry["class_scores"] for entry in doc["keypoints"]]),
                        *leaves(adjacency.get("probs", [])))
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
        assert no_bools(*(l.category for l in lanes), *(l.confidence for l in lanes),
                        *leaves([entry["points"] for entry in doc["lanes"]]))
        assert all(np.array_equal(lane.points, np.array(entry["points"], dtype=float))
                   for lane, entry in zip(lanes, doc["lanes"]))
        again = load_lane_frame(resaved(save_lane_frame, frame_id, lanes))
        assert again[0] == frame_id and len(again[1]) == len(lanes)
        for a, b in zip(again[1], lanes):
            assert (a.category, a.confidence) == (b.category, b.confidence)
            assert np.array_equal(a.points, b.points)


def check_gt(doc):
    frames = load(load_ground_truth, doc)
    if frames is not None:
        assert no_bools(*(l.category for lanes in frames.values() for l in lanes),
                        *leaves([lane["points"] for entry in doc["frames"]
                                 for lane in entry["lanes"]]))
        assert all(np.array_equal(lane.points, np.array(entry["points"], dtype=float))
                   for lane, entry in zip((lane for entry in doc["frames"]
                                           for lane in frames[entry["frame_id"]]),
                                          file_lanes(doc)))
        again = load_ground_truth(resaved(save_ground_truth, frames))
        assert sorted(again) == sorted(frames)
        for fid in frames:
            assert [l.category for l in again[fid]] == [l.category for l in frames[fid]]
            assert all(np.array_equal(a.points, b.points)
                       for a, b in zip(again[fid], frames[fid]))


@FUZZ
@given(JSON)
def test_arbitrary_json(doc):
    check_frame(doc)
    check_lanes(doc)
    check_gt(doc)


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
@given(point_edited("lanes"))
def test_point_edited_lane_file(doc):
    check_lanes(doc)


@FUZZ
@given(point_edited("gt"))
def test_point_edited_ground_truth(doc):
    check_gt(doc)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text(text):
    path = WORKDIR / "text.json"
    path.write_text(text)
    for loader in (load_prediction_frame, load_lane_frame, load_ground_truth):
        try:
            loader(path)
        except ValidationError:
            pass


UNIT = st.floats(0, 1)


@st.composite
def written(draw):
    """The text one of the writers makes: a dense or sparse frame, a lane or
    a ground-truth file, holding drawn numbers."""
    kind = draw(st.sampled_from(["dense", "sparse", "lanes", "gt"]))
    path = WORKDIR / "written.json"
    if kind in ("dense", "sparse"):
        n, width = draw(st.integers(0, 5)), draw(st.integers(0, 3))

        def column(elements, shape):
            count = int(np.prod(shape))
            return np.array(draw(st.lists(elements, min_size=count, max_size=count)),
                            dtype=float).reshape(shape)

        x, dx = column(FINITE, n), column(FINITE, n)
        with np.errstate(over="ignore"):
            assume(np.isfinite(x + dx).all())   # a set holds finite refined positions only
        proposals = ProposalSet.from_arrays(
            [(i, draw(st.integers(-2 ** 63, 2 ** 63 - 1))) for i in range(n)],
            x, column(FINITE, n), dx, column(FINITE, n),
            column(UNIT, n), column(UNIT, (n, width)), repeats_n=draw(st.integers(1, 3)))
        adjacency = column(UNIT, (n, n))
        if kind == "sparse":
            # At most a third of the entries nonzero picks the triplet encoding.
            adjacency.reshape(-1)[(n * n + 2) // 3:] = 0.0
        save_prediction_frame(PredictionFrame(frame_id=draw(st.text(max_size=5)),
                                              keypoints=proposals, adjacency=adjacency), path)
    else:
        def lane():
            points = draw(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=2, max_size=4))
            points.sort(key=lambda p: p[1])
            return LaneRecord(points, draw(st.integers(0, 2 ** 64 - 1)), draw(UNIT))

        lanes = [lane() for _ in range(draw(st.integers(0, 3)))]
        if kind == "lanes":
            save_lane_frame(draw(st.text(max_size=5)), lanes, path)
        else:
            save_ground_truth({"f": lanes, "g": lanes[:1]}, path)
    return path.read_text()


DOCUMENTS = st.one_of(
    written(),
    json_values().map(json.dumps),
    # NaN and Infinity tokens, and strings holding surrogate escapes.
    json_values(floats=st.floats(),
                text=st.text(st.characters(min_codepoint=0xd7f0, max_codepoint=0xdfff),
                             max_size=3)).map(json.dumps),
    st.text(max_size=40))


def orjson_integer(literal):
    """An integer literal as orjson reads it: an int inside [-2**63, 2**64),
    else the nearest float."""
    value = Decimal(literal)
    return int(value) if -2 ** 63 <= value < 2 ** 64 else float(literal)


def stdlib_load_json(text):
    """``_load_json``'s result by the stdlib decoder alone."""
    try:
        return json.loads(text, parse_int=orjson_integer, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError("file", f"not valid JSON ({exc})") from exc


def outcome(decode, arg):
    try:
        return "value", decode(arg)
    except SchemaError as exc:
        return "error", str(exc)


def identical(a, b):
    """Whether ``a`` and ``b`` are equal with one type at every node; floats
    compare by their bits, so 0.0 and -0.0 differ."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
def test_load_json_agrees_with_the_stdlib_decoder(text):
    path = WORKDIR / "decode.json"
    path.write_bytes(text.encode("utf-8"))
    (kind, got), (want_kind, want) = outcome(_load_json, path), outcome(stdlib_load_json, text)
    assert kind == want_kind
    assert identical(got, want) if kind == "value" else got == want
