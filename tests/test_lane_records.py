"""``graph.lane_records``, the one-call check of a file's lanes, against
``LaneRecord``'s rule applied lane by lane: the same lanes accepted, the
same first bad lane and message rejected, the same values kept.  The
loaders that use it check every lane object's structure before any lane's
values.  The records lanekit builds itself without the public rule
(extracted lanes, thresholded graphs, matchings) equal the ones that rule
builds."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanekit import io
from lanekit.errors import SchemaError, ValidationError
from lanekit.graph import (DirectedLaneGraph, LaneRecord, _lanes_at_once, extract_lanes,
                           lane_records, threshold_adjacency)
from lanekit.io import load_ground_truth, load_lane_frame
from lanekit.matching import Matching, _matching, match_keypoints
from lanekit.nms import ProposalSet

_TEMP = tempfile.TemporaryDirectory(prefix="lanekit-lanes-")   # removed at exit
WORKDIR = Path(_TEMP.name)

# Integers at the int64 and uint64 edges: numpy reads a lane of them
# alone as int64, uint64 or object, and beside floats as float64.
EDGE_INTS = [2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64, 2 ** 53 + 1]
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "1", -0.0,
                           1e308, *EDGE_INTS])
COORDINATE = st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
CATEGORY = st.integers(0, 30) | st.sampled_from([-1, 1.5, 2.0, True, None, "1", 2 ** 63,
                                                 np.int64(3)])
CONFIDENCE = st.floats(0, 1) | st.sampled_from([-0.1, 1.5, math.nan, math.inf, True, 1, 0,
                                                None, 1e-300])


@st.composite
def lane_points(draw):
    """A lane's rows: 0 to 5 of them, y non-decreasing unless a drop is
    drawn, then perhaps one entry made special, one row ragged or 4 wide."""
    size = draw(st.sampled_from([0, 1, 2, 3, 5]))
    kind = draw(st.sampled_from(["float", "int", "edge-int"]))
    if kind == "float":
        rows = [[draw(COORDINATE), y, draw(COORDINATE)]
                for y in sorted(draw(st.lists(COORDINATE, min_size=size, max_size=size)))]
    elif kind == "int":
        rows = [[draw(st.integers(-9, 9)), y, draw(st.integers(-9, 9))]
                for y in sorted(draw(st.lists(st.integers(-9, 9), min_size=size,
                                              max_size=size)))]
    else:
        rows = [[draw(st.sampled_from(EDGE_INTS + [0])), y, 0] for y in range(size)]
    if size >= 2 and draw(st.integers(0, 5)) == 0:   # y drops inside the lane
        k = draw(st.integers(1, size - 1))
        rows[k][1] = rows[k - 1][1] - 1
    change = draw(st.integers(0, 9)) if rows else None
    if change == 0:
        rows[draw(st.integers(0, size - 1))][draw(st.integers(0, 2))] = draw(SPECIAL)
    elif change == 1:
        rows[draw(st.integers(0, size - 1))].pop()
    elif change == 2:
        rows[draw(st.integers(0, size - 1))].append(0.0)
    return rows


LANES = st.lists(st.tuples(lane_points(), CATEGORY, CONFIDENCE), max_size=4)


def lane_by_lane(lanes, has_confidence, names=None):
    """``(records, None)`` or ``(None, message)`` of LaneRecord's rule,
    lane by lane, the first bad lane named ``names[i]``, else ``lanes[i]``."""
    records = []
    for i, (points, category, confidence) in enumerate(lanes):
        try:
            records.append(LaneRecord(points, category, *([confidence] if has_confidence
                                                           else [])))
        except ValidationError as exc:
            return None, f"{names[i] if names else f'lanes[{i}]'}: {exc}"
    return records, None


def assert_same_lanes(have, want):
    assert len(have) == len(want)
    for a, b in zip(have, want):
        assert a.points.tobytes() == b.points.tobytes() and a.points.shape == b.points.shape
        assert not a.points.flags.writeable
        assert (type(a.category), a.category) == (type(b.category), b.category)
        assert (type(a.confidence), a.confidence) == (type(b.confidence), b.confidence)
        assert a.path == b.path == ()


def columns(lanes, has_confidence):
    points, categories, confidences = ([lane[k] for lane in lanes] for k in range(3))
    return points, categories, confidences if has_confidence else None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lanes=LANES, has_confidence=st.booleans())
def test_one_call_check_accepts_what_the_lane_rule_accepts(lanes, has_confidence):
    want, message = lane_by_lane(lanes, has_confidence)
    fields = columns(lanes, has_confidence)
    fast = _lanes_at_once(fields[0], fields[1], fields[2] or [1.0] * len(lanes))
    if want is None:
        assert fast is None, f"the one-call check accepts what {message!r} rejects"
        with pytest.raises(ValidationError) as err:
            lane_records(*fields)
        assert str(err.value) == message
    else:
        assert fast is not None, "the one-call check rejects what the lane rule accepts"
        assert_same_lanes(fast, want)
        assert_same_lanes(lane_records(*fields), want)


def structure_then_values(entries, names, has_confidence):
    """``(records, None)`` or ``(None, message)`` of the loaders' rule:
    every lane object's structure first, entry by entry and field by field
    (an object, with a list ``points``, a ``category`` and, in a lane file,
    a ``confidence``), then LaneRecord's rule lane by lane."""
    fields = ("points", "category", "confidence")[:3 if has_confidence else 2]
    try:
        for entry, name in zip(entries, names):
            for field in fields:
                if not isinstance(entry, dict):
                    raise SchemaError(f"{name}.{field}", "enclosing object is not a JSON object")
                if field not in entry:
                    raise SchemaError(f"{name}.{field}", "missing")
                if field == "points" and not isinstance(entry[field], list):
                    raise SchemaError(f"{name}.points",
                                      f"expected list, got {type(entry[field]).__name__}")
    except SchemaError as exc:
        return None, str(exc)
    return lane_by_lane([(entry["points"], entry["category"], entry.get("confidence"))
                         for entry in entries], has_confidence, names)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lanes=LANES, has_confidence=st.booleans(),
       malformed=st.sampled_from([None, "no-object", "no-category", "points-string"]))
def test_loaders_check_every_lane_structure_before_any_value(lanes, has_confidence, malformed):
    entries = [dict(points=p, category=c, **({"confidence": f} if has_confidence else {}))
               for p, c, f in lanes]
    if malformed and entries:
        entries[-1] = {"no-object": 7, "no-category": {"points": entries[-1]["points"]},
                       "points-string": {**entries[-1], "points": "[]"}}[malformed]
    path = WORKDIR / "lanes.json"
    if has_confidence:
        document, load = {"frame_id": "f", "lanes": entries}, load_lane_frame
        names = [f"lanes[{i}]" for i in range(len(entries))]
    else:   # two frames, so lanes are checked across frames in one call
        half = len(entries) // 2
        document = {"frames": [{"frame_id": "a", "lanes": entries[:half]},
                               {"frame_id": "b", "lanes": entries[half:]}]}
        load = load_ground_truth
        names = [f"frames[{0 if i < half else 1}].lanes[{i if i < half else i - half}]"
                 for i in range(len(entries))]
    try:
        text = json.dumps(document)
    except TypeError:   # np.int64 is no JSON
        return
    if "NaN" in text or "Infinity" in text:
        return   # the decoder rejects these tokens before any lane is read
    path.write_text(text)
    decoded = io._load_json(path)
    entries = decoded["lanes"] if has_confidence else [
        lane for frame in decoded["frames"] for lane in frame["lanes"]]
    want, message = structure_then_values(entries, names, has_confidence)
    try:
        loaded = load(path)
    except ValidationError as exc:
        assert str(exc) == message
        return
    assert message is None
    have = loaded[1] if has_confidence else loaded["a"] + loaded["b"]
    assert_same_lanes(have, want)


@pytest.mark.parametrize("load, document, message", [
    # JSON holds no NaN; 1e400 reads as an infinity, a bad value in lane 0.
    (load_lane_frame,
     '{"frame_id": "f", "lanes": [{"points": [[0, 1, 0], [1e400, 2, 0]], "category": 0, '
     '"confidence": 0.5}, {"points": [[0, 1, 0], [0, 2, 0]], "confidence": 0.5}]}',
     "lanes[1].category: missing"),
    (load_ground_truth,
     '{"frames": [{"frame_id": "a", "lanes": [{"points": [[0, 2, 0], [0, 1, 0]], '
     '"category": 0}]}, {"frame_id": "b", "lanes": [{"points": "[]", "category": 0}]}]}',
     "frames[1].lanes[0].points: expected list, got str")], ids=["lane-file", "ground-truth"])
def test_a_structural_fault_is_named_before_an_earlier_bad_value(tmp_path, load, document,
                                                                 message):
    path = tmp_path / "lanes.json"
    path.write_text(document)
    with pytest.raises(SchemaError) as err:
        load(path)
    assert str(err.value) == message


def test_valid_file_lanes_are_views_of_one_read_only_array():
    lanes = lane_records([[[0.0, 1.0, 0.0], [0.5, 2.0, 0.1]], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                                                 [1.5, 3.0, 0.0]]],
                         [1, 2], [0.5, 1])
    assert lanes[0].points.base is lanes[1].points.base is not None
    assert [lane.confidence for lane in lanes] == [0.5, 1.0]
    with pytest.raises(ValueError):
        lanes[1].points[0, 0] = 9.0


@pytest.mark.parametrize("points, categories, message", [
    ([[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, math.inf, 0.0]]], [1, 1],
     "lanes[1]: points[1] must be finite, got inf"),
    ([[[0.0, 5.0, 0.0], [0.0, 6.0, 0.0]], [[0.0, 2.0, 0.0], [0.0, 1.0, 0.0]]], [1, 1],
     "lanes[1]: lane points must have non-decreasing y"),
    ([[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], [[0.0, 1.0, 0.0]]], [1, 1],
     "lanes[1]: lane points must be (N >= 2, 3), got shape (1, 3)"),
    ([[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]], [True], "lanes[0]: category must be a non-negative "
                                                    "integer, got True")])
def test_a_bad_lane_is_named_as_the_lane_rule_names_it(points, categories, message):
    with pytest.raises(ValidationError) as err:
        lane_records(points, categories)
    assert str(err.value) == message


def test_columns_of_different_lengths_are_rejected():
    with pytest.raises(ValidationError, match="^lanes: 1 point lists for 2 categories"):
        lane_records([[[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]], [1, 2])


def test_ground_truth_lanes_split_back_into_their_frames(tmp_path):
    lane = [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"frames": [
        {"frame_id": "b", "lanes": [{"points": lane, "category": 1}] * 2},
        {"frame_id": "a", "lanes": []},
        {"frame_id": "c", "lanes": [{"points": lane, "category": 3, "confidence": 0.5}]}]}))
    frames = load_ground_truth(path)
    assert list(frames) == ["b", "a", "c"]
    assert [[(l.category, l.confidence) for l in lanes] for lanes in frames.values()] == [
        [(1, 1.0), (1, 1.0)], [], [(3, 1.0)]]


def proposals(x, dx):
    return ProposalSet.from_arrays([(i, 0) for i in range(len(x))], x, [1.0, 2.0, 3.0][:len(x)],
                                   dx, class_scores=[[0.2, 0.8]] * len(x))


def test_extracted_lanes_equal_the_lane_rule_ones():
    kept = proposals([0.0, 0.5, 1.0], [0.1, -0.1, 0.0])
    adjacency = np.array([[0.0, 0.9, 0.0], [0.0, 0.0, 0.8], [0.0, 0.0, 0.0]])
    lane, = extract_lanes(kept, adjacency)
    want = LaneRecord(lane.points.copy(), lane.category, lane.confidence, lane.path)
    assert lane.points.tobytes() == want.points.tobytes() and not lane.points.flags.writeable
    assert (lane.category, lane.confidence, lane.path) == (want.category, want.confidence,
                                                           want.path)
    assert type(lane.path[0]) is int and type(lane.category) is int


def test_a_point_whose_refined_x_overflows_is_rejected_when_the_set_is_made():
    # x + dx is inf although both are finite; no RuntimeWarning escapes.
    with pytest.raises(ValidationError, match=r"^keypoints\[0\]\.x \+ dx must be finite, "
                                              r"got inf$"):
        proposals([1e308, 1e308, 0.0], [1e308, 0.0, 0.0])


@pytest.mark.parametrize("nodes", [None, [0, 2, 3, 5]])
def test_thresholded_graph_meets_the_graph_rule(nodes):
    rng = np.random.default_rng(3)
    graph = threshold_adjacency(rng.uniform(0, 1, (6, 6)), 0.5, nodes)
    want = DirectedLaneGraph(graph.node_count, graph.edge_src, graph.edge_dst, graph.edge_prob)
    for name in ("edge_src", "edge_dst", "edge_prob"):
        have = getattr(graph, name)
        assert have.dtype == getattr(want, name).dtype
        assert have.tobytes() == getattr(want, name).tobytes()
    assert type(graph.node_count) is int and graph.node_count == want.node_count


def test_solver_matching_equals_the_public_one():
    matching = _matching(np.array([0, 1, 3]), np.array([2, 1, 0]), 5, 4)
    want = Matching([(3, 0), (0, 2), (1, 1)], (2, 4), (3,))
    assert (matching.pairs, matching.unmatched_proposals, matching.unmatched_gts) == (
        want.pairs, want.unmatched_proposals, want.unmatched_gts)
    assert all(type(i) is int for pair in matching.pairs for i in pair)
    matched = match_keypoints(proposals([0.0, 0.5, 1.0], [0.0, 0.0, 0.0]), [], strongest=True)
    assert (matched.pairs, matched.unmatched_proposals, matched.unmatched_gts) == (
        (), (0, 1, 2), ())
