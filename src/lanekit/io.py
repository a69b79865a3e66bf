"""JSON file formats: prediction frames, lane files and ground-truth lanes.

All writers emit sorted keys and indented JSON (``json_text``) so artifacts
diff cleanly in review and CI; the CLI's ``match`` and ``eval`` reports are
written through this module too.  Floats use Python's shortest
round-tripping representation, which keeps load(save(x)) exactly equal
to x.  A frame's adjacency is written in
whichever encoding holds fewer numbers: the nonzero entries as (i, j,
prob) triplets when 3 x nonzero < n^2, otherwise dense row-major rows.
The loader reads both encodings whatever the frame's size.

Lane files and ground-truth files both hold ``graph.LaneRecord``s; a ground-truth
lane is written without a confidence and reads back with confidence 1.0.

A loader raises ``SchemaError`` for a bad structure: JSON it cannot decode,
a missing field, no object, list or string where one belongs, an unknown
adjacency format, a size or class-score count unlike the header's.  Each
number goes to the rule that owns it (``errors``, ``ProposalSet``,
``LaneRecord``) and a bad one raises its ``ValidationError``, named by its
place in the file: ``keypoints[1].x: ...``.
Each file is read once, its whole structure before any of its values: a
file with several faults raises for the first structural one (in the
order the file is read, entry by entry and field by field), and only a
file whose structure holds raises for a bad value.  The fields of a list
of objects are read by ``_fields`` in one pass; a file's lanes go to one
``graph.lane_records`` call, which names the first bad lane.

Files are decoded with ``orjson``, imported on the first read so that
importing lanekit loads numpy only, and a document it refuses by the stdlib
decoder, which rejects ``NaN`` and ``Infinity`` naming the token, invalid JSON
(``file: not valid JSON (...)``) and deep nesting (``file: nested too deeply
to decode``), and loads a lone surrogate escape and a number beyond the
double range, which reads as an infinity.  Both read an integer literal
alike: an int inside [-2**63, 2**64), else the nearest float.  Writers stay
on the stdlib encoder."""

import json
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import (UNIT, SchemaError, ValidationError, check_int, float_array, int_array,
                     unchecked)
# LaneRecord, the lane type of lane and ground-truth files, made here by lane_records only.
from .graph import AdjacencyMatrix, LaneRecord, lane_records
from .nms import ProposalSet


@dataclass(frozen=True, eq=False)
class PredictionFrame:
    """One frame's keypoint proposals and their connection probabilities."""

    frame_id: str
    keypoints: ProposalSet
    adjacency: np.ndarray
    camera: str = None

    def __post_init__(self):
        n = len(self.keypoints)
        adjacency = float_array(self.adjacency, "adjacency", (n, n))
        # AdjacencyMatrix holds the one range check for connection probabilities.
        object.__setattr__(self, "adjacency", AdjacencyMatrix(adjacency).probs)
        object.__setattr__(self, "frame_id", str(self.frame_id))


def json_text(obj):
    """``obj`` as every lanekit JSON file holds it: sorted keys, two-space
    indents and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump(obj, path):
    with open(path, "w") as fh:
        fh.write(json_text(obj))


def _reject_constant(token):
    raise SchemaError("file", f"non-finite number {token} is not valid JSON")


def _read_int(literal):
    """An integer literal as orjson reads it: an int inside [-2**63, 2**64),
    else the nearest float.  Every literal in that range has at most 20
    characters, so ``int`` never meets the interpreter's digit limit."""
    if len(literal) <= 20 and -2 ** 63 <= (value := int(literal)) < 2 ** 64:
        return value
    return float(literal)


def _load_json(path):
    """The document in ``path``, decoded as the module docstring says."""
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(data.decode("utf-8"), parse_int=_read_int,
                          parse_constant=_reject_constant)
    except SchemaError:   # a NaN or Infinity token, named by _reject_constant
        raise
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise SchemaError("file", f"not valid JSON ({exc})") from exc
    except RecursionError:
        raise SchemaError("file", "nested too deeply to decode") from None


def _require(mapping, field, kind=None, context=""):
    """``mapping[field]``, named ``context + field``: present, and a ``kind`` if given."""
    name = f"{context}{field}"
    if not isinstance(mapping, dict):
        raise SchemaError(name, "enclosing object is not a JSON object")
    if field not in mapping:
        raise SchemaError(name, "missing")
    value = mapping[field]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(name, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _fields(entries, fields, label):
    """The values of ``fields`` (field -> JSON type, or None for any) in
    every object of the list ``entries``, one list per field, read in one
    pass.  Only where that pass fails are the entries walked with
    ``_require``, entry by entry and field by field, entry k named
    ``label(k)``, to name the first missing or mistyped field:
    ``lanes[3].category: missing``."""
    try:
        columns = [[entry[field] for entry in entries] for field in fields]
        if all(kind is None or all(isinstance(value, kind) for value in column)
               for kind, column in zip(fields.values(), columns)):
            return columns
    except (KeyError, TypeError):   # an entry that is no object, or lacks a field
        pass
    for k, entry in enumerate(entries):
        for field, kind in fields.items():
            _require(entry, field, kind, f"{label(k)}.")


def save_prediction_frame(frame, path):
    """Writes a frame, its adjacency in the smaller encoding (module docstring)."""
    proposals = frame.keypoints
    keypoints = [{"row": row, "col": col, "x": x, "y": y, "dx": dx, "z": z,
                  "fg_score": fg, "class_scores": scores}
                 for (row, col), x, y, dx, z, fg, scores in zip(
                     proposals.grid_index.tolist(), proposals.x.tolist(),
                     proposals.y.tolist(), proposals.dx.tolist(), proposals.z.tolist(),
                     proposals.fg_score.tolist(), proposals.class_scores.tolist())]
    n = len(proposals)
    if 3 * np.count_nonzero(frame.adjacency) < n * n:
        src, dst = np.nonzero(frame.adjacency)
        adjacency = {"format": "sparse", "size": n,
                     "triplets": [list(t) for t in zip(src.tolist(), dst.tolist(),
                                                       frame.adjacency[src, dst].tolist())]}
    else:
        adjacency = {"format": "dense", "size": n, "probs": frame.adjacency.tolist()}
    _dump({"frame_id": frame.frame_id, "camera": frame.camera,
           "categories": proposals.class_scores.shape[1], "repeats_n": proposals.repeats_n,
           "keypoints": keypoints, "adjacency": adjacency}, path)


# The fields of a keypoint, a lane-file lane and a ground-truth lane.
_KEYPOINT_FIELDS = dict.fromkeys(("class_scores", "row", "col", "x", "y", "dx", "z",
                                  "fg_score"))
_LANE_FIELDS = {"points": list, "category": None, "confidence": None}
_GT_LANE_FIELDS = {"points": list, "category": None}


def load_prediction_frame(path):
    raw = _load_json(path)
    frame_id = _require(raw, "frame_id", str)
    # A frame without keypoints still makes an empty (0, categories) array.
    categories = check_int(_require(raw, "categories"), "categories", 0)
    if categories >= 2 ** 31:
        raise ValidationError(f"categories must lie in [0, 2**31), got {categories}")
    camera = raw.get("camera")
    if camera is not None and not isinstance(camera, str):
        raise SchemaError("camera", f"expected str or null, got {type(camera).__name__}")
    repeats_n = _require(raw, "repeats_n")
    entries = _require(raw, "keypoints", list)
    scores, row, col, x, y, dx, z, fg_score = _fields(entries, _KEYPOINT_FIELDS,
                                                      "keypoints[{}]".format)
    for i, entry_scores in enumerate(scores):
        if not (isinstance(entry_scores, list) and len(entry_scores) == categories):
            raise SchemaError(f"keypoints[{i}].class_scores",
                              f"expected a list of {categories} numbers, as the header says")
    adj_raw = _require(raw, "adjacency", dict)
    fmt = _require(adj_raw, "format", str, "adjacency.")
    size = check_int(_require(adj_raw, "size", context="adjacency."), "adjacency.size")
    if size != len(entries):
        raise SchemaError("adjacency.size", f"{size} for {len(entries)} keypoints")
    if fmt not in ("dense", "sparse"):
        raise SchemaError("adjacency.format", f"unknown format {fmt!r}")
    numbers = _require(adj_raw, "probs" if fmt == "dense" else "triplets", list, "adjacency.")

    # The structure holds; now the values, each by the rule that owns it.
    grid_index = np.column_stack([int_array(row, "keypoints.row", (None,), "keypoints[{}].row"),
                                  int_array(col, "keypoints.col", (None,), "keypoints[{}].col")])
    proposals = ProposalSet.from_arrays(grid_index, x, y, dx, z, fg_score,
                                        scores if entries else np.empty((0, categories)),
                                        repeats_n=repeats_n)
    if fmt == "dense":
        # A frame without keypoints holds ``[]``, which reads as zero rows.
        adjacency = float_array(numbers, "adjacency.probs", (size, size), within=UNIT)
    else:
        probs = float_array(numbers, "adjacency.triplets", (None, 3),
                            "adjacency.triplets[{}]")[:, 2]
        # The indices again as written, so that 1.0 is no index.
        index = int_array([triplet[:2] for triplet in numbers], "adjacency.triplets",
                          (None, 2), "adjacency.triplets[{}]", within=(0, size, "[)"))
        # Of triplets naming one entry, the last holds, as when written in order;
        # only the probabilities that hold are checked, each named by its triplet.
        flat = index[:, 0] * size + index[:, 1]
        last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
        held = np.zeros_like(probs)
        held[last] = probs[last]
        float_array(held, "adjacency.triplets", row_name="adjacency.triplets[{}]", within=UNIT)
        adjacency = np.zeros((size, size))
        adjacency.reshape(-1)[flat[last]] = probs[last]

    # The adjacency is (size, size), size the keypoint count, with every
    # entry checked to lie in [0, 1] above: PredictionFrame's rule holds.
    return unchecked(PredictionFrame, frame_id=frame_id, keypoints=proposals,
                     adjacency=adjacency, camera=camera)


def _lane_json(lane):
    return {"category": lane.category, "points": lane.points.tolist()}


def save_lane_frame(frame_id, lanes, path):
    """Writes one frame's ``LaneRecord``s with their confidences; paths are
    not written."""
    out = [dict(_lane_json(lane), confidence=float(lane.confidence)) for lane in lanes]
    _dump({"frame_id": str(frame_id), "lanes": out}, path)


def load_lane_frame(path):
    raw = _load_json(path)
    frame_id = _require(raw, "frame_id", str)
    lanes = _fields(_require(raw, "lanes", list), _LANE_FIELDS, "lanes[{}]".format)
    return frame_id, lane_records(*lanes)


def save_ground_truth(frames, path):
    """``frames`` maps frame id to a list of ``LaneRecord``s; confidences and
    paths are not written."""
    out = [{"frame_id": str(fid), "lanes": [_lane_json(lane) for lane in frames[fid]]}
           for fid in sorted(frames)]
    _dump({"frames": out}, path)


def load_ground_truth(path):
    raw = _load_json(path)
    ids, lanes = _fields(_require(raw, "frames", list), {"frame_id": str, "lanes": list},
                         "frames[{}]".format)
    if len(set(ids)) < len(ids):
        f = next(f for f, frame_id in enumerate(ids) if frame_id in ids[:f])
        raise SchemaError(f"frames[{f}].frame_id", f"duplicate frame_id {ids[f]!r}")
    # Every frame's lanes at once, each named by its frame and its place there.
    names = [f"frames[{f}].lanes[{i}]" for f, frame in enumerate(lanes)
             for i in range(len(frame))]
    points, categories = _fields(list(chain.from_iterable(lanes)), _GT_LANE_FIELDS,
                                 names.__getitem__)
    records = iter(lane_records(points, categories, label=names.__getitem__))
    return {frame_id: list(islice(records, len(frame))) for frame_id, frame in zip(ids, lanes)}
