"""JSON file formats: prediction frames, lane files, ground-truth lanes,
cameras, head weights, plus the anchor-grid CSV export.

All writers emit sorted keys and indented JSON so artifacts diff cleanly in
review and CI.  Floats use Python's shortest round-tripping representation,
which keeps load(save(x)) exactly equal to x.  A frame's adjacency is
written in whichever encoding holds fewer numbers: the nonzero entries as
(i, j, prob) triplets when 3 x nonzero < n^2, otherwise dense row-major
rows.  The loader reads both encodings whatever the frame's size.

Lane files and ground-truth files both hold ``graph.LaneRecord``s; a ground-truth
lane is written without a confidence and reads back with confidence 1.0.

A loader raises ``SchemaError`` for a bad structure: JSON it cannot decode,
a missing field, no object, list or string where one belongs, an unknown
adjacency format, a size or class-score count unlike the header's.  Each
number goes to the rule that owns it (``errors``, ``ProposalSet``,
``LaneRecord``, ``CameraModel``, ``HeadWeights``) and a bad one raises its
``ValidationError``, named by its place in the file: ``keypoints[1].x: ...``.
A file's lanes are checked in one ``graph.lane_records`` call, and read
again lane by lane only to name a bad one.

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

from .connection_head import HeadWeights
from .errors import (UNIT, SchemaError, ValidationError, check_int, check_real, float_array,
                     int_array, unchecked)
from .geometry import CameraModel
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


def _dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

    entries = _require(raw, "keypoints", list)
    fields = ("class_scores", "row", "col", "x", "y", "dx", "z", "fg_score")
    try:
        scores, row, col, x, y, dx, z, fg_score = (
            [entry[field] for entry in entries] for field in fields)
    except (KeyError, TypeError):   # an entry that is no object, or lacks a field
        for i, entry in enumerate(entries):
            for field in fields:
                _require(entry, field, context=f"keypoints[{i}].")
        raise
    for i, entry_scores in enumerate(scores):
        if not (isinstance(entry_scores, list) and len(entry_scores) == categories):
            raise SchemaError(f"keypoints[{i}].class_scores",
                              f"expected a list of {categories} numbers, as the header says")
    grid_index = np.column_stack([int_array(row, "keypoints.row", (None,), "keypoints[{}].row"),
                                  int_array(col, "keypoints.col", (None,), "keypoints[{}].col")])
    proposals = ProposalSet.from_arrays(grid_index, x, y, dx, z, fg_score,
                                        scores if entries else np.empty((0, categories)),
                                        repeats_n=_require(raw, "repeats_n"))

    adj_raw = _require(raw, "adjacency", dict)
    fmt = _require(adj_raw, "format", str, "adjacency.")
    size = check_int(_require(adj_raw, "size", context="adjacency."), "adjacency.size")
    if size != len(proposals):
        raise SchemaError("adjacency.size", f"{size} for {len(proposals)} keypoints")
    if fmt == "dense":
        # A frame without keypoints holds ``[]``, which reads as zero rows.
        adjacency = float_array(_require(adj_raw, "probs", list, "adjacency."),
                                "adjacency.probs", (size, size), within=UNIT)
    elif fmt == "sparse":
        triplets = _require(adj_raw, "triplets", list, "adjacency.")
        probs = float_array(triplets, "adjacency.triplets", (None, 3),
                            "adjacency.triplets[{}]")[:, 2]
        # The indices again as written, so that 1.0 is no index.
        index = int_array([triplet[:2] for triplet in triplets], "adjacency.triplets",
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
    else:
        raise SchemaError("adjacency.format", f"unknown format {fmt!r}")

    # The adjacency is (size, size), size the keypoint count, with every
    # entry checked to lie in [0, 1] above: PredictionFrame's rule holds.
    return unchecked(PredictionFrame, frame_id=frame_id, keypoints=proposals,
                     adjacency=adjacency, camera=camera)


def _read_lane(entry, ctx, has_confidence):
    """One lane object of a lane or GT file, named ``ctx`` in errors; GT
    lanes carry no ``confidence``."""
    fields = {"points": _require(entry, "points", list, f"{ctx}."),
              "category": _require(entry, "category", context=f"{ctx}.")}
    if has_confidence:
        fields["confidence"] = _require(entry, "confidence", context=f"{ctx}.")
    try:
        return LaneRecord(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{ctx}: {exc}") from exc


def _checked_lanes(entries, has_confidence):
    """The LaneRecords of the lane objects ``entries``, checked by one
    ``graph.lane_records`` call; None if any entry is malformed or bad, for
    ``_read_lane`` to name the first such one."""
    try:
        points = [entry["points"] for entry in entries]
        categories = [entry["category"] for entry in entries]
        confidences = [entry["confidence"] for entry in entries] if has_confidence else None
        return lane_records(points, categories, confidences)
    except (KeyError, TypeError, ValidationError):   # TypeError: an entry that is no object
        return None


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
    entries = _require(raw, "lanes", list)
    lanes = _checked_lanes(entries, has_confidence=True)
    if lanes is None:
        lanes = [_read_lane(entry, f"lanes[{i}]", has_confidence=True)
                 for i, entry in enumerate(entries)]
    return frame_id, lanes


def save_ground_truth(frames, path):
    """``frames`` maps frame id to a list of ``LaneRecord``s; confidences and
    paths are not written."""
    out = [{"frame_id": str(fid), "lanes": [_lane_json(lane) for lane in frames[fid]]}
           for fid in sorted(frames)]
    _dump({"frames": out}, path)


def load_ground_truth(path):
    raw = _load_json(path)
    entries = _require(raw, "frames", list)
    frames = _checked_frames(entries)
    if frames is not None:
        return frames
    frames = {}
    for f, entry in enumerate(entries):
        ctx = f"frames[{f}]."
        frame_id = _require(entry, "frame_id", str, ctx)
        if frame_id in frames:
            raise SchemaError(f"{ctx}frame_id", f"duplicate frame_id {frame_id!r}")
        frames[frame_id] = [_read_lane(lane, f"{ctx}lanes[{i}]", has_confidence=False)
                            for i, lane in enumerate(_require(entry, "lanes", list, ctx))]
    return frames


def _checked_frames(entries):
    """``load_ground_truth``'s frames of the frame objects ``entries``, all
    their lanes checked by one ``_checked_lanes`` call; None if any frame or
    lane is malformed or bad, for the frame-by-frame reading to name."""
    try:
        ids = [entry["frame_id"] for entry in entries]
        lanes = [entry["lanes"] for entry in entries]
    except (KeyError, TypeError):
        return None
    if not (all(type(fid) is str for fid in ids) and len(set(ids)) == len(ids)
            and all(type(frame) is list for frame in lanes)):
        return None
    records = _checked_lanes(list(chain.from_iterable(lanes)), has_confidence=False)
    if records is None:
        return None
    records = iter(records)
    return {fid: list(islice(records, len(frame))) for fid, frame in zip(ids, lanes)}


def save_camera(camera, path):
    _dump({"intrinsic": [float(v) for v in camera.intrinsic.reshape(-1)],
           "extrinsic": [float(v) for v in camera.extrinsic.reshape(-1)],
           "image_size": [camera.image_size[0], camera.image_size[1]]}, path)


def load_camera(path):
    raw = _load_json(path)
    intrinsic = float_array(_require(raw, "intrinsic", list), "intrinsic", (9,))
    extrinsic = float_array(_require(raw, "extrinsic", list), "extrinsic", (16,))
    return CameraModel(intrinsic=intrinsic.reshape(3, 3), extrinsic=extrinsic.reshape(4, 4),
                       image_size=tuple(_require(raw, "image_size", list)))


# Head weight file keys; each names the HeadWeights field spelt with "_".
_WEIGHT_KEYS = tuple(f"{side}.{name}" for side in ("origin", "dest")
                     for name in ("w1", "b1", "w2", "b2")) + ("final.w",)


def save_head_weights(weights, path):
    out = {key: getattr(weights, key.replace(".", "_")).tolist() for key in _WEIGHT_KEYS}
    out["final.b"] = weights.final_b
    _dump(out, path)


def load_head_weights(path):
    raw = _load_json(path)
    fields = {key.replace(".", "_"): float_array(_require(raw, key, list), key)
              for key in _WEIGHT_KEYS}
    fields["final_b"] = check_real(_require(raw, "final.b"), "final.b")
    return HeadWeights(**fields)


def save_grid_csv(grid, path):
    lines = ["row,col,x,y"]
    for r in range(grid.rows):
        for c in range(grid.cols):
            x, y = grid.positions[r, c]
            lines.append(f"{r},{c},{float(x)!r},{float(y)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
