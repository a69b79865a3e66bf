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
"""

import json
from dataclasses import dataclass

import numpy as np

from .connection_head import HeadWeights
from .errors import SchemaError, ValidationError, float_array
from .geometry import CameraModel
from .graph import AdjacencyMatrix, LaneRecord
from .nms import ProposalSet


@dataclass(frozen=True, eq=False)
class PredictionFrame:
    """One frame's keypoint proposals and their connection probabilities."""

    frame_id: str
    keypoints: ProposalSet
    adjacency: np.ndarray
    camera: str = None

    def __post_init__(self):
        adjacency = np.asarray(self.adjacency, dtype=float)
        n = len(self.keypoints)
        if adjacency.shape != (n, n):
            raise ValidationError(f"adjacency must be ({n}, {n}) for {n} keypoints, "
                                  f"got {adjacency.shape}")
        # AdjacencyMatrix holds the one range check for connection probabilities.
        object.__setattr__(self, "adjacency", AdjacencyMatrix(adjacency).probs)
        object.__setattr__(self, "frame_id", str(self.frame_id))


def _dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reject_constant(token):
    raise SchemaError("file", f"non-finite number {token} is not valid JSON")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError("file", f"not valid JSON ({exc})") from exc


def _as_float(value, field):
    """A JSON number as a float; an integer beyond the float range is rejected."""
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(field, "number out of range") from exc


def _require(mapping, field, kind, context=""):
    name = f"{context}{field}"
    if not isinstance(mapping, dict):
        raise SchemaError(name, "enclosing object is not a JSON object")
    if field not in mapping:
        raise SchemaError(name, "missing")
    value = mapping[field]
    # bool is an int subclass; JSON true is not a number.
    if kind in (int, float) and isinstance(value, bool):
        raise SchemaError(name, f"expected {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        value = _as_float(value, name)
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(name, f"expected {getattr(kind, '__name__', kind)}, "
                          f"got {type(value).__name__}")
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
    categories = _require(raw, "categories", int)
    repeats_n = _require(raw, "repeats_n", int)
    camera = raw.get("camera")

    if camera is not None and not isinstance(camera, str):
        raise SchemaError("camera", f"expected str or null, got {type(camera).__name__}")
    # A frame without keypoints still makes an empty (0, categories) array.
    if not 0 <= categories < 2 ** 31:
        raise SchemaError("categories", f"must lie in [0, 2**31), got {categories}")

    entries = _require(raw, "keypoints", list)
    grid_index, fields, scores = [], [], []
    for i, entry in enumerate(entries):
        ctx = f"keypoints[{i}]."
        entry_scores = _require(entry, "class_scores", list, ctx)
        if len(entry_scores) != categories:
            raise SchemaError(f"keypoints[{i}].class_scores",
                              f"length {len(entry_scores)}, header says {categories}")
        grid_index.append((_require(entry, "row", int, ctx), _require(entry, "col", int, ctx)))
        fields.append([_require(entry, name, float, ctx)
                       for name in ("x", "y", "dx", "z", "fg_score")])
        scores.append(entry_scores)
    # Every row holds ``categories`` entries, so numbers give two dimensions.
    scores = float_array(scores, "keypoints.class_scores") if entries \
        else np.empty((0, categories))
    if scores.ndim != 2:
        raise SchemaError("keypoints.class_scores", "expected lists of numbers")
    x, y, dx, z, fg_score = np.array(fields, dtype=float).reshape(-1, 5).T
    proposals = ProposalSet.from_arrays(grid_index, x, y, dx, z, fg_score, scores,
                                        repeats_n=repeats_n)

    adj_raw = _require(raw, "adjacency", dict)
    fmt = _require(adj_raw, "format", str, "adjacency.")
    size = _require(adj_raw, "size", int, "adjacency.")
    if size != len(proposals):
        raise SchemaError("adjacency.size", f"{size} for {len(proposals)} keypoints")
    if fmt == "dense":
        probs = _require(adj_raw, "probs", list, "adjacency.")
        # A frame without keypoints holds ``[]``, a one-dimensional list.
        adjacency = float_array(probs, "adjacency.probs") if probs else np.zeros((0, 0))
        if adjacency.shape != (size, size):
            raise SchemaError("adjacency.probs",
                              f"shape {adjacency.shape}, header says ({size}, {size})")
    elif fmt == "sparse":
        adjacency = np.zeros((size, size))
        for t, triplet in enumerate(_require(adj_raw, "triplets", list, "adjacency.")):
            if not (isinstance(triplet, list) and len(triplet) == 3
                    and not any(isinstance(v, bool) for v in triplet)
                    and isinstance(triplet[0], int) and isinstance(triplet[1], int)
                    and isinstance(triplet[2], (int, float))):
                raise SchemaError(f"adjacency.triplets[{t}]",
                                  "expected [row, col, probability] with integer indices")
            i, j, p = triplet
            if not (0 <= i < size and 0 <= j < size):
                raise ValidationError(f"adjacency.triplets[{t}] index out of range")
            adjacency[i, j] = _as_float(p, f"adjacency.triplets[{t}]")
    else:
        raise SchemaError("adjacency.format", f"unknown format {fmt!r}")

    return PredictionFrame(frame_id=frame_id, keypoints=proposals, adjacency=adjacency,
                           camera=camera)


def _read_lane(entry, ctx, has_confidence):
    """One lane object of a lane or GT file, named ``ctx`` in errors; GT
    lanes carry no ``confidence``."""
    fields = {"points": _require(entry, "points", list, f"{ctx}."),
              "category": _require(entry, "category", int, f"{ctx}.")}
    if has_confidence:
        fields["confidence"] = _require(entry, "confidence", float, f"{ctx}.")
    try:
        return LaneRecord(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{ctx}: {exc}") from exc


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
    lanes = [_read_lane(entry, f"lanes[{i}]", has_confidence=True)
             for i, entry in enumerate(_require(raw, "lanes", list))]
    return frame_id, lanes


def save_ground_truth(frames, path):
    """``frames`` maps frame id to a list of ``LaneRecord``s; confidences and
    paths are not written."""
    out = [{"frame_id": str(fid), "lanes": [_lane_json(lane) for lane in frames[fid]]}
           for fid in sorted(frames)]
    _dump({"frames": out}, path)


def load_ground_truth(path):
    raw = _load_json(path)
    frames = {}
    for f, entry in enumerate(_require(raw, "frames", list)):
        ctx = f"frames[{f}]."
        frame_id = _require(entry, "frame_id", str, ctx)
        if frame_id in frames:
            raise SchemaError(f"{ctx}frame_id", f"duplicate frame_id {frame_id!r}")
        frames[frame_id] = [_read_lane(lane, f"{ctx}lanes[{i}]", has_confidence=False)
                            for i, lane in enumerate(_require(entry, "lanes", list, ctx))]
    return frames


def save_camera(camera, path):
    _dump({"intrinsic": [float(v) for v in camera.intrinsic.reshape(-1)],
           "extrinsic": [float(v) for v in camera.extrinsic.reshape(-1)],
           "image_size": [camera.image_size[0], camera.image_size[1]]}, path)


def load_camera(path):
    raw = _load_json(path)
    intrinsic = _require(raw, "intrinsic", list)
    extrinsic = _require(raw, "extrinsic", list)
    size = _require(raw, "image_size", list)
    if len(intrinsic) != 9:
        raise SchemaError("intrinsic", f"expected 9 floats, got {len(intrinsic)}")
    if len(extrinsic) != 16:
        raise SchemaError("extrinsic", f"expected 16 floats, got {len(extrinsic)}")
    # bool is an int subclass; JSON true is not a pixel count.
    if len(size) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in size):
        raise SchemaError("image_size", "expected [height, width] integers")
    try:
        return CameraModel(intrinsic=float_array(intrinsic, "intrinsic").reshape(3, 3),
                           extrinsic=float_array(extrinsic, "extrinsic").reshape(4, 4),
                           image_size=(size[0], size[1]))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


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
    fields["final_b"] = _require(raw, "final.b", float)
    try:
        return HeadWeights(**fields)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def save_grid_csv(grid, path):
    lines = ["row,col,x,y"]
    for r in range(grid.rows):
        for c in range(grid.cols):
            x, y = grid.positions[r, c]
            lines.append(f"{r},{c},{float(x)!r},{float(y)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
