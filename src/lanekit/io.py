"""JSON file formats: prediction frames, ground-truth lanes, cameras,
head weights, plus the anchor-grid CSV export.

All writers emit sorted keys and indented JSON so artifacts diff cleanly in
review and CI.  Floats use Python's shortest round-tripping representation,
which keeps load(save(x)) exactly equal to x.  Dense adjacency is stored
row-major; above 512 keypoints only the nonzero entries are written as
(i, j, prob) triplets.
"""

import json
from dataclasses import dataclass

import numpy as np

from .connection_head import HeadWeights
from .errors import SchemaError, ValidationError, reject_non_finite
from .geometry import CameraModel
from .metrics import GroundTruthLane
from .nms import ProposalSet

DENSE_ADJACENCY_LIMIT = 512


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
        # NaN propagates through min and max and fails both comparisons.
        if adjacency.size and not (adjacency.min() >= 0.0 and adjacency.max() <= 1.0):
            raise ValidationError("adjacency: probabilities must be finite and lie in [0, 1]")
        object.__setattr__(self, "adjacency", adjacency)
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


def _require(mapping, field, kind, context=""):
    name = f"{context}{field}"
    if not isinstance(mapping, dict):
        raise SchemaError(name, "enclosing object is not a JSON object")
    if field not in mapping:
        raise SchemaError(name, "missing")
    value = mapping[field]
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(name, f"expected {getattr(kind, '__name__', kind)}, "
                          f"got {type(value).__name__}")
    return value


def save_prediction_frame(frame, path, sparse_adjacency=None):
    """Writes a frame; ``sparse_adjacency`` forces the adjacency encoding,
    by default frames above DENSE_ADJACENCY_LIMIT keypoints go sparse."""
    proposals = frame.keypoints
    keypoints = [{"row": row, "col": col, "x": x, "y": y, "dx": dx, "z": z,
                  "fg_score": fg, "class_scores": scores[:count]}
                 for (row, col), x, y, dx, z, fg, scores, count in zip(
                     proposals.grid_index.tolist(), proposals.x.tolist(),
                     proposals.y.tolist(), proposals.dx.tolist(), proposals.z.tolist(),
                     proposals.fg_score.tolist(), proposals.class_scores.tolist(),
                     proposals.score_counts.tolist())]
    n = len(frame.keypoints)
    if sparse_adjacency is None:
        sparse_adjacency = n > DENSE_ADJACENCY_LIMIT
    if not sparse_adjacency:
        adjacency = {"format": "dense", "size": n,
                     "probs": [[float(v) for v in row] for row in frame.adjacency]}
    else:
        src, dst = np.nonzero(frame.adjacency)
        adjacency = {"format": "sparse", "size": n,
                     "triplets": [[int(i), int(j), float(frame.adjacency[i, j])]
                                  for i, j in zip(src, dst)]}
    categories = int(proposals.score_counts[0]) if n else 0
    _dump({"frame_id": frame.frame_id, "camera": frame.camera,
           "categories": categories, "repeats_n": frame.keypoints.repeats_n,
           "keypoints": keypoints, "adjacency": adjacency}, path)


def load_prediction_frame(path):
    raw = _load_json(path)
    frame_id = _require(raw, "frame_id", str)
    categories = _require(raw, "categories", int)
    repeats_n = _require(raw, "repeats_n", int)
    camera = raw.get("camera")

    if categories < 0:
        raise SchemaError("categories", f"must be >= 0, got {categories}")

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
    try:
        scores = np.array(scores, dtype=float).reshape(len(entries), categories)
    except (TypeError, ValueError) as exc:
        raise SchemaError("keypoints.class_scores", f"expected lists of numbers ({exc})") \
            from exc
    x, y, dx, z, fg_score = np.array(fields, dtype=float).reshape(-1, 5).T
    proposals = ProposalSet.from_arrays(grid_index, x, y, dx, z, fg_score, scores,
                                        repeats_n=repeats_n)

    adj_raw = _require(raw, "adjacency", dict)
    fmt = _require(adj_raw, "format", str, "adjacency.")
    size = _require(adj_raw, "size", int, "adjacency.")
    if fmt == "dense":
        adjacency = np.asarray(_require(adj_raw, "probs", list, "adjacency."), dtype=float)
        if adjacency.shape != (size, size):
            raise ValidationError(f"adjacency.probs is {adjacency.shape}, "
                                  f"header says ({size}, {size})")
    elif fmt == "sparse":
        adjacency = np.zeros((size, size))
        for t, triplet in enumerate(_require(adj_raw, "triplets", list, "adjacency.")):
            if not (isinstance(triplet, list) and len(triplet) == 3
                    and isinstance(triplet[0], int) and isinstance(triplet[1], int)
                    and isinstance(triplet[2], (int, float))):
                raise SchemaError(f"adjacency.triplets[{t}]",
                                  "expected [row, col, probability] with integer indices")
            i, j, p = triplet
            if not (0 <= i < size and 0 <= j < size):
                raise ValidationError(f"adjacency.triplets[{t}] index out of range")
            adjacency[i, j] = p
    else:
        raise SchemaError("adjacency.format", f"unknown format {fmt!r}")

    try:
        return PredictionFrame(frame_id=frame_id, keypoints=proposals,
                               adjacency=adjacency, camera=camera)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class LaneRecord:
    """A detected lane as serialized: polyline, category, confidence."""

    points: np.ndarray
    category: int = 0
    confidence: float = 1.0

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
            raise ValidationError("lane points must be (N >= 2, 3)")
        reject_non_finite(points, "points")
        if (points[1:, 1] < points[:-1, 1]).any():
            raise ValidationError("lane points must have non-decreasing y")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError("confidence must lie in [0, 1]")
        object.__setattr__(self, "points", points)


def save_lane_frame(frame_id, lanes, path):
    """Writes one frame's extracted lanes (anything with points, category
    and confidence attributes)."""
    out = [{"category": int(lane.category),
            "confidence": float(lane.confidence),
            "points": [[float(v) for v in p] for p in lane.points]}
           for lane in lanes]
    _dump({"frame_id": str(frame_id), "lanes": out}, path)


def load_lane_frame(path):
    raw = _load_json(path)
    frame_id = _require(raw, "frame_id", str)
    lanes = []
    for i, entry in enumerate(_require(raw, "lanes", list)):
        ctx = f"lanes[{i}]."
        points = _require(entry, "points", list, ctx)
        try:
            lanes.append(LaneRecord(points=np.asarray(points, dtype=float),
                                    category=_require(entry, "category", int, ctx),
                                    confidence=_require(entry, "confidence", float, ctx)))
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise ValidationError(f"lanes[{i}]: {exc}") from exc
    return frame_id, lanes


def save_ground_truth(frames, path):
    """``frames`` maps frame id to a list of GroundTruthLane."""
    out = []
    for frame_id in sorted(frames):
        lanes = [{"category": lane.category,
                  "points": [[float(v) for v in p] for p in lane.points]}
                 for lane in frames[frame_id]]
        out.append({"frame_id": str(frame_id), "lanes": lanes})
    _dump({"frames": out}, path)


def load_ground_truth(path):
    raw = _load_json(path)
    frames = {}
    for f, entry in enumerate(_require(raw, "frames", list)):
        ctx = f"frames[{f}]."
        frame_id = _require(entry, "frame_id", str, ctx)
        if frame_id in frames:
            raise SchemaError(f"{ctx}frame_id", f"duplicate frame_id {frame_id!r}")
        lanes = []
        for i, lane_raw in enumerate(_require(entry, "lanes", list, ctx)):
            lane_ctx = f"{ctx}lanes[{i}]."
            points = _require(lane_raw, "points", list, lane_ctx)
            try:
                lanes.append(GroundTruthLane(
                    points=np.asarray(points, dtype=float),
                    category=_require(lane_raw, "category", int, lane_ctx)))
            except ValueError as exc:
                raise ValidationError(f"{ctx}lanes[{i}]: {exc}") from exc
        frames[frame_id] = lanes
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
    if len(size) != 2:
        raise SchemaError("image_size", "expected [height, width]")
    try:
        return CameraModel(intrinsic=np.asarray(intrinsic, float).reshape(3, 3),
                           extrinsic=np.asarray(extrinsic, float).reshape(4, 4),
                           image_size=(size[0], size[1]))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


_WEIGHT_KEYS = {
    "origin.w1": ("origin_w1", 2), "origin.b1": ("origin_b1", 1),
    "origin.w2": ("origin_w2", 2), "origin.b2": ("origin_b2", 1),
    "dest.w1": ("dest_w1", 2), "dest.b1": ("dest_b1", 1),
    "dest.w2": ("dest_w2", 2), "dest.b2": ("dest_b2", 1),
    "final.w": ("final_w", 1),
}


def save_head_weights(weights, path):
    out = {}
    for key, (attr, ndim) in _WEIGHT_KEYS.items():
        arr = getattr(weights, attr)
        out[key] = [[float(v) for v in row] for row in arr] if ndim == 2 \
            else [float(v) for v in arr]
    out["final.b"] = weights.final_b
    _dump(out, path)


def load_head_weights(path):
    raw = _load_json(path)
    fields = {}
    for key, (attr, _) in _WEIGHT_KEYS.items():
        fields[attr] = np.asarray(_require(raw, key, list), dtype=float)
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
