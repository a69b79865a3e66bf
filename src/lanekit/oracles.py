"""Brute-force reference implementations for small inputs.

These trade speed for obviousness: plain Python loops, exhaustive
enumeration, no shared code with the production paths beyond input
conventions.  Tests compare the fast implementations against them exactly.
"""

import itertools
import math

import numpy as np

from .errors import ValidationError

MAX_ASSIGNMENT_SIDE = 7
MAX_PATH_NODES = 12


def _iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def oracle_nms(boxes, scores, iou_thresh):
    """Greedy suppression, one pairwise IoU at a time."""
    boxes = [tuple(float(v) for v in b) for b in boxes]
    scores = [float(s) for s in scores]
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    keep = []
    for i in order:
        if all(_iou(boxes[i], boxes[k]) <= iou_thresh for k in keep):
            keep.append(i)
    return keep


def oracle_assignment(cost):
    """Exhaustive matching: max cardinality, then min cost, then smallest
    sorted pair list.  Returns sorted (row, col) pairs; infinite entries are
    unmatchable.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    rows, cols = cost.shape
    if rows > MAX_ASSIGNMENT_SIDE or cols > MAX_ASSIGNMENT_SIDE:
        raise ValueError(f"oracle_assignment is limited to "
                         f"{MAX_ASSIGNMENT_SIDE}x{MAX_ASSIGNMENT_SIDE}, got {cost.shape}")
    if rows == 0 or cols == 0:
        return []

    best_key = None
    best_pairs = []
    if rows <= cols:
        candidates = ((tuple(zip(range(rows), perm)))
                      for perm in itertools.permutations(range(cols), rows))
    else:
        candidates = ((tuple(zip(perm, range(cols))))
                      for perm in itertools.permutations(range(rows), cols))
    for cand in candidates:
        pairs = sorted((r, c) for r, c in cand if math.isfinite(cost[r, c]))
        total = sum(cost[r, c] for r, c in pairs)
        key = (-len(pairs), total, pairs)
        if best_key is None or key < best_key:
            best_key = key
            best_pairs = pairs
    return best_pairs


def oracle_paths(adjacency, threshold, start, end):
    """Best start-to-end simple path by exhaustive enumeration.

    Edges exist where adjacency exceeds ``threshold``; a path's cost is the
    sum of (1 - adjacency) over its edges.  Returns (path, cost), preferring
    lower cost then lexicographically smaller path, or None when the nodes
    are disconnected.
    """
    adj = np.asarray(adjacency, dtype=float)
    n = len(adj)
    if n > MAX_PATH_NODES:
        raise ValueError(f"oracle_paths is limited to {MAX_PATH_NODES} nodes, got {n}")
    if n == 0:
        return None
    if start == end:
        return [start], 0.0

    best = None
    stack = [(start, [start], 0.0)]
    while stack:
        node, path, cost = stack.pop()
        for nxt in range(n):
            if adj[node, nxt] <= threshold or nxt in path:
                continue
            nxt_cost = cost + (1.0 - adj[node, nxt])
            nxt_path = path + [nxt]
            if nxt == end:
                key = (nxt_cost, nxt_path)
                if best is None or key < best:
                    best = key
            else:
                stack.append((nxt, nxt_path, nxt_cost))
    if best is None:
        return None
    return best[1], best[0]


def _leaves(values, depth):
    """The entries ``depth`` levels down in ``values``, each level iterated."""
    if depth == 0:
        yield values
    else:
        for entry in values:
            yield from _leaves(entry, depth - 1)


def oracle_number_array(values, name, shape, kinds, row_name=None):
    """``errors._number_array``'s rule read the plain way: ``values`` as
    ``np.asarray`` reads them, then, for a list or tuple, every entry as
    deep as the array's dimensions scanned for a boolean.  A boolean,
    ragged input or a dtype kind outside ``kinds`` raises ValidationError
    naming ``name``, or with ``row_name`` the first row bad alone or unlike
    row 0 in shape; a shape unlike the pattern ``shape`` raises naming the
    shape.  ``float_array`` and ``int_array`` give the same results with
    this in place of ``_number_array``."""
    try:
        array = np.asarray(values)
    except ValueError:
        array = None
    boolean = array is not None and (array.dtype.kind == "b" or (
        array.dtype.kind in kinds and isinstance(values, (list, tuple))
        and any(type(leaf) in (bool, np.bool_) for leaf in _leaves(values, array.ndim))))
    if boolean or array is None or array.dtype.kind not in kinds:
        if row_name is not None and isinstance(values, (list, tuple)):
            row_shape = shape and shape[1:]
            for row, entry in enumerate(values):
                row_shape = oracle_number_array(entry, row_name.format(row), row_shape,
                                                kinds).shape
        raise ValidationError(f"{name}: " + ("expected numbers, got a boolean" if boolean
                                             else "expected a rectangular array of numbers"))
    if shape is not None:
        if array.shape == (0,) and shape and shape[0] in (None, 0):
            array = array.reshape((0,) + tuple(n or 0 for n in shape[1:]))
        if len(array.shape) != len(shape) or any(
                n is not None and n != have for n, have in zip(shape, array.shape)):
            pattern = ", ".join("*" if n is None else str(n) for n in shape)
            pattern += "," if len(shape) == 1 else ""
            raise ValidationError(f"{name} must have shape ({pattern}), got {array.shape}")
    return array
