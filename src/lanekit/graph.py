"""Directed keypoint graphs and shortest-path lane extraction.

An adjacency matrix holds pairwise connection probabilities between
keypoints.  Thresholding at ``t_a`` yields a directed graph over some of
them, the ``nodes``: every keypoint of the matrix, or only the ones point
NMS kept.  ``threshold_adjacency`` gathers the edges straight from the
matrix, a fixed block of the nodes' rows at a time, keeping the entries
above ``t_a`` whose column is a node and not the row's own; it never copies
the nodes x nodes submatrix.  ``extract_lanes`` keeps only the edges that
run to a keypoint of larger ``y``, so its graph is acyclic, searched in row
order.  Start keypoints have no incoming edges (but at least one outgoing),
end keypoints the reverse.  A lane is the least-cost start-to-end path
under edge weight ``1 - prob``, ties broken as ``extract_lanes`` states.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (FINITE, NON_NEGATIVE, UNIT, ValidationError, check_int, check_real,
                     float_array, int_array, unchecked)
from .nms import as_proposal_set

# The connection probability an edge must exceed to be kept, the ``t_a``
# that ``extract_lanes`` and ``pipeline.run_pipeline`` default to.
EDGE_THRESHOLD = 0.5


def _as_probs(adjacency, within=None):
    """The square float matrix of an AdjacencyMatrix, or of an array whose
    entries lie ``within`` that interval if given."""
    if isinstance(adjacency, AdjacencyMatrix):
        return adjacency.probs
    probs = float_array(adjacency, "adjacency", (None, None), within=within)
    if probs.shape[0] != probs.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {probs.shape}")
    return probs


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """S x S connection probabilities; entry (i, j) is for the edge i -> j."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_probs(self.probs, UNIT))

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class DirectedLaneGraph:
    """Thresholded connection graph over ``node_count`` keypoints, a
    non-negative integer.  Its edges are distinct, in range and sorted by
    (src, dst), the order ``_best_paths`` reads them in, and no edge
    probability exceeds 1, so every weight ``1 - prob`` is non-negative."""

    node_count: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_prob: np.ndarray

    def __post_init__(self):
        node_count = check_int(self.node_count, "node_count", 0)
        src = int_array(self.edge_src, "edge_src", (None,), within=(0, node_count, "[)"))
        dst = int_array(self.edge_dst, "edge_dst", (None,), within=(0, node_count, "[)"))
        prob = float_array(self.edge_prob, "edge_prob", (None,), within=(-np.inf, 1, "[]"))
        if not len(src) == len(dst) == len(prob):
            raise ValidationError(f"edge arrays must be of one length, got lengths "
                                  f"{len(src)}, {len(dst)} and {len(prob)}")
        step_src, step_dst = np.diff(src), np.diff(dst)
        if not np.all((step_src > 0) | ((step_src == 0) & (step_dst > 0))):
            raise ValidationError("edges must be distinct and sorted by (src, dst)")
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edge_src", src)
        object.__setattr__(self, "edge_dst", dst)
        object.__setattr__(self, "edge_prob", prob)

    @property
    def edges(self):
        """Edge tuples (i, j, prob) in (i, j) lexicographic order."""
        return [(int(i), int(j), float(p))
                for i, j, p in zip(self.edge_src, self.edge_dst, self.edge_prob)]

    @property
    def in_degree(self):
        return np.bincount(self.edge_dst, minlength=self.node_count)

    @property
    def out_degree(self):
        return np.bincount(self.edge_src, minlength=self.node_count)


@dataclass(frozen=True, eq=False)
class LaneRecord:
    """A lane polyline with category and confidence, read-only once made: a
    lane ``extract_lanes`` made, or one read from a lane or ground-truth
    file.  It holds the one lane rule: ``points`` form an (N >= 2, 3) array
    of finite (x, y, z) rows whose y does not decrease, ``category`` is a
    non-negative integer and ``confidence`` lies in [0, 1].  ``path`` holds
    an extracted lane's keypoint indices, one per point and none repeated; a
    lane read from a file has none.  A ground-truth lane
    (``metrics.GroundTruthLane``) keeps the default confidence."""

    points: np.ndarray
    category: int = 0
    confidence: float = 1.0
    path: tuple = ()

    def __post_init__(self):
        points = float_array(self.points, "points", within=FINITE).copy()
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
            raise ValidationError(f"lane points must be (N >= 2, 3), got shape {points.shape}")
        if (points[1:, 1] < points[:-1, 1]).any():
            raise ValidationError("lane points must have non-decreasing y")
        points.flags.writeable = False
        object.__setattr__(self, "category", check_int(self.category, "category", 0))
        object.__setattr__(self, "confidence",
                           float(check_real(self.confidence, "confidence", 0, 1, "[]")))
        # A lane read from a file has no path, and skips the array rule.
        path = tuple(self.path)
        if path:
            path = tuple(int_array(path, "path", (None,), within=NON_NEGATIVE).tolist())
        if path and len(path) != len(points):
            raise ValidationError(f"path has {len(path)} nodes for {len(points)} points")
        if len(set(path)) != len(path):
            raise ValidationError("lane path must be simple (no repeated nodes)")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "path", path)


def _lane(points, category, confidence, path=()):
    """A LaneRecord that this module made or checked, its rule skipped:
    ``points`` a float array it holds alone or a view of one, the rest as
    the rule leaves them."""
    points.flags.writeable = False
    return unchecked(LaneRecord, points=points, category=category, confidence=confidence,
                     path=path)


def lane_records(points, categories, confidences=None, label="lanes[{}]".format):
    """The LaneRecords of a file's lanes, checked in one call: lane i has
    the rows ``points[i]``, a list, ``categories[i]`` and ``confidences[i]``
    (1.0 if None).  It accepts what ``LaneRecord`` accepts lane by lane.
    All rows go through one ``float_array`` call, the y order through one
    comparison that skips lane boundaries, and the lanes' points are
    read-only views of that one array.  If that check fails, the lanes are
    made one by one by ``LaneRecord``, and the first bad one raises its own
    message, prefixed with ``label(i)``, its place in the file: ``lanes[i]``
    by default, ``frames[f].lanes[j]`` for a ground-truth file's lanes
    across frames."""
    confidences = [1.0] * len(points) if confidences is None else confidences
    if not len(points) == len(categories) == len(confidences):
        raise ValidationError(f"lanes: {len(points)} point lists for {len(categories)} "
                              f"categories and {len(confidences)} confidences")
    lanes = _lanes_at_once(points, categories, confidences)
    if lanes is not None:
        return lanes
    lanes = []
    for i, fields in enumerate(zip(points, categories, confidences)):
        try:
            lanes.append(LaneRecord(*fields))
        except ValidationError as exc:
            raise ValidationError(f"{label(i)}: {exc}") from exc
    return lanes


def _lanes_at_once(points, categories, confidences):
    """``lane_records``' lanes by its one-call check, or None where it
    fails.  numpy reads an integer beyond int64 and uint64 as an object, in
    a lane alone and among other lanes' floats alike, so the one array
    holds a number exactly where each lane's own would."""
    if not all(type(rows) is list for rows in points):
        return None
    sizes = [len(rows) for rows in points]
    if min(sizes, default=2) < 2:
        return None
    try:
        rows = float_array(list(chain.from_iterable(points)), "points", (None, 3),
                           within=FINITE)
        categories = [check_int(c, "category", 0) for c in categories]
        confidences = [float(check_real(c, "confidence", 0, 1, "[]")) for c in confidences]
    except ValidationError:
        return None
    ends = np.cumsum(sizes, dtype=np.int64)
    drops = rows[1:, 1] < rows[:-1, 1]
    drops[ends[:-1] - 1] = False   # a step from one lane to the next
    if drops.any():
        return None
    rows.flags.writeable = False
    starts = (ends - sizes).tolist()
    return [_lane(rows[a:b], c, f) for a, b, c, f in zip(starts, ends.tolist(), categories,
                                                             confidences)]


# Adjacency entries scanned at a time by ``threshold_adjacency``: whole
# rows, at least one, about 512 KB of them.
_BLOCK_ENTRIES = 1 << 16


def _as_nodes(nodes, size):
    """``nodes`` as strictly increasing int64 indices into a ``size``-node matrix."""
    if nodes is None:
        return np.arange(size)
    nodes = int_array(nodes, "nodes", (None,), within=(0, size, "[)"))
    if not np.all(np.diff(nodes) > 0):
        raise ValidationError("nodes must be strictly increasing")
    return nodes


def threshold_adjacency(adjacency, t_a, nodes=None):
    """Keeps exactly the off-diagonal entries with probability above ``t_a``.

    With ``nodes``, strictly increasing indices into the square adjacency,
    the graph is the one of ``adjacency[np.ix_(nodes, nodes)]``: node k is
    index ``nodes[k]``.  Its edges are read from the nodes' rows, a block
    of rows at a time, so that submatrix is never built.  An entry read as
    an edge that is NaN or above 1 raises ValidationError naming it.
    """
    check_real(t_a, "t_a", 0, 1, "[)")
    probs = _as_probs(adjacency)
    size = len(probs)
    nodes = _as_nodes(nodes, size)
    rank = np.full(size, -1)   # node of each matrix index, -1 for none
    rank[nodes] = np.arange(len(nodes))
    block = max(1, _BLOCK_ENTRIES // max(size, 1))
    src, dst, prob = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for start in range(0, len(nodes), block):
        rows = probs.take(nodes[start:start + block], axis=0)
        # Row-major order, so ascending nodes give edges in (src, dst) order.
        # Unlike ``rows > t_a`` this keeps NaN, for the edge check below.
        flat = np.flatnonzero(~(rows <= t_a))
        row, col = np.divmod(flat, size)
        node = rank[col]
        keep = (node >= 0) & (node != row + start)
        src.append(row[keep] + start)
        dst.append(node[keep])
        prob.append(rows.ravel()[flat[keep]])
    src, dst, prob = np.concatenate(src), np.concatenate(dst), np.concatenate(prob)
    if not (prob <= 1.0).all():
        k = np.argmin(prob <= 1.0)
        raise ValidationError(f"adjacency[{nodes[src[k]]}, {nodes[dst[k]]}]: must be "
                              f"finite and lie in [0, 1], got {prob[k]}")
    # The edges are int64, in range and in (src, dst) order as gathered, and
    # their probabilities were just bounded: the graph's rule holds.
    return unchecked(DirectedLaneGraph, node_count=len(nodes), edge_src=src, edge_dst=dst,
                     edge_prob=prob)


def find_terminals(graph):
    """Start nodes (in 0, out > 0) and end nodes (in > 0, out 0), sorted."""
    indeg, outdeg = graph.in_degree, graph.out_degree
    starts = np.nonzero((indeg == 0) & (outdeg > 0))[0]
    ends = np.nonzero((indeg > 0) & (outdeg == 0))[0]
    return starts.tolist(), ends.tolist()


def path_weight(path, adjacency):
    """Total 1 - prob along consecutive ``path`` nodes, indices in [0, n) of
    the n x n ``adjacency``, whose entries must lie in [0, 1]."""
    probs = AdjacencyMatrix(adjacency).probs
    nodes = int_array(path, "path", (None,), within=(0, len(probs), "[)"))
    return float(sum((1.0 - probs[nodes[:-1], nodes[1:]]).tolist()))


def _best_paths(graph, sources, y):
    """For each source, a dict from every node it reaches to its best
    ``(cost, path)`` label.

    Every edge runs to a larger ``y``, so visiting the nodes in (y, index)
    order visits each one after all its predecessors.  One sweep from the
    source's place then relaxes each labelled node's out-edges, keeping the
    smaller label: a best path's prefix is a best path, and its cost is
    summed left to right from the source.  Edges come sorted by source, so
    node u's edges are ``offsets[u]:offsets[u + 1]``.
    """
    order = np.argsort(y, kind="stable").tolist()
    offsets = np.searchsorted(graph.edge_src, np.arange(graph.node_count + 1)).tolist()
    dst = graph.edge_dst.tolist()
    weight = (1.0 - graph.edge_prob).tolist()
    for source in sources:
        best = {source: (0.0, (source,))}
        for u in order[order.index(source):]:
            if u in best:
                cost, path = best[u]
                for k in range(offsets[u], offsets[u + 1]):
                    v = dst[k]
                    label = (cost + weight[k], path + (v,))
                    if v not in best or label < best[v]:
                        best[v] = label
        yield best


def aggregate_lane_attributes(keypoints):
    """Lane class and confidence from member keypoints.

    ``keypoints`` is a ProposalSet or a sequence of Keypoints.  Class: argmax
    of the mean per-class probability vector, ties to the lowest id, or 0
    for keypoints without class scores.  Confidence: mean of the keypoints'
    confidences.
    """
    members = as_proposal_set(keypoints)
    if not len(members):
        raise ValidationError("keypoints: cannot aggregate an empty lane")
    scores = members.class_scores
    category = int(np.argmax(scores.mean(axis=0))) if scores.shape[1] else 0
    return category, float(members.confidences.mean())


def extract_lanes(keypoints, adjacency, t_a=EDGE_THRESHOLD, nodes=None):
    """All best start-to-end lanes of the forward graph, as ``LaneRecord``s
    carrying their paths.

    The forward graph keeps the thresholded edges that run to a keypoint of
    strictly larger ``y``; an edge within a row or toward smaller ``y``
    goes, so every lane runs strictly forward, and its starts and ends are
    that graph's terminals.  A pair's lane is its least-cost path under
    edge weight ``1 - prob``, ties going to the lexicographically smallest
    node sequence: ``oracles.oracle_paths``' rule on the forward graph,
    costs summed left to right from the start.  It is exact when those
    sums are, e.g. for dyadic probabilities such as 0.25 or 1.0.  One lane
    per reachable (start, end) pair, emitted by ascending start then end
    index; merges and splits therefore duplicate shared segments across
    instances.  ``keypoints`` is a ProposalSet or a sequence of Keypoints,
    one per node of the graph: per row of the adjacency, or, given
    ``nodes`` (see ``threshold_adjacency``), per index in ``nodes``.
    """
    proposals = as_proposal_set(keypoints)
    graph = threshold_adjacency(adjacency, t_a, nodes)
    if graph.node_count != len(proposals):
        raise ValidationError(f"the graph has {graph.node_count} nodes but there are "
                              f"{len(proposals)} keypoints")
    y = proposals.y
    forward = y[graph.edge_dst] > y[graph.edge_src]
    # A subset of the checked, sorted edges keeps the graph's rule.
    graph = unchecked(DirectedLaneGraph, node_count=graph.node_count,
                      edge_src=graph.edge_src[forward], edge_dst=graph.edge_dst[forward],
                      edge_prob=graph.edge_prob[forward])
    starts, ends = find_terminals(graph)
    # Every row is finite: ProposalSet checks x + dx as well as x, y and z.
    xyz = np.column_stack([proposals.refined_x, y, proposals.z])

    lanes = []
    for best in _best_paths(graph, starts, y):
        for e in ends:
            if e in best:
                path = best[e][1]
                nodes = np.array(path)
                category, confidence = aggregate_lane_attributes(proposals.subset(nodes))
                lanes.append(_lane(xyz[nodes], category, confidence, path))
    return lanes
