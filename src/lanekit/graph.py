"""Directed keypoint graphs and shortest-path lane extraction.

An adjacency matrix holds pairwise connection probabilities between
keypoints.  Thresholding at ``t_a`` yields a directed graph over some of
them, the ``nodes``: every keypoint of the matrix, or only the ones point
NMS kept.  ``threshold_adjacency`` gathers the edges straight from the
matrix, a fixed block of the nodes' rows at a time, keeping the entries
above ``t_a`` whose column is a node and not the row's own; it never copies
the nodes x nodes submatrix.  Start keypoints have no incoming edges (but
at least one outgoing), end keypoints the reverse.  A lane is the
least-cost start-to-end simple path under edge weight ``1 - prob``, ties
broken as ``extract_lanes`` states.
"""

import heapq
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ValidationError, float_array, reject_non_finite
from .nms import as_proposal_set


def _as_probs(adjacency):
    probs = adjacency.probs if isinstance(adjacency, AdjacencyMatrix) else adjacency
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {probs.shape}")
    return probs


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """S x S connection probabilities; entry (i, j) is for the edge i -> j."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_probs(self.probs)
        # NaN propagates through min and max and fails both comparisons.
        if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
            raise ValidationError("adjacency probabilities must be finite and lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class DirectedLaneGraph:
    """Thresholded connection graph over ``node_count`` keypoints.  Its
    edges are distinct, in range and sorted by (src, dst), the order
    ``_best_paths`` reads them in."""

    node_count: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_prob: np.ndarray

    def __post_init__(self):
        src, dst, prob = (np.asarray(a) for a in (self.edge_src, self.edge_dst, self.edge_prob))
        if not src.shape == dst.shape == prob.shape == (len(src),):
            raise ValidationError(f"edge arrays must be 1-D of one length, got shapes "
                                  f"{src.shape}, {dst.shape} and {prob.shape}")
        if len(src) and not (min(src.min(), dst.min()) >= 0
                             and max(src.max(), dst.max()) < self.node_count):
            raise ValidationError(f"edge nodes must lie in [0, {self.node_count})")
        step_src, step_dst = np.diff(src), np.diff(dst)
        if not np.all((step_src > 0) | ((step_src == 0) & (step_dst > 0))):
            raise ValidationError("edges must be distinct and sorted by (src, dst)")
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
        points = float_array(self.points, "points").copy()
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
            raise ValidationError(f"lane points must be (N >= 2, 3), got shape {points.shape}")
        reject_non_finite(points, "points")
        if (points[1:, 1] < points[:-1, 1]).any():
            raise ValidationError("lane points must have non-decreasing y")
        points.flags.writeable = False
        # bool is an Integral; a category is not a truth value.
        if not (isinstance(self.category, Integral) and not isinstance(self.category, bool)
                and self.category >= 0):
            raise ValidationError(f"category must be a non-negative integer, "
                                  f"got {self.category!r}")
        # NaN fails both comparisons.
        if not (isinstance(self.confidence, Real) and 0.0 <= self.confidence <= 1.0):
            raise ValidationError(f"confidence must lie in [0, 1], got {self.confidence!r}")
        path = tuple(int(i) for i in self.path)
        if path and len(path) != len(points):
            raise ValidationError(f"path has {len(path)} nodes for {len(points)} points")
        if len(set(path)) != len(path):
            raise ValidationError("lane path must be simple (no repeated nodes)")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "category", int(self.category))
        object.__setattr__(self, "path", path)


# Adjacency entries scanned at a time by ``threshold_adjacency``: whole
# rows, at least one, about 512 KB of them.
_BLOCK_ENTRIES = 1 << 16


def _as_nodes(nodes, size):
    """``nodes`` as strictly increasing int64 indices into a ``size``-node matrix."""
    if nodes is None:
        return np.arange(size)
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or (nodes.size and nodes.dtype.kind not in "iu"):
        raise ValidationError(f"nodes must be a 1-D array of indices, got {nodes.dtype} "
                              f"of shape {nodes.shape}")
    nodes = nodes.astype(np.int64, copy=False)
    if nodes.size and not (nodes[0] >= 0 and nodes[-1] < size and np.all(np.diff(nodes) > 0)):
        raise ValidationError(f"nodes must be strictly increasing indices in [0, {size})")
    return nodes


def threshold_adjacency(adjacency, t_a, nodes=None):
    """Keeps exactly the off-diagonal entries with probability above ``t_a``.

    With ``nodes``, strictly increasing indices into the square adjacency,
    the graph is the one of ``adjacency[np.ix_(nodes, nodes)]``: node k is
    index ``nodes[k]``.  Its edges are read from the nodes' rows, a block
    of rows at a time, so that submatrix is never built.
    """
    if not 0.0 <= t_a < 1.0:
        raise ValueError(f"t_a must lie in [0, 1), got {t_a}")
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
        flat = np.flatnonzero(rows > t_a)
        row, col = np.divmod(flat, size)
        node = rank[col]
        keep = (node >= 0) & (node != row + start)
        src.append(row[keep] + start)
        dst.append(node[keep])
        prob.append(rows.ravel()[flat[keep]])
    return DirectedLaneGraph(node_count=len(nodes), edge_src=np.concatenate(src),
                             edge_dst=np.concatenate(dst), edge_prob=np.concatenate(prob))


def find_terminals(graph):
    """Start nodes (in 0, out > 0) and end nodes (in > 0, out 0), sorted."""
    indeg, outdeg = graph.in_degree, graph.out_degree
    starts = np.nonzero((indeg == 0) & (outdeg > 0))[0]
    ends = np.nonzero((indeg > 0) & (outdeg == 0))[0]
    return starts.tolist(), ends.tolist()


def path_weight(path, adjacency):
    """Total 1 - prob along consecutive path nodes."""
    probs = _as_probs(adjacency)
    return float(sum(1.0 - probs[i, j] for i, j in zip(path[:-1], path[1:])))


def _best_paths(graph, sources):
    """For each source, a dict from every node it reaches to its best path.

    The heap label is the ranking key itself, ``(cost, path)``.  Weights are
    non-negative and a path sorts before its extensions, so labels pop in
    ascending order and a node's first popped label is its best path; every
    node on it is settled, so extensions stay simple.  Edges come sorted by
    source, so node u's edges are ``offsets[u]:offsets[u + 1]``.
    """
    offsets = np.searchsorted(graph.edge_src, np.arange(graph.node_count + 1)).tolist()
    dst = graph.edge_dst.tolist()
    weight = (1.0 - graph.edge_prob).tolist()
    for source in sources:
        best = {}
        heap = [(0.0, (source,))]
        while heap:
            cost, path = heapq.heappop(heap)
            u = path[-1]
            if u in best:
                continue
            best[u] = path
            for k in range(offsets[u], offsets[u + 1]):
                if dst[k] not in best:
                    heapq.heappush(heap, (cost + weight[k], path + (dst[k],)))
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
        raise ValueError("cannot aggregate an empty lane")
    scores = members.class_scores
    category = int(np.argmax(scores.mean(axis=0))) if scores.shape[1] else 0
    return category, float(members.confidences.mean())


def extract_lanes(keypoints, adjacency, t_a=0.5, nodes=None):
    """All best start-to-end lanes of the thresholded graph, as
    ``LaneRecord``s carrying their paths.

    A pair's lane is its least-cost simple path under edge weight
    ``1 - prob``, ties going to the lexicographically smallest node
    sequence: ``oracles.oracle_paths``' rule, costs summed left to right
    from the start.  It is exact when those sums are, e.g. for dyadic
    probabilities such as 0.25 or 1.0.  One lane per reachable (start, end)
    pair, emitted by ascending start then end index; merges and splits
    therefore duplicate shared segments across instances.  Paths that
    double back longitudinally (possible only when the adjacency links
    toward smaller y) are dropped so every emitted lane runs strictly
    forward.  ``keypoints`` is a ProposalSet or a sequence of Keypoints,
    one per node of the graph: per row of the adjacency, or, given
    ``nodes`` (see ``threshold_adjacency``), per index in ``nodes``.
    """
    proposals = as_proposal_set(keypoints)
    graph = threshold_adjacency(adjacency, t_a, nodes)
    if graph.node_count != len(proposals):
        raise ValueError(f"the graph has {graph.node_count} nodes but there are "
                         f"{len(proposals)} keypoints")
    starts, ends = find_terminals(graph)
    if not starts or not ends:
        return []
    xyz = np.column_stack([proposals.x + proposals.dx, proposals.y, proposals.z])

    lanes = []
    for best in _best_paths(graph, starts):
        for e in ends:
            if e not in best:
                continue
            path = list(best[e])
            points = xyz[path]
            if not np.all(np.diff(points[:, 1]) > 0):
                continue
            category, confidence = aggregate_lane_attributes(proposals.subset(path))
            lanes.append(LaneRecord(points=points, category=category,
                                    confidence=confidence, path=path))
    return lanes
