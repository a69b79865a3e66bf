"""Directed keypoint graphs and shortest-path lane extraction.

An adjacency matrix holds pairwise connection probabilities between kept
keypoints.  Thresholding at ``t_a`` yields a directed graph; start keypoints
have no incoming edges (but at least one outgoing), end keypoints the
reverse.  Each lane instance is the minimum-weight simple path from a start
to a reachable end under edge weight ``1 - prob``, found with Dijkstra.
"""

import heapq
from dataclasses import dataclass

import numpy as np

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
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise ValueError("adjacency probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class DirectedLaneGraph:
    """Thresholded connection graph over ``node_count`` keypoints."""

    node_count: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_prob: np.ndarray

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

    def out_neighbors(self):
        """Per-node list of (destination, edge weight 1 - prob)."""
        adj = [[] for _ in range(self.node_count)]
        for i, j, p in zip(self.edge_src, self.edge_dst, self.edge_prob):
            adj[i].append((int(j), 1.0 - float(p)))
        return adj


@dataclass(frozen=True, eq=False)
class LaneInstance:
    """One extracted lane: node path, 3-D polyline, class, confidence."""

    path: tuple
    points: np.ndarray
    category: int
    confidence: float

    def __post_init__(self):
        path = tuple(int(i) for i in self.path)
        points = np.asarray(self.points, dtype=float)
        if len(path) == 0:
            raise ValueError("lane path must be non-empty")
        if len(set(path)) != len(path):
            raise ValueError("lane path must be simple (no repeated nodes)")
        if points.shape != (len(path), 3):
            raise ValueError(f"points must be ({len(path)}, 3), got {points.shape}")
        if len(path) > 1 and not np.all(np.diff(points[:, 1]) > 0):
            raise ValueError("longitudinal coordinates must strictly increase along the lane")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "points", points)


def threshold_adjacency(adjacency, t_a):
    """Keeps exactly the off-diagonal entries with probability above ``t_a``."""
    if not 0.0 <= t_a < 1.0:
        raise ValueError(f"t_a must lie in [0, 1), got {t_a}")
    probs = _as_probs(adjacency)
    mask = probs > t_a
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DirectedLaneGraph(node_count=len(probs), edge_src=src, edge_dst=dst,
                             edge_prob=probs[src, dst])


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


def _dijkstra(node_count, out_adj, source):
    dist = np.full(node_count, np.inf)
    pred = np.full(node_count, -1, dtype=np.int64)
    dist[source] = 0.0
    visited = np.zeros(node_count, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v, w in out_adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def aggregate_lane_attributes(keypoints):
    """Lane class and confidence from member keypoints.

    ``keypoints`` is a ProposalSet or a sequence of Keypoints.  Class: argmax
    of the mean per-class probability vector, ties to the lowest id.
    Confidence: mean of each keypoint's max class score.
    """
    members = as_proposal_set(keypoints)
    if not len(members):
        raise ValueError("cannot aggregate an empty lane")
    if members.score_counts.all():
        scores = members.class_scores
        category = int(np.argmax(scores.mean(axis=0)))
        confidence = float(scores.max(axis=1).mean())
    else:
        # unclassified keypoints: single implicit class, foreground confidence
        category = 0
        confidence = float(np.mean(members.confidences))
    return category, confidence


def extract_lanes(keypoints, adjacency, t_a=0.5):
    """All minimum-weight start-to-end lanes of the thresholded graph.

    One lane per reachable (start, end) pair, emitted by ascending start
    then end index; merges and splits therefore duplicate shared segments
    across instances.  Paths that double back longitudinally (possible only
    when the adjacency links toward smaller y) are dropped so every emitted
    lane runs strictly forward.  ``keypoints`` is a ProposalSet or a
    sequence of Keypoints.
    """
    proposals = as_proposal_set(keypoints)
    probs = _as_probs(adjacency)
    if len(probs) != len(proposals):
        raise ValueError(f"adjacency is {probs.shape} but there are "
                         f"{len(proposals)} keypoints")
    graph = threshold_adjacency(probs, t_a)
    starts, ends = find_terminals(graph)
    if not starts or not ends:
        return []
    out_adj = graph.out_neighbors()
    xyz = np.column_stack([proposals.x + proposals.dx, proposals.y, proposals.z])

    lanes = []
    for s in starts:
        dist, pred = _dijkstra(graph.node_count, out_adj, s)
        for e in ends:
            if not np.isfinite(dist[e]):
                continue
            path = [e]
            while path[-1] != s:
                path.append(int(pred[path[-1]]))
            path.reverse()
            points = xyz[path]
            if not np.all(np.diff(points[:, 1]) > 0):
                continue
            category, confidence = aggregate_lane_attributes(proposals.subset(path))
            lanes.append(LaneInstance(path=tuple(path), points=points,
                                      category=category, confidence=confidence))
    return lanes
