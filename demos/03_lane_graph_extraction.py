"""Lane extraction over the keypoint graph.

Seven keypoints form a Y: two branches merge at y=20 and share a tail.  The
adjacency is thresholded into a directed graph of edges toward larger y,
every (source, sink) pair gets its least-cost path under edge weight 1 - probability (equal costs go
to the lexicographically smallest node sequence), and shared segments are duplicated across the resulting lane instances.
"""

import numpy as np

from lanekit import Keypoint, extract_lanes, find_terminals, threshold_adjacency

#       0 (y=5)    1 (y=5)
#        \          /
#    2 (y=10)   3 (y=10)
#         \      /
#        4 (y=20)  -> 5 (y=30) -> 6 (y=40)
positions = [(-2.0, 5.0), (2.0, 5.0), (-1.5, 10.0), (1.5, 10.0),
             (0.0, 20.0), (0.1, 30.0), (0.2, 40.0)]
kps = tuple(Keypoint(grid_index=(i, 0), x=x, y=y, fg_score=0.9,
                     class_scores=np.array([0.1, 0.8]))
            for i, (x, y) in enumerate(positions))

adj = np.zeros((7, 7))
adj[0, 2] = 0.95
adj[1, 3] = 0.90
adj[2, 4] = 0.85
adj[3, 4] = 0.80
adj[4, 5] = 0.99
adj[5, 6] = 0.97
adj[0, 4] = 0.55   # weak skip edge, beaten by the 0->2->4 detour

graph = threshold_adjacency(adj, t_a=0.5)
starts, ends = find_terminals(graph)
print(f"graph: {len(graph.edges)} edges above t_a=0.5, starts={starts}, ends={ends}")

lanes = extract_lanes(kps, adj, t_a=0.5)
for lane in lanes:
    path = "->".join(str(i) for i in lane.path)
    print(f"lane {path}: category {lane.category}, "
          f"confidence {lane.confidence:.2f}, "
          f"y from {lane.points[0, 1]:.0f} to {lane.points[-1, 1]:.0f} m")
print("both branches kept the shared tail 4->5->6; the weak 0->4 skip lost to")
print("the cheaper detour through node 2 (cost 0.05+0.15 < 0.45)")
