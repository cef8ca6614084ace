"""Correctness checks on augmentation outputs, written apart from netaug.

Nothing here calls the package: the distance check uses its own BFS and the
PMI check its own strict-witness test, so a bug shared by the library's
routines cannot hide itself.
"""

from __future__ import annotations

from collections import deque

CHECKS = ("distances", "pmi_witness", "sandwich", "kirchhoff")


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source``; -1 marks unreachable nodes."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def witnesses_hold(vectors, witnesses) -> bool:
    """Every later vector is strictly larger at each position's witness coordinate."""
    for i, (vec, alpha) in enumerate(zip(vectors, witnesses)):
        if any(later[alpha] <= vec[alpha] for later in vectors[i + 1 :]):
            return False
    return True


class Instance:
    """One (graph, leaders, PMI) input with its distances computed by our own BFS."""

    def __init__(self, n, edges, leaders, pmi_json):
        self.n = n
        self.edges = frozenset(edges)
        self.leaders = tuple(leaders)
        self.pmi = pmi_json
        adj = adjacency(n, self.edges)
        self.before = {ell: bfs(adj, ell) for ell in self.leaders}

    def check(self, edges_after, upper_bound, kirchhoff_before, kirchhoff_after) -> dict[str, bool]:
        """Verdict per check in ``CHECKS`` for one augmented edge set."""
        after_set = frozenset(edges_after)
        adj = adjacency(self.n, after_set)
        after = {ell: bfs(adj, ell) for ell in self.leaders}
        nodes = [item["node"] for item in self.pmi]
        distances = all(
            after[ell][v] == self.before[ell][v] for ell in self.leaders for v in nodes if v != ell
        )
        vectors = [tuple(after[ell][v] for ell in self.leaders) for v in nodes]
        claimed = [tuple(item["vector"]) for item in self.pmi]
        pmi_witness = vectors == claimed and witnesses_hold(
            vectors, [item["witness"] for item in self.pmi]
        )
        before, count = len(self.edges), len(after_set)
        sandwich = self.edges <= after_set and before <= count <= before + upper_bound
        kirchhoff = count == before or kirchhoff_after < kirchhoff_before
        return {
            "distances": distances,
            "pmi_witness": pmi_witness,
            "sandwich": sandwich,
            "kirchhoff": kirchhoff,
        }
