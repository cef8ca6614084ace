"""Maximal edge addition under distance-preservation constraints.

The single-pair solver builds a chain of cliques over BFS levels between the
pair, which is an optimal shape: any denser graph would shorten the pair
distance. Two multi-pair algorithms lift this to a whole set of monitored
(leader, node) pairs taken from a PMI sequence: one intersects the per-pair
chain solutions, so an edge survives iff its endpoints are at most one level
apart for every monitored pair; the other scans a shuffled complement edge
list and keeps every edge whose addition preserves all monitored distances,
repeated best-of-c. Both therefore keep the PMI sequence (and the
controllability bound it certifies) valid on the augmented graph.

Everything here reads one input: BFS distance int arrays from the pair's
ends, or from each leader and PMI node, checked once as they are computed
(``DisconnectedGraphError`` names a node some source cannot reach).
``level_partition`` returns the levels as a tuple of node tuples, which
``build_clique_chain`` takes back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Integral
from operator import lshift
from typing import Sequence

import numpy as np

from .controllability import PMISequence, _check_leaders
from .errors import SizeGuardError
from .graphs import (
    Edge,
    Graph,
    _checked_distances,
    _guard_dense,
    _missing_pairs,
    bfs_distances,
    complement_edges,
)

__all__ = [
    "AugmentationResult",
    "classify_fixed_nodes",
    "level_partition",
    "build_clique_chain",
    "augment_pair",
    "augment_pair_brute_force",
    "augment_intersection",
    "augment_randomized",
    "addable_edge_upper_bound",
    "success_probability_bound",
    "BRUTE_FORCE_GUARD",
]

#: Exhaustive pair search refuses graphs larger than this.
BRUTE_FORCE_GUARD = 8


@dataclass(frozen=True)
class AugmentationResult:
    """Edge set produced by an augmentation run, plus audit fields.

    ``upper_bound_addable`` bounds ``len(added)`` from above;
    ``seed``/``repetitions`` are ``None`` for deterministic algorithms.
    """

    algorithm: str
    edges_before: frozenset[Edge]
    edges_after: frozenset[Edge]
    added: frozenset[Edge]
    upper_bound_addable: int
    pmi_length: int | None = None
    seed: int | None = None
    repetitions: int | None = None
    runtime_ms: float = 0.0

    def to_json(self, include_runtime: bool = False) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "c": self.repetitions,
            "edges_before": len(self.edges_before),
            "edges_after": len(self.edges_after),
            "added_edges": [list(e) for e in sorted(self.added)],
            "upper_bound": self.upper_bound_addable,
            "pmi_length": self.pmi_length,
            "runtime_ms": self.runtime_ms if include_runtime else 0.0,
        }


def _pair_distances(g: Graph, a: int, b: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Distance arrays from both ends of the pair and the pair distance;
    every node must be reachable from the pair."""
    if a == b:
        raise ValueError(f"pair nodes must differ, got ({a},{b})")
    for node in (a, b):
        if not (0 <= node < g.n):
            raise ValueError(f"node {node} out of range for n={g.n}")
    dist_a, dist_b = _checked_distances(g, (a, b))
    return dist_a, dist_b, int(dist_a[b])


def classify_fixed_nodes(g: Graph, a: int, b: int) -> list[bool]:
    """Flag per node: True iff it lies on some shortest path between the pair.
    Every node must be reachable from the pair."""
    dist_a, dist_b, k = _pair_distances(g, a, b)
    return (dist_a + dist_b == k).tolist()


def _levels(dist_a: np.ndarray, dist_b: np.ndarray, k: int) -> np.ndarray:
    """Clique-chain level of every node for a pair at distance ``k``, from the
    distance arrays of its two ends ``a`` and ``b``.

    Depth from ``a`` if at most ``k // 2``, else ``k`` minus depth from ``b``
    if that depth is at most ``(k - 1) // 2``, else the middle ``k // 2``
    (1 when ``k = 1``, so level 0 stays ``{a}``). Geodesic nodes thus sit at
    their depth from ``a``. A chain joins the node pairs at most one level apart.
    """
    near_b = np.where(dist_b <= (k - 1) // 2, k - dist_b, max(k // 2, 1))
    return np.where(dist_a <= k // 2, dist_a, near_b)


def _chain_mask(level: np.ndarray) -> np.ndarray:
    """Node-pair mask of the clique chain: both ends at most one level apart.
    It holds all node pairs, so at most ``DENSE_NODE_GUARD`` nodes."""
    _guard_dense(len(level), "the clique chain")
    return np.abs(level[:, None] - level[None, :]) <= 1


def _edges(mask: np.ndarray, nodes: np.ndarray) -> frozenset[Edge]:
    """The pairs in the upper triangle of ``mask`` as canonical edges over ``nodes``."""
    i, j = np.nonzero(np.triu(mask, 1))
    u, w = nodes[i], nodes[j]
    return frozenset(zip(np.minimum(u, w).tolist(), np.maximum(u, w).tolist()))


def level_partition(g: Graph, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Split all nodes into the k+1 levels used by the clique-chain construction,
    level 0 being ``(a,)``; every node must be reachable from the pair.

    Geodesic nodes sit at their distance from ``a``; an off-geodesic node
    keeps its distance from whichever endpoint is within the near half,
    and falls to the middle level ``k // 2`` otherwise.
    """
    dist_a, dist_b, k = _pair_distances(g, a, b)
    levels: list[list[int]] = [[] for _ in range(k + 1)]
    for v, level in enumerate(_levels(dist_a, dist_b, k).tolist()):
        levels[level].append(v)
    return tuple(map(tuple, levels))


def build_clique_chain(levels: Sequence[Sequence[int]]) -> frozenset[Edge]:
    """All within-level plus consecutive-level edges over the levels, which
    must hold distinct non-negative integer node ids, at most ``DENSE_NODE_GUARD``."""
    flat = [v for level in levels for v in level]
    fractional = [v for v in flat if not isinstance(v, Integral)]
    if fractional:
        raise ValueError(f"node {fractional[0]!r} is not an integer in the levels")
    nodes = np.array(flat, dtype=np.intp)
    ids, counts = np.unique(nodes, return_counts=True)
    bad = ids[(ids < 0) | (counts > 1)]
    if bad.size:
        raise ValueError(f"node {bad[0]} is negative or repeated in the levels")
    sizes = [len(level) for level in levels]
    return _edges(_chain_mask(np.repeat(np.arange(len(sizes)), sizes)), nodes)


def _upper_bound(g: Graph, dist: dict[int, np.ndarray], pairs: list[tuple[int, int]]) -> int:
    """Missing edges that no monitored pair rules out.

    A node pair is ruled out when both nodes lie on a common geodesic of a
    monitored pair at depths two or more apart (a geodesic node's level is its
    depth): adding it would create a shortcut on that geodesic. Such a pair
    is never already an edge (the edge would be that shortcut), so the
    complement is never enumerated.
    """
    forbidden = np.zeros((g.n, g.n), dtype=bool)
    for a, b in pairs:
        on = np.flatnonzero(dist[a] + dist[b] == dist[a][b])
        depth = dist[a][on]
        forbidden[np.ix_(on, on)] |= np.abs(depth[:, None] - depth[None, :]) >= 2
    return g.n * (g.n - 1) // 2 - g.num_edges() - int(np.count_nonzero(forbidden)) // 2


def augment_pair(g: Graph, a: int, b: int) -> AugmentationResult:
    """Maximal edge addition preserving the distance between one node pair.

    The answer is the chain of cliques over the level partition, which is the
    complete graph for an adjacent pair; every node must be reachable from
    the pair. Runs in O(n^2) time and memory, so ``n <= DENSE_NODE_GUARD``.
    """
    start = time.perf_counter()
    dist_a, dist_b, k = _pair_distances(g, a, b)
    edges_after = _edges(_chain_mask(_levels(dist_a, dist_b, k)), np.arange(g.n))
    return AugmentationResult(
        algorithm="clique-chain",
        edges_before=g.edges,
        edges_after=edges_after,
        added=frozenset(edges_after - g.edges),
        upper_bound_addable=_upper_bound(g, {a: dist_a, b: dist_b}, [(a, b)]),
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def augment_pair_brute_force(g: Graph, a: int, b: int) -> tuple[int, frozenset[Edge]]:
    """True optimum of the single-pair problem by exhaustive subset search.

    Returns ``(max_total_edges, one_optimal_edge_set)``. Search prunes any
    superset of a set that already shortens the pair distance, and starts
    from the clique-chain solution as incumbent. Guarded to ``n <= 8``.
    """
    if g.n > BRUTE_FORCE_GUARD:
        raise SizeGuardError(
            f"brute force is limited to n <= {BRUTE_FORCE_GUARD}, got n={g.n}"
        )
    # The chain solution is the incumbent; building it rejects unreachable nodes.
    best: list[Edge] = sorted(augment_pair(g, a, b).added)
    dist_a, dist_b, k = _pair_distances(g, a, b)

    def single_edge_ok(edge: Edge, da: Sequence[int], db: Sequence[int]) -> bool:
        u, v = edge
        return min(da[u] + db[v], da[v] + db[u]) + 1 >= k

    candidates = [
        e for e in sorted(complement_edges(g)) if single_edge_ok(e, dist_a, dist_b)
    ]

    def dfs(accepted: list[Edge], cands: list[Edge]):
        nonlocal best
        if len(accepted) + len(cands) <= len(best):
            return
        if not cands:
            best = list(accepted)
            return
        edge, rest = cands[0], cands[1:]
        accepted.append(edge)
        h = g.add_edges(accepted)
        da, db = bfs_distances(h, a), bfs_distances(h, b)
        dfs(accepted, [f for f in rest if single_edge_ok(f, da, db)])  # type: ignore[arg-type]
        accepted.pop()
        dfs(accepted, rest)

    dfs([], candidates)
    edges_after = frozenset(g.edges | set(best))
    return len(edges_after), edges_after


def _instance(
    g: Graph, leaders: Sequence[int], pmi: PMISequence
) -> tuple[list[tuple[int, int]], dict[int, np.ndarray]]:
    """Check the PMI sequence against the graph, once per augmenter call.

    Returns the monitored (leader, PMI node) pairs and one BFS distance int
    array per source (leaders and PMI nodes). Every caller holds node pairs in
    O(n^2) memory, so the graph must have at most ``DENSE_NODE_GUARD`` nodes.
    """
    _guard_dense(g.n, "edge augmentation")
    leaders = _check_leaders(g, leaders)
    nodes = pmi.nodes()
    # bfs_distances rejects out-of-range nodes; the witness pass rejects a
    # repeated node, whose two equal vectors admit no witness.
    sources = sorted(set(leaders) | set(nodes))
    dist = dict(zip(sources, _checked_distances(g, sources)))
    for dv in pmi.vectors:
        actual = tuple(int(dist[ell][dv.node]) for ell in leaders)
        if dv.dist != actual:
            raise ValueError(
                f"PMI vector for node {dv.node} does not match the graph: "
                f"{dv.dist} vs {actual}"
            )
    if len(pmi.witnesses) != len(pmi.vectors):
        raise ValueError(
            f"PMI sequence has {len(pmi.vectors)} vectors but {len(pmi.witnesses)} witnesses"
        )
    mins = [float("inf")] * len(leaders)  # componentwise minimum of the later vectors
    for dv, w in zip(reversed(pmi.vectors), reversed(pmi.witnesses)):
        if not 0 <= w < len(leaders):
            raise ValueError(f"PMI witness {w} for node {dv.node} is outside 0..{len(leaders) - 1}")
        if not dv.dist[w] < mins[w]:
            raise ValueError(f"PMI witness {w} for node {dv.node} does not hold")
        mins = list(map(min, mins, dv.dist))
    pairs = [(ell, v) for ell in leaders for v in nodes if ell != v]
    return pairs, dist


def addable_edge_upper_bound(g: Graph, leaders: Sequence[int], pmi: PMISequence) -> int:
    """Upper bound on how many complement edges any distance-preserving run can add.

    A missing edge is unusable when both endpoints lie on a common shortest
    path from a leader to a monitored node at depths two or more apart:
    adding it would create a shortcut on that path.
    """
    pairs, dist = _instance(g, leaders, pmi)
    return _upper_bound(g, dist, pairs)


def augment_intersection(
    g: Graph, leaders: Sequence[int], pmi: PMISequence
) -> AugmentationResult:
    """Densify by intersecting the per-pair chain solutions over all monitored pairs.

    Every edge kept belongs to the chain solution of each (leader, monitored
    node) pair, so all monitored distances survive and the PMI sequence stays
    valid. With no monitored pair (a one-element sequence holding the only
    leader) the result is the complete graph.
    """
    start = time.perf_counter()
    pairs, dist = _instance(g, leaders, pmi)
    keep = np.ones((g.n, g.n), dtype=bool)
    for ell, v in pairs:
        keep &= _chain_mask(_levels(dist[ell], dist[v], dist[ell][v]))
    edges_after = _edges(keep, np.arange(g.n))
    return AugmentationResult(
        algorithm="intersection",
        edges_before=g.edges,
        edges_after=edges_after,
        added=edges_after - g.edges,
        upper_bound_addable=_upper_bound(g, dist, pairs),
        pmi_length=len(pmi),
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def _value_bits(guard_bits: int, w: int) -> int:
    """The value bits of every ``w``-bit field whose guard bit is set in ``guard_bits``."""
    return guard_bits - (guard_bits >> (w - 1))


def augment_randomized(
    g: Graph,
    leaders: Sequence[int],
    pmi: PMISequence,
    seed: int = 0,
    repetitions: int = 1,
) -> AugmentationResult:
    """Densify by a seeded random scan over missing edges, best of ``repetitions``.

    The candidates are the missing node pairs, read row by row from a dense
    adjacency mask, which lists them in ``sorted(complement_edges(g))`` order.
    Each repetition shuffles them (stream ``default_rng([seed, repetition])``,
    so enlarging ``repetitions`` never changes earlier repetitions) and
    accepts an edge iff adding it to the accumulated graph keeps every
    monitored (leader, node) distance at its original value. The repetition
    that accepts the most edges wins; ties go to the earliest. The result
    equals a replay that re-runs BFS from every source after each tentative
    insertion; three facts make it cheaper:

    - Per monitored node ``v`` and node ``x``, the threshold
      ``need_v(x) = max_l(d(l, v) - d_l(x) - 1)`` over leaders ``l != v``
      makes edge ``(x, y)`` legal iff ``d_v(y) >= need_v(x)`` and
      ``d_v(x) >= need_v(y)`` for every monitored ``v``.
    - Distances only fall as edges are added, so an edge illegal on the input
      graph stays illegal. Every edge is tested once on the input graph and
      the illegal ones are dropped from each shuffled order.
    - Each node ``x`` packs its source distances into one int ``P[x]``, one
      ``w``-bit field per source with the field's top (guard) bit set, and
      its thresholds, clamped at 0, into a second int ``N[x]``. One
      subtraction then tests all monitored nodes at once: ``(x, y)`` is
      legal iff every guard bit survives ``P[y] - N[x]`` and ``P[x] - N[y]``.
      After an insertion, the guard bits that survive ``P[x] - P[y] - 2`` or
      ``P[y] - P[x] - 2`` name the sources whose endpoint distances differ
      by two or more; only those are relaxed by BFS. When leader ``l``'s
      distance to a node falls to ``d``, only the ``l`` term of its
      thresholds rises, so they become the field-wise maximum of the old
      ones and ``max(d(l, v) - 1 - d, 0)``.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    start = time.perf_counter()
    pairs, base_dist = _instance(g, leaders, pmi)
    # Source order: monitored non-leaders, monitored leaders, other leaders;
    # the first ``m`` sources are monitored and ``sources[lead:]`` are leaders.
    led = {ell for ell, _ in pairs}
    watched = {v for _, v in pairs}
    sources = sorted(watched - led) + sorted(watched & led) + sorted(led - watched)
    lead, m = len(watched - led), len(watched)
    # at[z, i] = d(sources[i], z); the reshape keeps n rows when nothing is monitored.
    at = np.array([base_dist[s] for s in sources], dtype=np.intp).reshape(len(sources), g.n).T
    # span[j, k] = d(l_k, v_j) - 1, which is -1 when leader k is monitored node j.
    span = at[sources[:m], lead:] - 1
    # need[z, j] = max(need_{v_j}(z), 0), one leader at a time to stay O(n * m).
    need = np.zeros((g.n, m), dtype=np.intp)
    for k in range(len(sources) - lead):
        np.maximum(need, span[:, k] - at[:, lead + k, None], out=need)
    lo, hi = _missing_pairs(g)
    base_legal = np.ones(lo.size, dtype=bool)
    for j in range(m):
        base_legal &= (at[hi, j] >= need[lo, j]) & (at[lo, j] >= need[hi, j])

    # Field i of a packed int spans bits [i*w, i*w + w): a value below
    # ``guard`` plus, for distances, the guard bit itself. Subtracting values
    # below ``guard`` field by field then never borrows across fields, and a
    # field's guard bit survives iff its difference is non-negative.
    w = (g.n + 1).bit_length() + 1
    guard = 1 << (w - 1)
    shifts = [i * w for i in range(len(sources))]
    guards = sum(guard << s for s in shifts)
    lift = guards - sum(2 << s for s in shifts)
    ones = sum(1 << s for s in shifts[:m])

    def pack(rows: list[list[int]]) -> list[int]:
        return [sum(map(lshift, row, shifts)) for row in rows]

    base_p = pack((at + guard).tolist())
    # The BFS reads and writes per-source distance lists, kept equal to the fields.
    base_cols = at.T.tolist()
    base_n = pack(need.tolist())
    # spans[k] - d * ones packs guard + span[j, k] - d per monitored node j.
    spans = pack((span.T + guard).tolist())

    best_added: list[Edge] = []
    for rep in range(repetitions):
        perm = np.random.default_rng([seed, rep]).permutation(lo.size)
        adj = [set(s) for s in g.adjacency]
        packed, need_at = list(base_p), list(base_n)  # P and N of the docstring
        dist = [list(col) for col in base_cols]
        added: list[Edge] = []
        order = perm[base_legal[perm]]
        for x, y in zip(lo[order].tolist(), hi[order].tolist()):
            px, py = packed[x], packed[y]
            if (py - need_at[x]) & (px - need_at[y]) & guards != guards:
                continue
            adj[x].add(y)
            adj[y].add(x)
            added.append((x, y))
            gap = px - py
            far = ((gap + lift) | (lift - gap)) & guards
            while far:
                top = far.bit_length()
                far ^= 1 << (top - 1)
                i = top // w - 1
                shift = shifts[i]
                di = dist[i]
                node, d = (x, di[y] + 1) if di[x] > di[y] else (y, di[x] + 1)
                packed[node] -= (di[node] - d) << shift
                di[node] = d
                queue = [node]
                for u in queue:
                    d = di[u] + 1
                    for v in adj[u]:
                        if d < di[v]:
                            packed[v] -= (di[v] - d) << shift
                            di[v] = d
                            queue.append(v)
                if i >= lead:
                    # Leader i came closer to the lowered nodes: raise their
                    # thresholds to the span column at the new distance.
                    col = spans[i - lead]
                    for z in queue:
                        over = col - di[z] * ones
                        rise = over & _value_bits(over & guards, w)
                        if rise:
                            keep = _value_bits(((need_at[z] | guards) - rise) & guards, w)
                            need_at[z] = rise ^ ((need_at[z] ^ rise) & keep)
        if len(added) > len(best_added):
            best_added = added
    edges_after = frozenset(g.edges | set(best_added))
    return AugmentationResult(
        algorithm="randomized",
        edges_before=g.edges,
        edges_after=edges_after,
        added=frozenset(best_added),
        upper_bound_addable=_upper_bound(g, base_dist, pairs),
        pmi_length=len(pmi),
        seed=seed,
        repetitions=repetitions,
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


def success_probability_bound(
    total_legal: int, optimal_size: int, ratio: float, repetitions: int
) -> float:
    """Probability that best-of-c random scans reach ``ratio`` times the optimum.

    Evaluates ``1 - exp(-c * (tau/T)^ceil(ratio*tau))`` with ``T`` individually
    legal edges and an optimal solution of size ``tau``. The exponent is
    rounded up to an integer, which can only lower the bound (conservative).
    Nondecreasing in ``repetitions``.
    """
    if total_legal < 1:
        raise ValueError(f"total_legal must be >= 1, got {total_legal}")
    if not (1 <= optimal_size <= total_legal):
        raise ValueError(
            f"optimal_size must satisfy 1 <= tau <= {total_legal}, got {optimal_size}"
        )
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if repetitions < 0:
        raise ValueError(f"repetitions must be >= 0, got {repetitions}")
    exponent = math.ceil(ratio * optimal_size - 1e-9)
    base = optimal_size / total_legal
    return 1.0 - math.exp(-repetitions * base**exponent)
