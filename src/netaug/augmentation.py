"""Maximal edge addition under distance-preservation constraints.

The single-pair solver builds a chain of cliques over BFS levels between the
pair, the shape of every optimum. It is maximal (any denser graph would
shorten the pair distance), though its level rule for nodes off the pair's
geodesics does not always reach the optimum. Two multi-pair algorithms lift
this to a whole set of monitored (leader, node) pairs taken from a PMI
sequence: one intersects the per-pair chain solutions, so an edge survives
iff its endpoints are at most one level apart for every monitored pair; the
other scans a shuffled complement edge list and keeps every edge whose
addition preserves all monitored distances, repeated best-of-c. Both
therefore keep the PMI sequence (and the controllability bound it certifies)
valid on the augmented graph, and neither adds more than ``T``, the missing
edges legal alone on the input graph.

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
from .graphs import (
    Edge,
    Graph,
    _checked_distances,
    _guard_dense,
    _integer,
    _missing_pairs,
)

__all__ = [
    "AugmentationResult",
    "classify_fixed_nodes",
    "level_partition",
    "build_clique_chain",
    "augment_pair",
    "augment_intersection",
    "augment_randomized",
    "addable_edge_upper_bound",
    "success_probability_bound",
]


@dataclass(frozen=True)
class AugmentationResult:
    """Edge set produced by an augmentation run, plus audit fields.

    ``upper_bound_addable`` is ``T``, the missing edges legal alone on the
    input graph (``addable_edge_upper_bound``), so ``len(added) <= T``;
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
    a, b = _integer(a, "node"), _integer(b, "node")
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


def _legal_alone(g: Graph, pairs: list[tuple[int, int]], dist: dict[int, np.ndarray]):
    """Mask of the missing pairs ``lo < hi`` (``sorted(complement_edges(g))``
    order) that keep every monitored distance when added alone; its sum is ``T``.

    Edge ``(x, y)`` is legal iff ``d_v(y) >= need_v(x)`` and ``d_v(x) >= need_v(y)``
    for every monitored ``v``, with ``need_v(x) = max_l(d(l, v) - d_l(x) - 1)``
    over leaders ``l != v``. Also returns the scan's tables over sources ordered
    monitored non-leaders, monitored leaders, other leaders: ``at[z, i] =
    d(source_i, z)``, ``span[j, k] = d(l_k, v_j) - 1`` and ``need`` clamped at 0.
    """
    led = {ell for ell, _ in pairs}
    watched = {v for _, v in pairs}
    sources = sorted(watched - led) + sorted(watched & led) + sorted(led - watched)
    lead, m = len(watched - led), len(watched)
    # The reshape keeps n rows when nothing is monitored.
    at = np.array([dist[s] for s in sources], dtype=np.intp).reshape(len(sources), g.n).T
    span = at[sources[:m], lead:] - 1  # -1 where leader k is monitored node j
    need = np.zeros((g.n, m), dtype=np.intp)  # one leader at a time: O(n * m)
    for k in range(len(sources) - lead):
        np.maximum(need, span[:, k] - at[:, lead + k, None], out=need)
    lo, hi = _missing_pairs(g)
    legal = np.ones(lo.size, dtype=bool)
    for j in range(m):
        legal &= (at[hi, j] >= need[lo, j]) & (at[lo, j] >= need[hi, j])
    return legal, lo, hi, at, span, need


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
        upper_bound_addable=int(_legal_alone(g, [(a, b)], {a: dist_a, b: dist_b})[0].sum()),
        runtime_ms=(time.perf_counter() - start) * 1000.0,
    )


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
    """``T``: the missing edges that keep every monitored (leader, PMI node)
    distance when added alone.

    An edge illegal alone stays illegal on every supergraph, since distances
    only fall, so no distance-preserving augmentation adds more than ``T``
    edges. It is the ``total_legal`` of ``success_probability_bound``.
    """
    pairs, dist = _instance(g, leaders, pmi)
    return int(_legal_alone(g, pairs, dist)[0].sum())


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
        upper_bound_addable=int(_legal_alone(g, pairs, dist)[0].sum()),
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
    insertion; two facts make it cheaper:

    - Distances only fall as edges are added, so an edge illegal alone on the
      input graph stays illegal: ``_legal_alone`` drops those from each
      shuffled order, and the rest are ``upper_bound_addable``.
    - Each node ``x`` packs its source distances into one int ``P[x]``, one
      ``w``-bit field per source with the field's top (guard) bit set, and
      its thresholds ``need_v(x)`` (see ``_legal_alone``), clamped at 0, into
      a second int ``N[x]``. One subtraction then tests all monitored nodes at
      once: ``(x, y)`` is legal iff every guard bit survives ``P[y] - N[x]``
      and ``P[x] - N[y]``.
      After an insertion, the guard bits that survive ``P[x] - P[y] - 2`` or
      ``P[y] - P[x] - 2`` name the sources whose endpoint distances differ
      by two or more; only those are relaxed by BFS. When leader ``l``'s
      distance to a node falls to ``d``, only the ``l`` term of its
      thresholds rises, so they become the field-wise maximum of the old
      ones and ``max(d(l, v) - 1 - d, 0)``.
    - Every test compares a distance with a small threshold, so each source
      keeps ``min(d, cap)``: a monitored node's cap is its largest possible
      threshold ``max_l d(l, v) - 1``, a leader's the largest monitored
      distance less one, past which its thresholds stay 0 (a monitored
      leader takes the larger). ``t = min(d, cap)`` obeys ``t(z) = min(cap,
      min over neighbours u of t(u) + 1)``, so the same relaxation keeps it
      exact. The fields are sized from the largest cap, not from n, and a
      node lowered to ``cap - 1`` or more lowers no neighbour, so its walk
      is skipped; the adjacency sets are built, and brought up to date with
      the accepted edges, only when a walk needs them.

    ``seed`` and ``repetitions`` must be integers, ``repetitions`` >= 1
    (``ValueError`` otherwise).
    """
    seed, repetitions = _integer(seed, "seed"), _integer(repetitions, "repetitions", 1)
    start = time.perf_counter()
    pairs, base_dist = _instance(g, leaders, pmi)
    base_legal, lo, hi, at, span, need = _legal_alone(g, pairs, base_dist)
    m, lead = need.shape[1], at.shape[1] - span.shape[1]

    # The scan keeps min(d, cap) per source: no test tells apart distances
    # at or above the cap. Monitored node j: need_j <= max_k span[j, k].
    # Leader k: span[j, k] - d is <= 0 once d >= max_j span[j, k].
    cap = np.zeros(at.shape[1], dtype=np.intp)
    cap[:m] = span.max(axis=1, initial=0)
    cap[lead:] = np.maximum(cap[lead:], span.max(axis=0, initial=0))
    at = np.minimum(at, cap)
    caps = cap.tolist()

    # Field i of a packed int spans bits [i*w, i*w + w): a value below
    # ``guard`` plus, for distances, the guard bit itself. With ``cap`` the
    # largest cap, distances and thresholds lie in [0, cap] and spans in
    # [-1, cap], so guard + d - need, guard + need - rise and guard + span - d
    # lie in [guard - cap - 1, guard + cap], and guard +- (d_x - d_y) - 2 in
    # [guard - cap - 2, guard + cap - 2]. The narrowest w with guard >= cap + 2
    # keeps all of them in [0, 2 * guard): subtracting never borrows across
    # fields, and a field's guard bit survives iff its difference is >= 0.
    w = (max(caps, default=0) + 1).bit_length() + 1
    guard = 1 << (w - 1)
    shifts = [i * w for i in range(at.shape[1])]
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
        packed, need_at = list(base_p), list(base_n)  # P and N of the docstring
        dist = [list(col) for col in base_cols]
        added: list[Edge] = []
        adj, synced = None, 0  # built on the first walk, then kept up to added[:synced]
        order = perm[base_legal[perm]]
        for x, y in zip(lo[order].tolist(), hi[order].tolist()):
            px, py = packed[x], packed[y]
            if (py - need_at[x]) & (px - need_at[y]) & guards != guards:
                continue
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
                if d + 1 < caps[i]:
                    # Only a node below cap - 1 can lower a neighbour.
                    if adj is None:
                        adj = [set(s) for s in g.adjacency]
                    for u, v in added[synced:]:
                        adj[u].add(v)
                        adj[v].add(u)
                    synced = len(added)
                    for u in queue:
                        d = di[u] + 1
                        if d >= caps[i]:
                            break  # the queue is in BFS order
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
        upper_bound_addable=int(base_legal.sum()),
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
    legal edges (an augmenter's ``upper_bound_addable``) and an optimal
    solution of size ``tau``. The exponent is
    rounded up to an integer, which can only lower the bound (conservative).
    Nondecreasing in ``repetitions``. The three counts must be integers
    (``ValueError`` for a bool or a fraction).
    """
    total_legal = _integer(total_legal, "total_legal", 1)
    optimal_size = _integer(optimal_size, "optimal_size")
    repetitions = _integer(repetitions, "repetitions", 0)
    if not (1 <= optimal_size <= total_legal):
        raise ValueError(
            f"optimal_size must satisfy 1 <= tau <= {total_legal}, got {optimal_size}"
        )
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    exponent = math.ceil(ratio * optimal_size - 1e-9)
    base = optimal_size / total_legal
    return 1.0 - math.exp(-repetitions * base**exponent)
