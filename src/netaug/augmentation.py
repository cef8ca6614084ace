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

Everything here reads two int tables: ``at``, BFS distances from the pair's
ends or from each PMI node and leader, checked once as they are computed
(``DisconnectedGraphError`` names a node some source cannot reach), and
``floor``, the distance each (leader, monitored node) pair must keep.
``level_partition`` returns one pair's levels as a tuple of node tuples;
``augment_pair`` returns the clique chain over them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain
from numbers import Real
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
            "added_edges": _sorted_pairs(self.added).tolist(),
            "upper_bound": self.upper_bound_addable,
            "pmi_length": self.pmi_length,
            "runtime_ms": self.runtime_ms if include_runtime else 0.0,
        }


def _sorted_pairs(edges: frozenset[Edge]) -> np.ndarray:
    """The int pairs of ``edges`` as a (k, 2) int array in sorted order. The
    augmenters' node ids are below ``DENSE_NODE_GUARD``, so one int64 key
    ``u << 32 | v`` per pair sorts in pair order."""
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges))
    pairs = flat.reshape(-1, 2)
    return pairs[np.argsort(pairs[:, 0] << 32 | pairs[:, 1])]


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
    Broadcasts: ``k`` may hold one pair distance per column of the distances.
    """
    near_b = np.where(dist_b <= (k - 1) // 2, k - dist_b, np.maximum(k // 2, 1))
    return np.where(dist_a <= k // 2, dist_a, near_b)


def level_partition(g: Graph, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Split all nodes into the k+1 levels whose clique chain ``augment_pair``
    returns, level 0 being ``(a,)``; every node must be reachable from the pair.

    Geodesic nodes sit at their distance from ``a``; an off-geodesic node
    keeps its distance from whichever endpoint is within the near half,
    and falls to the middle level ``k // 2`` otherwise.
    """
    dist_a, dist_b, k = _pair_distances(g, a, b)
    levels: list[list[int]] = [[] for _ in range(k + 1)]
    for v, level in enumerate(_levels(dist_a, dist_b, k).tolist()):
        levels[level].append(v)
    return tuple(map(tuple, levels))


#: Rows x of the n x n pair masks one packed pass tests at once; its two uint64
#: buffers hold ``_BLOCK_ROWS`` x n words.
_BLOCK_ROWS = 128


def _packed_at_least(top: np.ndarray, low: np.ndarray) -> np.ndarray:
    """n x n mask whose ``[x, y]`` is True iff ``top[y, i] >= low[x, i]`` for every
    column ``i`` of the two (n, c) tables of non-negative ints.

    The scan's guard-bit test, one 64-bit word per ``64 // w`` columns: field ``i``
    spans bits ``[i*w, i*w + w)``, and ``G = 2**(w - 1)`` exceeds every entry. Node
    y packs ``G + top`` per field, node x packs ``low``; every field of the
    difference then lies in [0, 2G), so nothing borrows across fields and a field
    keeps its guard bit iff ``top >= low`` there. Padding fields read ``G - 0``,
    which passes. The words' differences are ANDed and their guard bits tested
    once, ``_BLOCK_ROWS`` rows x at a time."""
    n, c = top.shape
    w = int(max(top.max(initial=0), low.max(initial=0))).bit_length() + 1
    fields = 64 // w
    words = max(1, -(-c // fields))
    # Fields never overlap, so a product with 2**(i*w) per field sums without carries.
    weights = np.uint64(1) << np.arange(0, fields * w, w, dtype=np.uint64)
    guards = np.uint64(sum(1 << (i + w - 1) for i in range(0, fields * w, w)))

    def pack(table: np.ndarray) -> np.ndarray:
        """(words, n): column ``i * words + j`` of ``table`` in field i of word j."""
        cells = np.zeros((n, fields * words), dtype=np.uint64)
        cells[:, :c] = table
        return np.ascontiguousarray((weights @ cells.reshape(n, fields, words)).T)

    top_words, low_words = pack(top) | guards, pack(low)
    ok = np.empty((n, n), dtype=bool)
    acc = np.empty((min(n, _BLOCK_ROWS), n), dtype=np.uint64)
    diff = np.empty_like(acc)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block, scratch = acc[: stop - start], diff[: stop - start]
        np.subtract(top_words[0], low_words[0, start:stop, None], out=block)
        for t, lo in zip(top_words[1:], low_words[1:]):
            block &= np.subtract(t, lo[start:stop, None], out=scratch)
        block &= guards
        np.equal(block, guards, out=ok[start:stop])
    return ok


def _legal_alone(missing: np.ndarray, at: np.ndarray, floor: np.ndarray):
    """Narrow ``missing``, an n x n mask of candidate pairs ``x < y`` such as
    ``_missing_pairs``, in place to those that keep every monitored distance
    of the ``_instance`` tables when added alone; its sum is then ``T``.
    Edge ``(x, y)`` is legal iff ``d_v(y) >= need_v(x)`` and ``d_v(x) >=
    need_v(y)`` for every monitored ``v``, with ``need_v(x) = max_l(d(l, v) -
    d_l(x) - 1)`` over the leaders, clamped at 0 (a floor of 0 adds nothing).
    One packed pass (``_packed_at_least``) fills an n x n mask ``ok[x, y]``
    with the first half for every node pair, distances capped at the largest
    threshold, so the cost is O(n^2 * monitored / fields per word) whatever
    the number of missing pairs. Returns ``missing`` and ``need``."""
    lead = at.shape[1] - floor.shape[1]
    need = np.zeros((at.shape[0], floor.shape[0]), dtype=np.intp)  # one leader at a time: O(n * m)
    for k in range(floor.shape[1]):
        np.maximum(need, floor[:, k] - 1 - at[:, lead + k, None], out=need)
    # No test tells apart distances at or above the largest threshold.
    ok = _packed_at_least(np.minimum(at[:, : need.shape[1]], need.max(initial=0)), need)
    missing &= ok
    missing &= ok.T
    return missing, need


def _result(
    algorithm: str, g: Graph, added, legal: np.ndarray, start: float, **audit
) -> AugmentationResult:
    """The ``AugmentationResult`` of adding the edges ``added`` to ``g``;
    ``legal`` marks the missing pairs legal alone (its sum is ``T``) and
    ``start`` is the run's start time."""
    added = frozenset(added)
    return AugmentationResult(
        algorithm=algorithm,
        edges_before=g.edges,
        edges_after=g.edges | added,
        added=added,
        upper_bound_addable=int(legal.sum()),
        runtime_ms=(time.perf_counter() - start) * 1000.0,
        **audit,
    )


def _chain(missing: np.ndarray, at: np.ndarray, floor: np.ndarray):
    """The missing pairs in the clique chain (ends at most one level apart) of
    every (leader, monitored node) pair with a nonzero floor, tested among the
    pairs legal alone, which hold every chain edge; and ``missing`` once
    ``_legal_alone`` has narrowed it to those pairs.

    The legal mask is ANDed, into a new mask, with one packed pass
    (``_packed_at_least``) over the levels of every pair at once: ``ok[x, y]``
    holds iff ``level(y) + 1 >= level(x)`` for every pair, so ``ok & ok.T``
    holds iff no pair puts x and y more than one level apart. The levels are
    int16 (n x pairs). The surviving pairs come out of ``np.nonzero`` in
    row-major u < v order."""
    legal, _ = _legal_alone(missing, at, floor)
    lead = at.shape[1] - floor.shape[1]
    # Distances are below n <= DENSE_NODE_GUARD, so int16 holds them and the levels.
    dist, j, k = at.astype(np.int16), *np.nonzero(floor)
    level = _levels(dist[:, lead + k], dist[:, j], floor[j, k].astype(np.int16))
    ok = _packed_at_least(level + 1, level)
    keep = legal & ok
    keep &= ok.T
    lo, hi = np.nonzero(keep)
    return zip(lo.tolist(), hi.tolist()), legal


def augment_pair(g: Graph, a: int, b: int) -> AugmentationResult:
    """Maximal edge addition preserving the distance between one node pair.

    The answer is the chain of cliques over the level partition, which is the
    complete graph for an adjacent pair; every node must be reachable from
    the pair. Runs in O(n^2) time and memory, so ``n <= DENSE_NODE_GUARD``.
    """
    start = time.perf_counter()
    dist_a, dist_b, k = _pair_distances(g, a, b)
    at, floor = np.column_stack((dist_b, dist_a)), np.array([[k]])  # monitored b, leader a
    return _result("clique-chain", g, *_chain(_missing_pairs(g), at, floor), start)


def _instance(g: Graph, leaders: Sequence[int], pmi: PMISequence) -> tuple[np.ndarray, np.ndarray]:
    """Match each vector of the PMI sequence, which checked its own witnesses,
    against its node's leader distances, once per augmenter call.

    Returns ``at[z, i] = d(s_i, z)`` over the sources ordered monitored (PMI)
    non-leaders, monitored leaders, other leaders, and ``floor[j, k] = d(l_k,
    v_j)`` for monitored node ``v_j = s_j`` and leader ``l_k`` (one of the last
    columns). Every caller holds node pairs in O(n^2) memory, so the graph
    must have at most ``DENSE_NODE_GUARD`` nodes.
    """
    _guard_dense(g.n, "edge augmentation")
    leaders = _check_leaders(g.n, leaders)
    nodes, led = set(pmi.nodes()), set(leaders)
    sources = sorted(nodes - led) + sorted(nodes & led) + sorted(led - nodes)
    # bfs_distances rejects out-of-range nodes; PMISequence rejects a repeated
    # node, whose two equal vectors admit no witness.
    at = _checked_distances(g, sources).T
    by_leader = at[:, [sources.index(ell) for ell in leaders]]
    for node, dist in zip(pmi.nodes(), pmi.raw_vectors()):
        actual = tuple(by_leader[node].tolist())
        if dist != actual:
            raise ValueError(f"PMI vector for node {node} does not match the graph: {dist} vs {actual}")
    return at, at[sources[: len(nodes)], len(sources) - len(led):]


def addable_edge_upper_bound(g: Graph, leaders: Sequence[int], pmi: PMISequence) -> int:
    """``T``: the missing edges that keep every monitored (leader, PMI node)
    distance when added alone.

    An edge illegal alone stays illegal on every supergraph, since distances
    only fall, so no distance-preserving augmentation adds more than ``T``
    edges. It is the ``total_legal`` of ``success_probability_bound``.
    """
    at, floor = _instance(g, leaders, pmi)
    return int(_legal_alone(_missing_pairs(g), at, floor)[0].sum())


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
    at, floor = _instance(g, leaders, pmi)
    added, legal = _chain(_missing_pairs(g), at, floor)
    return _result("intersection", g, added, legal, start, pmi_length=len(pmi))


def _inert(at: np.ndarray, floor: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """n x n mask of the pairs of the ``_legal_alone`` mask ``legal`` that keep
    every monitored distance in every graph the scan can reach.

    Every such graph H lies between G and G*, G plus every pair legal alone,
    so ``lb(a, b)``, 0 if a = b, 1 if a and b are adjacent in G* and 2
    otherwise, never exceeds ``d_H(a, b)``. A pair that passes
    ``_legal_alone``'s test with ``lb`` in place of the distances is
    therefore legal in every H, G included, so it is in ``legal``. The ``lb``
    sums ``lb(l, x) + 1 + lb(y, v)`` reach at most 5, so a floor above 5
    leaves no such pair and the pass is skipped."""
    if floor.max(initial=0) > 5:
        return np.zeros_like(legal)
    sources = at.argmin(axis=0)  # the node at distance 0 in each column
    lb = np.minimum(at, 2 - (legal[:, sources] | legal[sources].T))
    return _legal_alone(legal.copy(), lb, floor)[0]


def _scan(g: Graph, at: np.ndarray, floor: np.ndarray, need: np.ndarray, orders):
    """Per order, two int lists ``x, y`` of missing pairs, yield the pairs
    ``(x, y)`` that keep every monitored distance of ``at`` and ``floor`` when
    added to ``g`` grown by the order so far. Each order starts from ``g``; the
    tables, ``need`` from ``_legal_alone`` included, are packed once per call.
    This equals a BFS replay after each insertion; two facts make it cheaper:

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
    """
    span = floor - 1  # -1 where leader k is monitored node j
    m, lead = need.shape[1], at.shape[1] - floor.shape[1]

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

    def value_bits(guard_bits: int) -> int:
        """The value bits of every field whose guard bit is set in ``guard_bits``."""
        return guard_bits - (guard_bits >> (w - 1))

    base_p = pack((at + guard).tolist())
    # The BFS reads and writes per-source distance lists, kept equal to the fields.
    base_cols = at.T.tolist()
    base_n = pack(need.tolist())
    # spans[k] - d * ones packs guard + span[j, k] - d per monitored node j.
    spans = pack((span.T + guard).tolist())

    for xs, ys in orders:
        packed, need_at = list(base_p), list(base_n)  # P and N of the docstring
        dist = [list(col) for col in base_cols]
        added: list[Edge] = []
        adj, synced = None, 0  # built on the first walk, then kept up to added[:synced]
        for x, y in zip(xs, ys):
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
                        adj = list(map(set, g._neighbours))
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
                        rise = over & value_bits(over & guards)
                        if rise:
                            keep = value_bits(((need_at[z] | guards) - rise) & guards)
                            need_at[z] = rise ^ ((need_at[z] ^ rise) & keep)
        yield added


def augment_randomized(
    g: Graph,
    leaders: Sequence[int],
    pmi: PMISequence,
    seed: int = 0,
    repetitions: int = 1,
) -> AugmentationResult:
    """Densify by a seeded random scan over missing edges, best of ``repetitions``.

    The candidates are the missing node pairs, read row by row from a dense
    adjacency mask, which lists them in row-major u < v order.
    Each repetition shuffles them (stream ``default_rng([seed, repetition])``,
    so enlarging ``repetitions`` never changes earlier repetitions) and
    accepts an edge iff adding it to the accumulated graph keeps every
    monitored (leader, node) distance at its original value (``_scan``). The
    repetition that accepts the most edges wins; ties go to the earliest.
    Two kinds of pair are never tested:

    - Distances only fall as edges are added, so an edge illegal alone on the
      input graph stays illegal: ``_legal_alone`` drops those from each
      shuffled order, and the rest are ``upper_bound_addable``.
    - Every repetition accepts the pairs ``_inert`` marks, and they change no
      other decision: a candidate is legal in a graph H iff it is legal in H
      plus such a pair, which stays legal once the candidate is added, as
      distances only fall. The repetitions scan the other pairs, in the same
      shuffled order, and the winner's result adds these back, so the
      winner, its edges and ``T`` are those of the full scan.

    ``seed`` must be an integer >= 0, ``repetitions`` one >= 1 (``ValueError`` otherwise).
    """
    seed, repetitions = _integer(seed, "seed", 0), _integer(repetitions, "repetitions", 1)
    start = time.perf_counter()
    at, floor = _instance(g, leaders, pmi)
    legal = _missing_pairs(g)  # narrowed in place by _legal_alone
    lo, hi = np.nonzero(legal)  # the scan's candidates, row-major u < v
    legal, need = _legal_alone(legal, at, floor)
    inert = _inert(at, floor, legal)
    legal, inert = legal[lo, hi], inert[lo, hi]  # the n x n masks die here; legal sums to T
    tested = legal & ~inert

    def order(rep: int) -> tuple[list[int], list[int]]:
        perm = np.random.default_rng([seed, rep]).permutation(lo.size)
        keep = perm[tested[perm]]
        return lo[keep].tolist(), hi[keep].tolist()

    best = max(_scan(g, at, floor, need, map(order, range(repetitions))), key=len)
    added = chain(best, zip(lo[inert].tolist(), hi[inert].tolist()))
    return _result(
        "randomized", g, added, legal, start,
        pmi_length=len(pmi), seed=seed, repetitions=repetitions,
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
    (``ValueError`` for a bool or a fraction) and ``ratio`` a real number
    (``ValueError`` for a bool or a string).
    """
    total_legal = _integer(total_legal, "total_legal", 1)
    optimal_size = _integer(optimal_size, "optimal_size")
    repetitions = _integer(repetitions, "repetitions", 0)
    if not (1 <= optimal_size <= total_legal):
        raise ValueError(
            f"optimal_size must satisfy 1 <= tau <= {total_legal}, got {optimal_size}"
        )
    if isinstance(ratio, bool) or not isinstance(ratio, Real):
        raise ValueError(f"ratio must be a real number, got {ratio!r}")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    exponent = math.ceil(ratio * optimal_size - 1e-9)
    base = optimal_size / total_legal
    return 1.0 - math.exp(-repetitions * base**exponent)
