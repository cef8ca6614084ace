"""Shared test utilities: seeded graph factories and independent oracles.

The oracles here deliberately take different routes than the library code
(forward enumeration vs backward memo search, per-pick rescans vs one
sorted pass, per-coordinate scans vs suffix minima, a MILP optimum vs clique
chains and greedy scans, pseudo-inverse resistances vs eigenvalue sums,
rational elimination vs modular Krylov blocks, Python pair lists and
``rng.choice`` vs array draws, frontier sets over edge lists vs cached
neighbour lists, a per-edge check vs bulk masks over all edges, one compare
per monitored node or pair vs packed guard-bit words) so they can catch bugs
in the implementations they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from netaug import (
    DistanceVector,
    EdgeListParseError,
    GenSpec,
    Graph,
    PMISequence,
    bfs_distances,
    erdos_renyi,
    is_connected,
)
from netaug.augmentation import _levels
from netaug.graphs import _integer


def reference_erdos_renyi(spec: GenSpec) -> Graph:
    """G(n, p) by a Python list of all pairs, u < v row by row, zipped with
    one ``rng.random`` draw each."""
    rng = np.random.default_rng(spec.seed)
    pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    draws = rng.random(len(pairs))
    return Graph(spec.n, [e for e, x in zip(pairs, draws) if x < spec.p])


def reference_barabasi_albert(spec: GenSpec) -> Graph:
    """Preferential attachment with ``rng.choice`` doing each weighted pick,
    and ``rng.integers`` over the unchosen nodes while all weights are zero."""
    gamma = spec.gamma
    rng = np.random.default_rng(spec.seed)
    edges = [(u, v) for u in range(gamma) for v in range(u + 1, gamma)]
    degree = np.zeros(spec.n, dtype=float)
    degree[:gamma] = gamma - 1
    for new in range(gamma, spec.n):
        targets: set[int] = set()
        while len(targets) < gamma:
            weights = degree[:new].copy()
            for t in targets:
                weights[t] = 0.0
            total = weights.sum()
            if total == 0.0:
                candidates = [u for u in range(new) if u not in targets]
                chosen = candidates[int(rng.integers(0, len(candidates)))]
            else:
                chosen = int(rng.choice(new, p=weights / total))
            targets.add(chosen)
        for t in sorted(targets):
            edges.append((t, new))
            degree[t] += 1
        degree[new] = gamma
    return Graph(spec.n, edges)


def reference_graph_edges(n: int, edges) -> frozenset:
    """The edge set ``Graph(n, edges)`` stores, by one check per edge in list
    order: unpack the pair, check each endpoint's type, then its range, then
    the self-loop. The first bad edge raises what ``Graph`` must raise. ``n``
    must be a valid node count."""
    edge_set = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            u, v = _integer(u, "edge endpoint"), _integer(v, "edge endpoint")
        if 0 <= u < v < n:
            edge_set.add((u, v))
        elif 0 <= v < u < n:
            edge_set.add((v, u))
        elif 0 <= u < n and 0 <= v < n:
            raise ValueError(f"self-loop on node {u} is not allowed")
        else:
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    return frozenset(edge_set)


def reference_edge_list(text: str) -> tuple[int, frozenset]:
    """``(n, edges)`` of an edge-list body by one check per line, in line order:
    token count, tokens, self-loop, range; the first bad line raises what
    ``parse_edge_list`` must raise. The header must be valid."""
    lines = text.splitlines()
    n, edges = int(lines[0].split()[1]), set()
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(i, f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(i, f"malformed token in {line!r}") from None
        if u == v:
            raise EdgeListParseError(i, f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(i, f"node id out of range for n={n}: {line!r}")
        edges.add((min(u, v), max(u, v)))
    return n, frozenset(edges)


def complement_edges(g: Graph) -> set[tuple[int, int]]:
    """All node pairs ``(u, v)``, ``u < v``, absent from the graph, by a
    Python scan over every pair."""
    return {(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges}


def with_edges(g: Graph, extra) -> Graph:
    """``g`` with the ``extra`` edges added, built as a new graph."""
    return Graph(g.n, chain(g.edges, extra))


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """First connected G(n, p) draw from the seeded stream."""
    for attempt in range(1000):
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=n, p=p, seed=seed + 7919 * attempt))
        if is_connected(g):
            return g
    raise AssertionError(f"no connected sample for n={n}, p={p}")


def all_pairs_min_plus(g: Graph) -> np.ndarray:
    """All-pairs hop distances by repeated (min, +) matrix squaring."""
    big = 10 * g.n
    dist = np.full((g.n, g.n), big)
    np.fill_diagonal(dist, 0)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1
    for _ in range(int(np.ceil(np.log2(max(g.n, 2))))):
        dist = np.min(dist[:, :, None] + dist[None, :, :], axis=1)
    return dist


def bfs_oracle(g: Graph, sources) -> dict[int, list]:
    """Hop distances from each source (``None`` where unreachable), expanding
    whole frontier sets over neighbour lists built here from ``g.edges``, so
    neither ``g._neighbours`` nor ``bfs_distances`` is read."""
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    out = {}
    for source in sources:
        dist: list = [None] * g.n
        frontier, depth = {source}, 0
        while frontier:
            for u in frontier:
                dist[u] = depth
            frontier = {w for u in frontier for w in neighbours[u] if dist[w] is None}
            depth += 1
        out[source] = dist
    return out


def legal_alone_oracle(g: Graph, pairs) -> int:
    """Missing edges that keep every (a, b) distance in ``pairs`` when added
    alone, by adding each one and recomputing all (min, +) distances."""
    before = all_pairs_min_plus(g)
    legal = 0
    for edge in sorted(complement_edges(g)):
        after = all_pairs_min_plus(with_edges(g, [edge]))
        legal += all(after[a, b] == before[a, b] for a, b in pairs)
    return legal


def reference_legal_alone(g: Graph, at: np.ndarray, floor: np.ndarray):
    """``augmentation._legal_alone`` by one n x n compare per monitored node:
    ``ok[x, y]`` iff ``d_v(y) >= need_v(x)`` for every monitored ``v``. Returns
    ``legal, need`` on the same ``_instance``-shaped tables, ``legal`` the n x n
    mask of the missing pairs ``x < y`` with ``ok[x, y]`` and ``ok[y, x]``."""
    lead = at.shape[1] - floor.shape[1]
    need = np.zeros((g.n, floor.shape[0]), dtype=np.intp)
    for k in range(floor.shape[1]):
        np.maximum(need, floor[:, k] - 1 - at[:, lead + k, None], out=need)
    ok = np.ones((g.n, g.n), dtype=bool)
    for d, row in zip(at[:, : need.shape[1]].T, need.T):
        ok &= d[None, :] >= row[:, None]
    legal = np.zeros((g.n, g.n), dtype=bool)
    for u, v in complement_edges(g):
        legal[u, v] = ok[u, v] and ok[v, u]
    return legal, need


def reference_chain(g: Graph, at: np.ndarray, floor: np.ndarray) -> list:
    """``augmentation._chain``'s edges, in order, by one level-gap mask per
    (leader, monitored node) pair with a nonzero floor, ANDed into the pairs
    legal alone (``reference_legal_alone``)."""
    keep, _ = reference_legal_alone(g, at, floor)
    lead = at.shape[1] - floor.shape[1]
    for j, k in zip(*np.nonzero(floor)):
        level = _levels(at[:, lead + k], at[:, j], floor[j, k])
        keep &= np.abs(level[:, None] - level[None, :]) <= 1
    return list(zip(*(side.tolist() for side in np.nonzero(keep))))


def shortcut_legal_oracle(g: Graph, pairs) -> int:
    """``legal_alone_oracle`` for graphs too large to recompute per edge. A
    shortest path uses the new edge (x, y) at most once, so the distance
    becomes ``min(d(a, b), d(a, x) + 1 + d(y, b), d(a, y) + 1 + d(x, b))``;
    it is read per pair for every missing edge at once from ``bfs_oracle``
    distances. The graph must be connected."""
    x, y = np.array(sorted(complement_edges(g)), dtype=np.int64).reshape(-1, 2).T
    dist = {
        s: np.array(d, dtype=np.int64)
        for s, d in bfs_oracle(g, {node for pair in pairs for node in pair}).items()
    }
    legal = np.ones(x.size, dtype=bool)
    for a, b in pairs:
        da, db = dist[a], dist[b]
        legal &= np.minimum(da[x] + db[y], da[y] + db[x]) + 1 >= da[b]
    return int(legal.sum())


def intersection_oracle(g: Graph, pairs) -> frozenset:
    """Edges common to the clique chains of all ``pairs``, by scalar level
    arithmetic on (min, +) distances. For a pair (a, b) at distance k >= 2 a
    geodesic node sits at its depth from a, another node at its depth from a
    if that is at most k // 2, else at k minus its depth from b if that is at
    most (k - 1) // 2, else at k // 2. A node pair survives when every pair puts
    its ends at most one level apart; a pair at distance 1 constrains nothing."""
    dist = all_pairs_min_plus(g).tolist()
    levels = []
    for a, b in pairs:
        k = dist[a][b]
        if k < 2:
            continue
        level = []
        for v in range(g.n):
            da, db = dist[a][v], dist[b][v]
            if da + db == k or da <= k // 2:
                level.append(da)
            elif db <= (k - 1) // 2:
                level.append(k - db)
            else:
                level.append(k // 2)
        levels.append(level)
    return frozenset(
        (u, w)
        for u in range(g.n)
        for w in range(u + 1, g.n)
        if all(abs(level[u] - level[w]) <= 1 for level in levels)
    )


@dataclass(frozen=True)
class PMICheck:
    """Outcome of a PMI test: witnesses on success, an offending pair otherwise."""

    ok: bool
    witnesses: tuple[int, ...] | None = None
    violation: tuple[int, int] | None = None


def is_pmi_oracle(vectors) -> PMICheck:
    """PMI check by scalar scans: position i's witness is the smallest
    coordinate on which every later vector is strictly larger; the first
    position without one fails, blocked by the earliest later index that is
    no larger on some coordinate."""
    vecs = [tuple(v) for v in vectors]
    m = len(vecs[0]) if vecs else 0
    witnesses = []
    for i, v in enumerate(vecs):
        later = range(i + 1, len(vecs))
        alpha = next((a for a in range(m) if all(vecs[j][a] > v[a] for j in later)), None)
        if alpha is None:
            blockers = [next(j for j in later if vecs[j][a] <= v[a]) for a in range(m)]
            return PMICheck(ok=False, violation=(i, min(blockers, default=i + 1)))
        witnesses.append(alpha)
    return PMICheck(ok=True, witnesses=tuple(witnesses))


def greedy_pmi_oracle(g: Graph, leaders) -> PMISequence:
    """The greedy PMI rule by rescanning: at every pick, take the unused
    vector that exceeds every threshold with the smallest (entry, coordinate,
    node) key, then raise that coordinate's threshold to the entry."""
    dist = all_pairs_min_plus(g)
    rep: dict = {}
    for v in range(g.n):
        rep.setdefault(tuple(int(dist[ell, v]) for ell in leaders), v)
    thresholds = [-1] * len(leaders)
    chosen, witnesses = [], []
    while True:
        eligible = [
            (min(vec), vec.index(min(vec)), node, vec)
            for vec, node in rep.items()
            if all(x > t for x, t in zip(vec, thresholds))
        ]
        if not eligible:
            return PMISequence(tuple(chosen), tuple(witnesses))
        value, alpha, node, vec = min(eligible)
        thresholds[alpha] = value
        del rep[vec]
        chosen.append(DistanceVector(node, vec))
        witnesses.append(alpha)


def brute_pmi_length(vectors) -> int:
    """Longest PMI run by forward extension over all orderings of all subsets."""
    distinct = sorted(set(tuple(v) for v in vectors))
    best = 0

    def extend(seq: list, remaining: list):
        nonlocal best
        best = max(best, len(seq))
        for i, vec in enumerate(remaining):
            if is_pmi_oracle(seq + [vec]).ok:
                extend(seq + [vec], remaining[:i] + remaining[i + 1 :])

    extend([], distinct)
    return best


def full_subset_pair_optimum(g: Graph, a: int, b: int) -> int:
    """Max |E'| preserving d(a, b), by scanning every complement subset."""
    comp = sorted(complement_edges(g))
    assert len(comp) <= 14, "full-subset oracle is for tiny instances"
    k = bfs_distances(g, a)[b]
    best = g.num_edges()
    for mask in range(1 << len(comp)):
        extra = [comp[i] for i in range(len(comp)) if mask >> i & 1]
        if g.num_edges() + len(extra) <= best:
            continue
        h = with_edges(g, extra)
        if bfs_distances(h, a)[b] == k:
            best = g.num_edges() + len(extra)
    return best


def optimum_oracle(g: Graph, pairs) -> tuple[int, frozenset]:
    """Most missing edges that keep every (leader, node) distance in ``pairs``,
    by a MILP solved to optimality: ``(size, added_edges)``.

    One binary z_e per missing edge and one integer potential phi per leader l,
    with ``0 <= phi(v) <= d_G(l, v)``, ``phi(l) = 0`` and ``phi(v) >= d_G(l, v)``
    for each of l's nodes v. ``|phi(x) - phi(y)| <= 1`` holds on the edges of G,
    and on a missing edge once z_e = 1. A feasible phi bounds every path from l
    to v in the augmented graph H below by phi(v), and ``d_H(l, .)`` is itself a
    feasible phi, so the optimum keeps the distances. The answer is re-checked
    by (min, +) distances.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = g.n
    missing = [(u, w) for u in range(n) for w in range(u + 1, n) if (u, w) not in g.edges]
    before = all_pairs_min_plus(g)
    leaders = sorted({ell for ell, _ in pairs})
    lower = np.zeros(len(missing) + n * len(leaders))
    upper = np.concatenate([np.ones(len(missing))] + [before[ell] for ell in leaders])
    for ell, v in pairs:
        lower[len(missing) + n * leaders.index(ell) + v] = before[ell, v]
    rows, caps = [], []
    for k in range(len(leaders)):
        phi = len(missing) + n * k
        for z, (x, y) in [(None, e) for e in sorted(g.edges)] + list(enumerate(missing)):
            for s, t in ((phi + x, phi + y), (phi + y, phi + x)):
                excess = upper[s] - lower[t] - 1  # how far phi_s - phi_t can pass 1
                if excess > 0:
                    row = np.zeros(lower.size)
                    row[s], row[t], cap = 1, -1, 1
                    if z is not None:  # phi_s - phi_t <= 1 + excess * (1 - z)
                        row[z] = excess
                        cap += excess
                    rows.append(row)
                    caps.append(cap)
    cost = np.concatenate([-np.ones(len(missing)), np.zeros(n * len(leaders))])
    constraints = [LinearConstraint(np.array(rows), -np.inf, caps)] if rows else []
    res = milp(cost, constraints=constraints, integrality=np.ones(cost.size),
               bounds=Bounds(lower, upper), options={"mip_rel_gap": 0})
    assert res.status == 0, f"MILP did not end optimal: {res.message}"
    added = frozenset(e for e, z in zip(missing, res.x) if z > 0.5)
    after = all_pairs_min_plus(with_edges(g, added))
    assert all(after[ell, v] == before[ell, v] for ell, v in pairs)
    assert len(added) == round(-res.fun)
    return len(added), added


def reference_scan(g: Graph, leaders, pmi, order) -> list:
    """The pairs of ``order``, a list of missing pairs, that a scan from ``g``
    accepts, in order: each pair is added tentatively and kept iff full BFS
    from every leader still gives every monitored (leader, PMI node)
    distance of ``g``."""
    pairs = [(ell, v) for ell in leaders for v in pmi.nodes() if ell != v]
    d0 = {(ell, v): bfs_distances(g, ell)[v] for ell, v in pairs}
    current = set(g.edges)
    added = []
    for edge in order:
        h = Graph(g.n, current | {edge})
        if all(bfs_distances(h, ell)[v] == d0[(ell, v)] for ell, v in pairs):
            current.add(edge)
            added.append(edge)
    return added


def reference_randomized_scan(g: Graph, leaders, pmi, seed: int, repetitions: int):
    """Pure-BFS replay of the randomized scan, for oracle-equivalence checks.

    Uses the same shuffle streams as augment_randomized over every missing
    pair and replays each with ``reference_scan``; the first largest wins.
    """
    comp = sorted(complement_edges(g))
    best: list | None = None
    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        added = reference_scan(g, leaders, pmi, [comp[i] for i in rng.permutation(len(comp))])
        if best is None or len(added) > len(best):
            best = added
    assert best is not None
    return frozenset(g.edges | set(best))


def effective_resistance_total(g: Graph) -> float:
    """Sum of pairwise effective resistances via the Laplacian pseudo-inverse."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    pinv = np.linalg.pinv(lap)
    total = 0.0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            total += pinv[u, u] + pinv[v, v] - 2 * pinv[u, v]
    return total


def krylov_rank_oracle(laplacian, inputs, prime: int | None = None) -> int:
    """Rank of ``[B, -LB, ..., (-L)^(n-1) B]`` for integer matrices: Python-int matrix
    powers, then Gaussian elimination over ``Fraction`` (the rational rank), or over
    the integers mod ``prime`` when one is given."""
    lap = [[int(x) for x in row] for row in np.asarray(laplacian).tolist()]
    n = len(lap)
    cols = [[int(x) for x in col] for col in np.asarray(inputs).T.tolist()]
    gamma = list(cols)
    for _ in range(n - 1):
        cols = [[-sum(lap[i][k] * col[k] for k in range(n)) for i in range(n)] for col in cols]
        gamma += cols
    if prime is None:
        field, inverse = Fraction, lambda x: 1 / x
    else:
        field, inverse = (lambda x: x % prime), (lambda x: pow(x, -1, prime))
    rows = [[field(x) for x in col] for col in gamma]  # rank of the transpose
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][c] * inverse(rows[rank][c])
            rows[r] = [field(x - factor * y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
