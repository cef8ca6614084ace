"""Simple undirected graphs: construction, BFS distances, random models, the Laplacian, I/O.

All graphs live on nodes ``0..n-1`` with canonical edges ``(u, v)``, ``u < v``.
Randomness everywhere in the package comes from NumPy's PCG64 generator
(``np.random.default_rng``), so every seeded routine is reproducible
bit-for-bit on any platform.

``laplacian`` builds the dense weighted Laplacian from edge arrays. It is the
one matrix behind both the rank check (random integer weights) and the
Kirchhoff index (unit weights).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DisconnectedGraphError, EdgeListParseError, SizeGuardError

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Graph",
    "GenSpec",
    "canonical_edge",
    "bfs_distances",
    "is_connected",
    "complement_edges",
    "erdos_renyi",
    "barabasi_albert",
    "generate",
    "laplacian",
    "parse_edge_list",
    "write_edge_list",
    "DENSE_NODE_GUARD",
]

#: Routines that hold all n(n-1)/2 node pairs, as Python tuples (~50-100 bytes
#: each, ~1 GB at this size) or as dense n x n arrays, refuse graphs with more
#: nodes than this.
DENSE_NODE_GUARD = 4096


def canonical_edge(u: int, v: int) -> Edge:
    """Return the pair ordered as (min, max); rejects self-loops."""
    if u == v:
        raise ValueError(f"self-loop on node {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    Instances are immutable by convention: build once, then share freely.
    ``add_edges`` returns a new graph instead of mutating.

    Parameters
    ----------
    n : int
        Node count (must be positive).
    edges : iterable of (int, int)
        Edge list; reversed duplicates collapse to one edge, self-loops
        and out-of-range endpoints raise ``ValueError``.
    """

    __slots__ = ("n", "adjacency", "edges")

    def __init__(self, n: int, edges=()):
        if n <= 0:
            raise ValueError(f"node count must be positive, got {n}")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        edge_set: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            e = canonical_edge(u, v)
            if e not in edge_set:
                edge_set.add(e)
                adj[u].add(v)
                adj[v].add(u)
        self.adjacency = adj
        self.edges = frozenset(edge_set)

    def num_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def add_edges(self, extra) -> "Graph":
        """Return a new graph with ``extra`` edges added (duplicates ignored)."""
        return Graph(self.n, list(self.edges) + [canonical_edge(u, v) for u, v in extra])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges()})"


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The edges as two int arrays ``u < v``, in ``g.sorted_edges()`` order."""
    pairs = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * len(g.edges))
    u, v = pairs.reshape(-1, 2).T
    order = np.lexsort((v, u))
    return u[order], v[order]


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Hop distances from ``source`` to every node; ``None`` marks unreachable.

    Downstream code must treat ``None`` explicitly; it never participates in
    distance arithmetic.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in g.adjacency[u]:
            if dist[w] is None:
                dist[w] = du + 1
                queue.append(w)
    return dist


def _checked_distances(g: Graph, sources) -> np.ndarray:
    """Hop distances as an int array, one row per source. Every node must be
    reachable: ``DisconnectedGraphError`` names one that a source cannot reach."""
    rows = np.empty((len(sources), g.n), dtype=np.intp)
    for row, source in zip(rows, sources):
        dist = bfs_distances(g, source)
        if None in dist:
            raise DisconnectedGraphError(
                f"node {dist.index(None)} is unreachable from node {source}"
            )
        row[:] = dist
    return rows


def is_connected(g: Graph) -> bool:
    return None not in bfs_distances(g, 0)


def _guard_dense(n: int, what: str) -> None:
    if n > DENSE_NODE_GUARD:
        raise SizeGuardError(
            f"{what} holds all node pairs and is limited to n <= {DENSE_NODE_GUARD}, got n={n}"
        )


def complement_edges(g: Graph) -> set[Edge]:
    """All node pairs absent from the graph; guarded to ``n <= DENSE_NODE_GUARD``."""
    _guard_dense(g.n, "the complement edge list")
    return {
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges
    }


def _missing_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The node pairs absent from the graph as two int arrays ``u < v``, read
    row by row from a dense adjacency mask: ``sorted(complement_edges(g))``
    order. Guarded to ``n <= DENSE_NODE_GUARD`` before the mask is allocated."""
    _guard_dense(g.n, "the complement mask")
    present = np.zeros((g.n, g.n), dtype=bool)
    present[_edge_arrays(g)] = True
    return np.nonzero(np.triu(~present, 1))


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a random-graph draw; identical specs give identical graphs.

    ``model`` is ``"erdos-renyi"`` (uses ``p``) or ``"barabasi-albert"``
    (uses ``gamma``). ``seed`` is a 64-bit unsigned integer feeding PCG64.
    """

    model: str
    n: int
    p: float | None = None
    gamma: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("erdos-renyi", "barabasi-albert"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n <= 0:
            raise ValueError(f"node count must be positive, got {self.n}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.model == "erdos-renyi":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"edge probability must lie in [0, 1], got {self.p}")
        else:
            if self.gamma is None or not (1 <= self.gamma < self.n):
                raise ValueError(
                    f"attachment count must satisfy 1 <= gamma < n, got {self.gamma}"
                )


def erdos_renyi(spec: GenSpec) -> Graph:
    """G(n, p): each of the n(n-1)/2 pairs kept independently with probability p.

    Guarded to ``n <= DENSE_NODE_GUARD``.
    """
    if spec.model != "erdos-renyi":
        raise ValueError(f"spec model is {spec.model!r}, expected 'erdos-renyi'")
    _guard_dense(spec.n, "G(n, p)")
    rng = np.random.default_rng(spec.seed)
    pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    draws = rng.random(len(pairs))
    return Graph(spec.n, [e for e, x in zip(pairs, draws) if x < spec.p])


def barabasi_albert(spec: GenSpec) -> Graph:
    """Preferential attachment starting from a complete graph on ``gamma`` nodes.

    Each new node attaches to ``gamma`` distinct existing nodes, drawn one at
    a time proportionally to current degree (uniformly while all degrees are
    zero). The edge count is therefore always
    ``gamma*(gamma-1)/2 + (n-gamma)*gamma``.
    """
    if spec.model != "barabasi-albert":
        raise ValueError(f"spec model is {spec.model!r}, expected 'barabasi-albert'")
    gamma = spec.gamma
    assert gamma is not None
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
                pick = int(rng.integers(0, len(candidates)))
                chosen = candidates[pick]
            else:
                chosen = int(rng.choice(new, p=weights / total))
            targets.add(chosen)
        for t in sorted(targets):
            edges.append((t, new))
            degree[t] += 1
        degree[new] = gamma
    return Graph(spec.n, edges)


def generate(spec: GenSpec) -> Graph:
    """Dispatch on ``spec.model``."""
    if spec.model == "erdos-renyi":
        return erdos_renyi(spec)
    return barabasi_albert(spec)


def laplacian(n: int, u, v, weights) -> np.ndarray:
    """Dense weighted Laplacian of the edges ``(u[i], v[i])`` weighted ``weights[i]``.

    Off-diagonal entries are ``-w``, the diagonal holds the row sums of the
    weights, so rows sum to zero and the matrix is symmetric and positive
    semidefinite. It keeps the dtype of ``weights``: integer weights give an
    exact integer matrix. Each node pair must appear at most once. Unequal
    lengths, a self-loop, an endpoint outside ``0..n-1`` or a weight that is
    not positive raise ``ValueError``; guarded to ``n <= DENSE_NODE_GUARD``.
    """
    u, v, weights = np.asarray(u), np.asarray(v), np.asarray(weights)
    if not (u.shape == v.shape == weights.shape == (u.size,)):
        raise ValueError(
            f"edge arrays must be 1-D of equal length, "
            f"got shapes {u.shape}, {v.shape} and {weights.shape}"
        )
    if np.any(u == v):
        raise ValueError(f"self-loop on node {u[u == v][0]} is not allowed")
    if u.size and not (0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n):
        raise ValueError(f"edge endpoint out of range for n={n}")
    if not np.all(weights > 0):
        raise ValueError(f"edge weights must be positive, got {weights[~(weights > 0)][0]}")
    _guard_dense(n, "the dense Laplacian")
    lap = np.zeros((n, n), dtype=weights.dtype)
    lap[u, v] = lap[v, u] = -weights
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def _json_int(value, name: str) -> int:
    """``value`` as an int when it is an integral JSON number; ``ValueError``
    naming ``name`` for a bool, a fraction or any other type."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header ``n <count>`` then one ``u v`` line per edge.

    Reversed and duplicate pairs collapse to a single edge. Self-loops,
    out-of-range ids and malformed tokens raise ``EdgeListParseError`` with
    the 1-based line number.
    """
    lines = text.splitlines()
    if not lines:
        raise EdgeListParseError(1, "empty input, expected header 'n <count>'")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise EdgeListParseError(1, f"expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError:
        raise EdgeListParseError(1, f"node count is not an integer: {header[1]!r}") from None
    if n <= 0:
        raise EdgeListParseError(1, f"node count must be positive, got {n}")
    edges: list[Edge] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
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
        edges.append((u, v))
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Inverse of ``parse_edge_list``: header line then sorted ``u v`` lines."""
    out = [f"n {g.n}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"
