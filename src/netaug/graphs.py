"""Simple undirected graphs: construction, BFS distances, random models, the Laplacian, I/O.

All graphs live on nodes ``0..n-1`` with canonical edges ``(u, v)``, ``u < v``.
Randomness everywhere in the package comes from NumPy's PCG64 generator
(``np.random.default_rng``), so every seeded routine is reproducible
bit-for-bit on any platform.

``laplacian`` builds the dense weighted Laplacian from edge arrays. It is the
one matrix behind both the rank check (random integer weights) and the
Kirchhoff index (unit weights).

A ``Graph`` stores its edge set only, as two sorted, read-only int arrays
``u < v``, checked in one bulk pass (a per-edge pass words the first bad edge
only if it fails), and allocates nothing per node. Every layer reads the arrays;
the frozenset of edges and the neighbour lists behind BFS are built from them on
first use and cached. A graph grows as a new one: ``Graph(g.n, chain(g.edges, extra))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import DisconnectedGraphError, EdgeListParseError, SizeGuardError

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Graph",
    "GenSpec",
    "bfs_distances",
    "is_connected",
    "erdos_renyi",
    "barabasi_albert",
    "generate",
    "laplacian",
    "parse_edge_list",
    "write_edge_list",
    "DENSE_NODE_GUARD",
]

#: Routines that hold all n(n-1)/2 node pairs refuse graphs with more nodes
#: than this. They hold NumPy arrays: one double per pair in ``erdos_renyi``
#: (~67 MB at this size), dense n x n masks and matrices elsewhere, and the
#: randomized scan the missing pairs in row-major u < v order as two int arrays.
DENSE_NODE_GUARD = 4096


class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    Instances are immutable by convention: build once, then share freely;
    ``Graph(g.n, chain(g.edges, extra))`` is ``g`` with ``extra`` added. The
    edge set is stored as two sorted, read-only int arrays ``u < v``; ``edges``
    and the neighbour lists behind BFS are views built from them on first
    access and cached, so caching them changes nothing a caller sees.

    Parameters
    ----------
    n : int
        Node count: a positive integer (NumPy integers included, bools not).
    edges : iterable of (int, int)
        Edge list; reversed duplicates collapse to one edge. Endpoints are
        integers (NumPy integers included). If the bulk check fails, a pass in
        list order words the first bad edge: one that is not a pair raises what
        unpacking it raises, else ``ValueError`` names an endpoint that is not
        an integer (bools and floats included), then a range error, then a
        self-loop. Ids are stored as intp: one beyond it is out of range, or
        raises ``OverflowError`` if n is beyond intp too. Nothing is
        allocated per node.
    """

    def __init__(self, n: int, edges=()):
        n = _integer(n, "node count")
        if n <= 0:
            raise ValueError(f"node count must be positive, got {n}")
        self.n = n
        pairs, fault = list(edges), None
        try:  # one bulk pass accepts every edge or raises
            us, vs = [u for u, _ in pairs], [v for _, v in pairs]
            kinds = set(map(type, us)) | set(map(type, vs))
            if any(issubclass(t, bool) or not issubclass(t, Integral) for t in kinds - {int}):
                raise TypeError("an edge endpoint is not an integer")
            x, y = (np.fromiter(w, dtype=np.intp, count=len(w)) for w in (us, vs))
            u, v = np.minimum(x, y), np.maximum(x, y)
            if np.any((u < 0) | (v >= n) | (u == v)):
                raise ValueError("an edge is out of range or a self-loop")
        except (TypeError, ValueError, OverflowError) as error:
            fault = error
        if fault is not None:
            for a, b in pairs:  # word the first bad edge: unpack, types, range, then a loop
                a = a if type(a) is int else _integer(a, "edge endpoint")
                b = b if type(b) is int else _integer(b, "edge endpoint")
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"edge ({a},{b}) out of range for n={n}")
                if a == b:
                    raise ValueError(f"self-loop on node {a} is not allowed")
            raise fault  # every edge is good, but an id and n are beyond intp
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        new = np.ones(u.size, dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        u, v = u[new], v[new]
        u.flags.writeable = v.flags.writeable = False
        self._arrays = u, v

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edge set as int pairs ``(u, v)``, ``u < v``, built on first access."""
        u, v = self._arrays
        return frozenset(zip(u.tolist(), v.tolist()))

    @cached_property
    def _neighbours(self) -> list[list[int]]:
        """The neighbour list of every node, cut from the sorted edge arrays; BFS reads it."""
        u, v = self._arrays
        ends = np.concatenate((u, v))
        others = np.concatenate((v, u))[np.argsort(ends, kind="stable")].tolist()
        stops = np.bincount(ends, minlength=self.n).cumsum().tolist()
        return [others[a:b] for a, b in zip([0, *stops], stops)]

    def num_edges(self) -> int:
        return self._arrays[0].size

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and all(
            map(np.array_equal, self._arrays, other._arrays))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges()})"


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Hop distances from ``source`` to every node; ``None`` marks unreachable.

    Downstream code must treat ``None`` explicitly; it never participates in
    distance arithmetic. ``source`` must be an integer node id (``ValueError``
    for a bool, a fraction or a node outside ``0..n-1``).
    """
    source = _integer(source, "source")
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    neighbours, queue = g._neighbours, [source]
    for u in queue:
        du = dist[u] + 1
        for w in neighbours[u]:
            if dist[w] is None:
                dist[w] = du
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


def _missing_pairs(g: Graph) -> np.ndarray:
    """n x n mask of the node pairs absent from the graph, True only above the
    diagonal (``u < v``), so ``np.nonzero`` lists them in row-major u < v order.
    Guarded to ``n <= DENSE_NODE_GUARD`` before the mask is allocated."""
    _guard_dense(g.n, "the complement mask")
    taken = np.tri(g.n, dtype=bool)  # u >= v is never a candidate
    taken[g._arrays] = True
    return np.logical_not(taken, out=taken)


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a random-graph draw; identical specs give identical graphs.

    ``model`` is ``"erdos-renyi"`` (uses ``p``) or ``"barabasi-albert"``
    (uses ``gamma``). ``seed`` is a 64-bit unsigned integer feeding PCG64.
    ``n``, ``gamma`` and ``seed`` must be integers (NumPy integers included,
    bools not) and ``p`` a real number (not a bool); any other value raises
    ``ValueError``.
    """

    model: str
    n: int
    p: float | None = None
    gamma: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("erdos-renyi", "barabasi-albert"):
            raise ValueError(f"unknown model {self.model!r}")
        if _integer(self.n, "node count") <= 0:
            raise ValueError(f"node count must be positive, got {self.n}")
        if not (0 <= _integer(self.seed, "seed") < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.model == "erdos-renyi":
            if isinstance(self.p, bool) or not isinstance(self.p, Real):
                raise ValueError(f"edge probability must be a real number, got {self.p!r}")
            if not (0.0 <= self.p <= 1.0):
                raise ValueError(f"edge probability must lie in [0, 1], got {self.p}")
        else:
            if self.gamma is None or not (1 <= _integer(self.gamma, "attachment count") < self.n):
                raise ValueError(
                    f"attachment count must satisfy 1 <= gamma < n, got {self.gamma}"
                )


def erdos_renyi(spec: GenSpec) -> Graph:
    """G(n, p): each of the n(n-1)/2 pairs kept independently with probability p.

    Pair ``(u, v)`` is kept when its double from ``rng.random`` is below ``p``;
    one double is drawn per pair, in ``u < v`` row-major order. Guarded to
    ``n <= DENSE_NODE_GUARD``.
    """
    if spec.model != "erdos-renyi":
        raise ValueError(f"spec model is {spec.model!r}, expected 'erdos-renyi'")
    _guard_dense(spec.n, "G(n, p)")
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    kept = np.flatnonzero(rng.random(n * (n - 1) // 2) < spec.p)
    # Row u holds the pairs (u, u+1..n-1) and ends before ends[u].
    ends = np.cumsum(np.arange(n - 1, -1, -1))
    u = ends.searchsorted(kept, side="right")
    v = kept + n - ends[u]
    return Graph(n, zip(u.tolist(), v.tolist()))


def barabasi_albert(spec: GenSpec) -> Graph:
    """Preferential attachment starting from a complete graph on ``gamma`` nodes.

    Each new node attaches to ``gamma`` distinct existing nodes, drawn one at
    a time proportionally to current degree. The edge count is therefore
    always ``gamma*(gamma-1)/2 + (n-gamma)*gamma``. Each pick reads one double
    from ``rng.random`` against the cumulative weights, as ``rng.choice`` with
    ``p`` does. The weights are all zero only for the first new node at
    ``gamma = 1``, whose one candidate, node 0, is taken without a draw.
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
                # Only at gamma = 1, new = 1: node 0, of degree 0, is the one
                # earlier node. For gamma >= 2 every earlier node has degree
                # >= 1 and at most gamma - 1 of them are already targets, so
                # there is nothing to draw.
                chosen = 0
            else:  # rng.choice(new, p=weights / total) without its argument checks
                cdf = (weights / total).cumsum()
                cdf /= cdf[-1]
                chosen = int(cdf.searchsorted(rng.random(), side="right"))
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
    exact integer matrix. ``weights`` may also be a 2-D stack, one row of edge
    weights per matrix; the result is then a ``(len(weights), n, n)`` stack, and
    the checks run once for the whole stack. Each node pair must appear at most
    once; no edges give the zero matrix (or stack). A node count that is not an
    integer (bools included), unequal lengths, endpoint arrays that are not
    integer, a self-loop, an endpoint outside ``0..n-1`` or a weight that is not
    positive raise ``ValueError``; guarded to ``n <= DENSE_NODE_GUARD``.
    """
    n = _integer(n, "node count")
    u, v, weights = np.asarray(u), np.asarray(v), np.asarray(weights)
    if not (u.shape == v.shape == weights.shape[-1:] == (u.size,) and weights.ndim <= 2):
        raise ValueError(
            f"edge arrays must be 1-D of equal length (weights may be a 2-D stack of such rows), "
            f"got shapes {u.shape}, {v.shape} and {weights.shape}"
        )
    if not u.size:  # np.asarray([]) is float64, which cannot index
        u = v = np.zeros(0, dtype=np.intp)
    elif u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, got dtypes {u.dtype} and {v.dtype}")
    if np.any(u == v):
        raise ValueError(f"self-loop on node {u[u == v][0]} is not allowed")
    if u.size and not (0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n):
        raise ValueError(f"edge endpoint out of range for n={n}")
    if not np.all(weights > 0):
        raise ValueError(f"edge weights must be positive, got {weights[~(weights > 0)][0]}")
    _guard_dense(n, "the dense Laplacian")
    stack = weights.shape[:-1]
    lap = np.zeros((*stack, n, n), dtype=weights.dtype)
    lap[..., u, v] = lap[..., v, u] = -weights
    lap.reshape(*stack, n * n)[..., :: n + 1] = -lap.sum(axis=-1)
    return lap


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int, NumPy integers included; ``ValueError`` naming
    ``name`` for a bool, a non-integral value or one below ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _json_int(value, name: str) -> int:
    """``value`` as an int when it is an integral JSON number; ``ValueError``
    naming ``name`` for a bool, a fraction or any other type."""
    return _integer(int(value) if isinstance(value, float) and value.is_integer() else value, name)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header ``n <count>`` then one ``u v`` line per edge.

    Reversed and duplicate pairs collapse to a single edge. Self-loops,
    out-of-range ids and malformed tokens raise ``EdgeListParseError`` with
    the 1-based line number of the first bad line, which is looked for only
    after the bulk checks (every token at once, then ``Graph``'s) fail. Like
    every ``Graph``, the result allocates nothing per node, so a caller can
    size-check ``n`` after parsing.
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
    try:  # every token at once, then Graph's checks; only a bad line fails them
        if set(map(len, map(str.split, lines[1:]))) <= {0, 2}:
            ends = list(map(int, text.split()[2:]))
            return Graph(n, zip(ends[::2], ends[1::2]))
    except ValueError:
        pass
    for i, line in enumerate(lines[1:], start=2):  # name the first bad line
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
    raise AssertionError("the edge checks refused an edge list whose lines all pass")


def write_edge_list(g: Graph) -> str:
    """Inverse of ``parse_edge_list``: header line then sorted ``u v`` lines."""
    u, v = g._arrays
    return f"n {g.n}\n" + ("%d %d\n" * u.size) % tuple(np.column_stack((u, v)).ravel().tolist())
