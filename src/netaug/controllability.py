"""Distance-based controllability bounds for leader-follower Laplacian networks.

The central object is a sequence of distance-to-leader vectors that is
*pseudo-monotonically increasing* (PMI): every element has a coordinate on
which all later elements are strictly larger. The length of such a sequence
lower-bounds the dimension of the strong structurally controllable subspace
for every choice of positive edge weights, which this module checks through
controllability-matrix ranks taken exactly modulo a prime.

All PMI routines rest on one suffix-minimum rule: a vector may precede a
suffix iff one of its coordinates is strictly below the suffix's
componentwise minimum, and the first such coordinate is its witness.
``is_pmi`` is one backward pass over suffix minima, ``pmi_exact`` carries the
minimum down its search, and ``pmi_greedy`` is one pass over the vectors
sorted by their smallest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, lt
from typing import Sequence

import numpy as np

from .errors import DisconnectedGraphError, SizeGuardError
from .graphs import Graph, _checked_distances, _edge_arrays, _json_int, is_connected, laplacian

__all__ = [
    "DistanceVector",
    "PMISequence",
    "PMICheck",
    "RankValidationReport",
    "distance_to_leader_vectors",
    "is_pmi",
    "pmi_exact",
    "pmi_greedy",
    "input_matrix",
    "controllability_rank",
    "validate_ssc_bound",
    "kirchhoff_index",
]

#: Exhaustive PMI search refuses instances with more distinct vectors than this.
PMI_EXACT_GUARD = 20

#: Ranks are exact modulo this prime; below 2**31, a product of two residues fits in int64.
_PRIME = 2_147_483_629


@dataclass(frozen=True)
class DistanceVector:
    """Hop distances from one node to each leader, in leader order."""

    node: int
    dist: tuple[int, ...]


@dataclass(frozen=True)
class PMISequence:
    """An ordered run of distance vectors with one witness coordinate each.

    ``witnesses[i]`` is the (0-based) coordinate on which every later vector
    strictly exceeds ``vectors[i]``.
    """

    vectors: tuple[DistanceVector, ...]
    witnesses: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def nodes(self) -> tuple[int, ...]:
        return tuple(dv.node for dv in self.vectors)

    def raw_vectors(self) -> list[tuple[int, ...]]:
        return [dv.dist for dv in self.vectors]

    def to_json(self) -> list[dict]:
        return [
            {"node": dv.node, "vector": list(dv.dist), "witness": w}
            for dv, w in zip(self.vectors, self.witnesses)
        ]

    @classmethod
    def from_json(cls, items: Sequence[dict]) -> "PMISequence":
        vectors = tuple(
            DistanceVector(
                _json_int(it["node"], "node"),
                tuple(_json_int(x, "vector entry") for x in it["vector"]),
            )
            for it in items
        )
        witnesses = tuple(_json_int(it["witness"], "witness") for it in items)
        return cls(vectors, witnesses)


@dataclass(frozen=True)
class PMICheck:
    """Outcome of a PMI test: witnesses on success, an offending pair otherwise."""

    ok: bool
    witnesses: tuple[int, ...] | None = None
    violation: tuple[int, int] | None = None


def _check_leaders(g: Graph, leaders: Sequence[int]) -> tuple[int, ...]:
    leaders = tuple(leaders)
    if not leaders:
        raise ValueError("at least one leader is required")
    if len(set(leaders)) != len(leaders):
        raise ValueError(f"leaders must be distinct, got {leaders}")
    for ell in leaders:
        if not (0 <= ell < g.n):
            raise ValueError(f"leader {ell} out of range for n={g.n}")
    return leaders


def distance_to_leader_vectors(g: Graph, leaders: Sequence[int]) -> list[DistanceVector]:
    """One vector per node: entry j is the hop distance to leader j.

    Requires a connected graph (one BFS pass per leader).
    """
    columns = _checked_distances(g, _check_leaders(g, leaders)).T.tolist()
    return [DistanceVector(v, tuple(dist)) for v, dist in enumerate(columns)]


def _witness(vec: Sequence[int], mins: Sequence[float]) -> int | None:
    """First coordinate on which ``vec`` is strictly below ``mins``, the
    componentwise minimum of the vectors after it; ``None`` when there is none."""
    return next((j for j, (x, lo) in enumerate(zip(vec, mins)) if x < lo), None)


def is_pmi(vectors: Sequence[Sequence[int]]) -> PMICheck:
    """Check the strictly-increasing-witness condition on a vector sequence.

    Position ``i`` is certified by the first coordinate on which ``vectors[i]``
    is strictly below the componentwise minimum of the later vectors, so one
    backward pass over those suffix minima finds every witness. On failure
    ``violation`` is ``(i, j)`` for the first position ``i`` with no valid
    coordinate, with ``j`` the earliest later index that blocks one of them.
    """
    vecs = [tuple(v) for v in vectors]
    m = len(vecs[0]) if vecs else 0
    if any(len(v) != m for v in vecs):
        raise ValueError("all vectors must have the same length")
    witnesses: list[int | None] = [None] * len(vecs)
    mins = [float("inf")] * m
    for i in range(len(vecs) - 1, -1, -1):
        witnesses[i] = _witness(vecs[i], mins)
        mins = list(map(min, mins, vecs[i]))
    if None not in witnesses:
        return PMICheck(ok=True, witnesses=tuple(witnesses))  # type: ignore[arg-type]
    i = witnesses.index(None)
    later = range(i + 1, len(vecs))
    blocker = min(
        (next(j for j in later if vecs[j][a] <= vecs[i][a]) for a in range(m)), default=i + 1
    )
    return PMICheck(ok=False, violation=(i, blocker))


def _distinct_vectors(g: Graph, leaders: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Map each distinct distance vector to its smallest node id."""
    rep: dict[tuple[int, ...], int] = {}
    for dv in distance_to_leader_vectors(g, leaders):  # in node order
        rep.setdefault(dv.dist, dv.node)
    return rep


def pmi_exact(g: Graph, leaders: Sequence[int]) -> PMISequence:
    """Longest PMI sequence by exhaustive search; certificate-quality but small-only.

    Vectors are selected back to front: a vector may precede a chosen suffix
    iff some coordinate is strictly below the suffix's componentwise minimum,
    and the first such coordinate is its witness. Memoized on the chosen set;
    refuses instances with more than ``PMI_EXACT_GUARD`` distinct vectors (use
    ``pmi_greedy`` there).
    """
    rep = _distinct_vectors(g, leaders)
    if len(rep) > PMI_EXACT_GUARD:
        raise SizeGuardError(
            f"{len(rep)} distinct vectors exceed the exhaustive guard "
            f"({PMI_EXACT_GUARD}); use pmi_greedy"
        )
    vectors = sorted(rep)
    bits = PMI_EXACT_GUARD.bit_length()
    # Chosen-set bitmask -> (longest continuation << bits) | index of the first
    # vector that starts one; one int per state keeps the memo small.
    memo: dict[int, int] = {}

    def best(used: int, mins: tuple) -> int:
        if used in memo:
            return memo[used]
        out = 0
        for idx, vec in enumerate(vectors):
            if not used >> idx & 1 and any(map(lt, vec, mins)):
                length = (best(used | 1 << idx, tuple(map(min, vec, mins))) >> bits) + 1
                if length > out >> bits:
                    out = length << bits | idx
        memo[used] = out
        return out

    # Follow the memo from the empty suffix, last element first.
    used, mins = 0, (float("inf"),) * len(tuple(leaders))
    chosen: list[DistanceVector] = []
    witnesses: list[int] = []
    while best(used, mins):
        idx = memo[used] & ((1 << bits) - 1)
        vec = vectors[idx]
        chosen.append(DistanceVector(rep[vec], vec))
        witnesses.append(_witness(vec, mins))  # type: ignore[arg-type]
        used |= 1 << idx
        mins = tuple(map(min, vec, mins))
    return PMISequence(tuple(reversed(chosen)), tuple(reversed(witnesses)))


def pmi_greedy(g: Graph, leaders: Sequence[int]) -> PMISequence:
    """Deterministic greedy PMI sequence; exact for a single leader.

    Maintains one threshold per coordinate (the last witness value there).
    A vector is eligible while it exceeds every threshold componentwise; the
    eligible vector with the smallest entry is taken (ties: smaller
    coordinate, then smaller node id), and that coordinate's threshold rises
    to the entry. The pick key does not depend on the thresholds and the
    thresholds only rise, so a vector that is not eligible never becomes so
    and the picks come in key order: one pass over the vectors sorted by key
    takes each one that is eligible when reached.
    """
    rep = _distinct_vectors(g, leaders)
    thresholds = [-1] * len(tuple(leaders))
    keyed = [(min(vec), vec.index(min(vec)), node, vec) for vec, node in rep.items()]
    chosen: list[DistanceVector] = []
    witnesses: list[int] = []
    for value, alpha, node, vec in sorted(keyed):
        if all(map(gt, vec, thresholds)):
            thresholds[alpha] = value
            chosen.append(DistanceVector(node, vec))
            witnesses.append(alpha)
    return PMISequence(tuple(chosen), tuple(witnesses))


def input_matrix(n: int, leaders: Sequence[int]) -> np.ndarray:
    """n-by-m 0/1 matrix with one column per leader (a single 1 at its row)."""
    leaders = tuple(leaders)
    mat = np.zeros((n, len(leaders)), dtype=float)
    for j, ell in enumerate(leaders):
        if not (0 <= ell < n):
            raise ValueError(f"leader {ell} out of range for n={n}")
        mat[ell, j] = 1.0
    return mat


def _mulmod(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """``a @ b`` mod ``prime``; 16-bit halves of ``a`` keep int64 sums exact for inner dim < 2**16.
    Every call has the smaller matrix on the left, so splitting it is the cheap side."""
    high = ((a >> 16) @ b) % prime
    return ((high << 16) + ((a & 0xFFFF) @ b) % prime) % prime


def _residues(matrix: np.ndarray, prime: int) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.round(arr))):
        arr = np.fmod(arr, prime)
    elif arr.dtype.kind not in "biu":
        raise ValueError("controllability_rank needs integer-valued matrices")
    return arr.astype(np.int64) % prime


def _rank_mod(
    laplacian: np.ndarray, inputs: np.ndarray, prime: int, target: int | None = None
) -> int:
    """Krylov dimension of ``inputs`` under ``-laplacian`` mod ``prime``, one block at a
    time: reduce the block against the RREF basis, eliminate within it, step its new rows.

    With a ``target``, stops after the first block that brings the proved rank to at
    least ``target`` and returns that rank (it may overshoot by less than a block)."""
    lap, mat_b = _residues(laplacian, prime), _residues(inputs, prime)
    n = lap.shape[0] if lap.ndim == 2 else -1
    if lap.shape != (n, n) or mat_b.ndim != 2 or mat_b.shape[0] != n:
        raise ValueError(f"dimension mismatch: laplacian {lap.shape}, inputs {mat_b.shape}")
    step, block = -lap.T % prime, mat_b.T
    basis, pivots = np.zeros((0, n), dtype=np.int64), []
    while True:
        block = (block - _mulmod(block[:, pivots], basis, prime)) % prime
        rows, new_pivots = [], []
        for row in block:
            for col, done in zip(new_pivots, rows):
                row = (row - row[col] * done) % prime
            nonzero = np.flatnonzero(row)
            if nonzero.size:
                col = int(nonzero[0])
                row = row * pow(int(row[col]), prime - 2, prime) % prime
                rows = [(done - done[col] * row) % prime for done in rows] + [row]
                new_pivots.append(col)
        if not rows:
            return len(pivots)
        if target is not None and len(pivots) + len(rows) >= target:
            return len(pivots) + len(rows)
        block = np.array(rows)
        basis = np.vstack([(basis - _mulmod(basis[:, new_pivots], block, prime)) % prime, block])
        pivots += new_pivots
        block = _mulmod(block, step, prime)


def controllability_rank(laplacian: np.ndarray, inputs: np.ndarray) -> int:
    """Rank of ``[B, -LB, (-L)^2 B, ..., (-L)^(n-1) B]`` modulo a prime near 2**31.

    Takes integer-valued matrices (``ValueError`` otherwise). The rank mod p never
    exceeds the rational rank, so the result is a proved lower bound on it. This is
    always the full Krylov rank; only ``validate_ssc_bound`` stops at its bound."""
    return _rank_mod(laplacian, inputs, _PRIME)


@dataclass(frozen=True)
class RankValidationReport:
    """Result of sampling random weights against a claimed rank bound.

    ``ranks[t]`` is the rank proved for trial ``t`` when its elimination stopped:
    at least ``claimed_bound`` (possibly less than the full rank) when the trial
    passes, the full proved rank when it falls short. ``min_rank`` is their minimum.
    """

    claimed_bound: int
    trials: int
    min_rank: int
    passed: bool
    ranks: tuple[int, ...]
    failing_weights: tuple[tuple[int, int, int], ...] | None = None

    def to_json(self) -> dict:
        return {
            "claimed_bound": self.claimed_bound,
            "trials": self.trials,
            "min_rank": self.min_rank,
            "passed": self.passed,
            "ranks": list(self.ranks),
            "failing_weights": None
            if self.failing_weights is None
            else [[u, v, w] for u, v, w in self.failing_weights],
        }


def validate_ssc_bound(
    g: Graph,
    leaders: Sequence[int],
    bound: int,
    trials: int = 25,
    seed: int = 0,
) -> RankValidationReport:
    """Check that the controllability rank stays >= ``bound`` under random weights.

    Each trial draws integer edge weights uniform on ``[1, p)`` from stream
    ``default_rng([seed, trial])`` and grows the Krylov basis exactly mod p until the
    proved rank reaches ``bound``, so a pass proves the bound for those weights; a
    shortfall runs to the full rank and is re-checked with a second prime. ``ranks``
    are therefore the ranks proved at the stop (see ``RankValidationReport``); use
    ``controllability_rank`` for the full rank. The bound holds for *all* positive
    weights, so a failure indicates an implementation bug.
    The graph must be connected, with at most ``DENSE_NODE_GUARD`` nodes.
    """
    leaders = _check_leaders(g, leaders)
    if bound < 1:
        raise ValueError(f"claimed bound must be >= 1, got {bound}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not is_connected(g):
        raise DisconnectedGraphError("rank validation needs a connected graph")
    mat_b = input_matrix(g.n, leaders)
    u, v = _edge_arrays(g)
    ranks: list[int] = []
    failing: np.ndarray | None = None
    for trial in range(trials):
        weights = np.random.default_rng([seed, trial]).integers(1, _PRIME, size=u.size)
        lap = laplacian(g.n, u, v, weights)
        rank = _rank_mod(lap, mat_b, _PRIME, target=bound)
        if rank < bound:  # both ranks are proved lower bounds; 2**31 - 1 is prime
            rank = max(rank, _rank_mod(lap, mat_b, 2**31 - 1, target=bound))
        if rank < bound and failing is None:
            failing = weights
        ranks.append(rank)
    min_rank = min(ranks)
    return RankValidationReport(
        claimed_bound=bound,
        trials=trials,
        min_rank=min_rank,
        passed=min_rank >= bound,
        ranks=tuple(ranks),
        failing_weights=None if failing is None else tuple(zip(u.tolist(), v.tolist(), failing.tolist())),
    )


def kirchhoff_index(g: Graph) -> float:
    """Sum of reciprocals of the nonzero eigenvalues of the unweighted Laplacian.

    Lower is more robust; adding any edge to a connected graph strictly
    decreases it. Needs a connected graph with at most ``DENSE_NODE_GUARD`` nodes.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("Kirchhoff index needs a connected graph")
    u, v = _edge_arrays(g)
    eigenvalues = np.linalg.eigvalsh(laplacian(g.n, u, v, np.ones(u.size)))
    return float(np.sum(1.0 / eigenvalues[1:]))
