"""Distance-based controllability bounds for leader-follower Laplacian networks.

The central object is a sequence of distance-to-leader vectors that is
*pseudo-monotonically increasing* (PMI): every element has a coordinate on
which all later elements are strictly larger. The length of such a sequence
lower-bounds the dimension of the strong structurally controllable subspace
for every choice of positive edge weights, which this module checks through
controllability-matrix ranks taken exactly modulo a prime.

All PMI routines rest on one suffix-minimum rule: a vector may precede a
suffix iff one of its coordinates is strictly below the suffix's
componentwise minimum, and the first such coordinate is its witness. A
``PMISequence`` is the one check of this rule, one backward pass over suffix
minima whenever it is built; ``pmi_exact`` memoizes its search on the
minimum, and ``pmi_greedy`` is one pass over the vectors sorted by their
smallest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, lt
from typing import Iterator, Sequence

import numpy as np

from .errors import DisconnectedGraphError, SizeGuardError
from .graphs import Graph, _checked_distances, _guard_dense, _integer, _json_int, is_connected, laplacian

__all__ = [
    "DistanceVector",
    "PMISequence",
    "RankValidationReport",
    "pmi_exact",
    "pmi_greedy",
    "input_matrix",
    "controllability_rank",
    "validate_ssc_bound",
    "kirchhoff_index",
]

#: ``pmi_exact`` refuses a search whose reachable suffix minima times distinct vectors
#: pass this: the worst case of the former chosen-set search, 2**20 sets x 20 vectors.
PMI_EXACT_GUARD = 20 * 2**20

#: Ranks are exact modulo this prime; below 2**31, a product of two residues fits in int64.
_PRIME = 2_147_483_629

#: Bytes of one stack of float64 step matrices: ``validate_ssc_bound`` runs its trials
#: ``max(1, _STACK_BYTES // (8 n^2))`` at a time, and every temporary of a stack's pass
#: is bounded by a small multiple of the stack.
_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class DistanceVector:
    """Hop distances from one node to each leader, in leader order."""

    node: int
    dist: tuple[int, ...]


@dataclass(frozen=True)
class PMISequence:
    """An ordered run of distance vectors with one witness coordinate each.

    ``witnesses[i]`` is the (0-based) coordinate on which every later vector
    strictly exceeds ``vectors[i]``. Construction checks this in one backward
    pass; unequal counts or vector lengths, or a witness that is not an integer
    (bools and floats included, NumPy integers stored as ints), lies outside
    ``0..L-1`` or does not hold, raise ``ValueError``.
    """

    vectors: tuple[DistanceVector, ...]
    witnesses: tuple[int, ...]

    def __post_init__(self):
        if len(self.witnesses) != len(self.vectors):
            raise ValueError(
                f"PMI sequence has {len(self.vectors)} vectors but {len(self.witnesses)} witnesses"
            )
        witnesses = tuple(_integer(w, "witness") for w in self.witnesses)
        object.__setattr__(self, "witnesses", witnesses)
        mins = [float("inf")] * len(self.vectors[0].dist if self.vectors else ())
        for dv, w in zip(reversed(self.vectors), reversed(witnesses)):
            if len(dv.dist) != len(mins):
                raise ValueError("all vectors must have the same length")
            if not 0 <= w < len(mins):
                raise ValueError(f"PMI witness {w} for node {dv.node} is outside 0..{len(mins) - 1}")
            if not dv.dist[w] < mins[w]:
                raise ValueError(f"PMI witness {w} for node {dv.node} does not hold")
            mins = list(map(min, mins, dv.dist))

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


def _check_leaders(n: int, leaders: Sequence[int]) -> tuple[int, ...]:
    leaders = tuple(_integer(ell, "leader") for ell in leaders)
    if not leaders:
        raise ValueError("at least one leader is required")
    if len(set(leaders)) != len(leaders):
        raise ValueError(f"leaders must be distinct, got {leaders}")
    for ell in leaders:
        if not (0 <= ell < n):
            raise ValueError(f"leader {ell} out of range for n={n}")
    return leaders


def _witness(vec: Sequence[int], mins: Sequence[float]) -> int | None:
    """First coordinate on which ``vec`` is strictly below ``mins``, the
    componentwise minimum of the vectors after it; ``None`` when there is none."""
    return next((j for j, (x, lo) in enumerate(zip(vec, mins)) if x < lo), None)


def _distinct_vectors(g: Graph, leaders: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Map each distinct distance vector to its smallest node id (``leaders`` checked)."""
    rep: dict[tuple[int, ...], int] = {}
    for node, dist in enumerate(_checked_distances(g, leaders).T.tolist()):
        rep.setdefault(tuple(dist), node)
    return rep


def pmi_exact(g: Graph, leaders: Sequence[int]) -> PMISequence:
    """Longest PMI sequence by exact search, built back to front.

    A vector may precede a chosen suffix iff some coordinate is strictly below
    the suffix's componentwise minimum (the first such is its witness). A chosen
    vector is never below it again, so the memo is keyed on the minimum: it holds
    the longest continuation and the first vector in sorted order that starts one.
    The work, reachable minima times distinct vectors, is guarded by
    ``PMI_EXACT_GUARD`` (``SizeGuardError``; use ``pmi_greedy`` there).

    With one leader the longest sequence is every distinct distance in
    ascending order, each at its smallest node id with witness 0, which is
    the search's pick and ``pmi_greedy``'s; that is returned without a search.
    """
    leaders = _check_leaders(g.n, leaders)
    if len(leaders) == 1:
        return pmi_greedy(g, leaders)
    return _pmi_search(g, leaders)


def _pmi_search(g: Graph, leaders: tuple[int, ...]) -> PMISequence:
    """``pmi_exact``'s memoized search for checked ``leaders``."""
    rep = _distinct_vectors(g, leaders)
    vectors = sorted(rep)

    def steps(mins: tuple) -> Iterator[tuple[tuple, tuple]]:
        """Each vector that may precede ``mins``, with the minimum it makes."""
        return ((vec, tuple(map(min, vec, mins))) for vec in vectors if any(map(lt, vec, mins)))

    top = (g.n,) * len(leaders)  # above every distance: the empty suffix
    memo = {top: (0, None)}  # minimum -> (longest continuation, first vector starting one)
    stack = [top]
    while stack:
        if len(memo) * len(vectors) > PMI_EXACT_GUARD:
            raise SizeGuardError(
                f"the exact PMI search passed {PMI_EXACT_GUARD} steps (reachable minima x "
                f"{len(vectors)} distinct vectors); use pmi_greedy"
            )
        for _, child in steps(stack.pop()):
            if child not in memo:
                memo[child] = (0, None)
                stack.append(child)
    for mins in sorted(memo, key=sum):  # a step lowers the sum, so children come first
        for vec, child in steps(mins):
            if memo[child][0] >= memo[mins][0]:  # strictly longer: the first best vector stays
                memo[mins] = (memo[child][0] + 1, vec)
    mins, chosen, witnesses = top, [], []
    while memo[mins][0]:
        vec = memo[mins][1]
        chosen.append(DistanceVector(rep[vec], vec))
        witnesses.append(_witness(vec, mins))
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
    leaders = _check_leaders(g.n, leaders)
    rep = _distinct_vectors(g, leaders)
    thresholds = [-1] * len(leaders)
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
    """n-by-m 0/1 matrix with one column per leader (a single 1 at its row);
    ``n`` must be an integer and the leaders distinct integer nodes of ``0..n-1``."""
    leaders = _check_leaders(_integer(n, "node count"), leaders)
    mat = np.zeros((n, len(leaders)), dtype=float)
    mat[leaders, range(len(leaders))] = 1.0
    return mat


def _mod(x: np.ndarray, prime: int) -> np.ndarray:
    """``x % prime`` in place for int64 ``x``. NumPy's ``%`` on int64 divides in hardware
    per entry; its floor division by a scalar does not and is several times faster."""
    quotient = x // prime
    quotient *= prime
    x -= quotient
    return x


def _mulmod(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """``a @ b`` mod ``prime``, stacked like ``np.matmul``: ``a`` int64 and ``b`` float64
    residues, both below 2**31, over an inner size k <= 4096 (``DENSE_NODE_GUARD``).

    ``a`` is split into balanced limbs, stacked as the rows of one float64 product per
    matrix: two 16-bit limbs when k <= 128, else three 11-bit ones. The products are
    exact: a 16-bit limb is at most 2**15 in size, so every term is below 2**46 and
    every partial sum of k <= 128 terms an integer below 2**53, in any summation
    order; an 11-bit limb is at most 2**10, every term below 2**41, and 4096 of them
    stay below 2**53. Horner's rule recombines the limb products in int64, with one
    remainder per limb: a residue shifted by at most 16 bits plus a product stays
    below 2**54."""
    inner = a.shape[-1]
    bits, count = (16, 2) if inner <= 128 else (11, 3)
    limbs = np.empty((*a.shape[:-2], count, *a.shape[-2:]))
    rest = a
    for i in range(count - 1):
        high = rest + (1 << (bits - 1))
        high >>= bits
        np.subtract(rest, high << bits, out=limbs[..., i, :, :])
        rest = high
    limbs[..., count - 1, :, :] = rest
    products = np.matmul(limbs.reshape(*a.shape[:-2], count * a.shape[-2], inner), b)
    products = products.astype(np.int64).reshape(*products.shape[:-2], count, -1, products.shape[-1])
    out = _mod(products[..., count - 1, :, :], prime)
    for i in range(count - 2, -1, -1):
        out <<= bits
        out += products[..., i, :, :]
        _mod(out, prime)
    return out


def _eliminate(block: np.ndarray, prime: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce every trial's block in place, one pivot row at a time for all trials.

    Row i takes its first nonzero column as pivot, is scaled to 1 there, and that
    column is cleared from every other row of the block (one rank-1 update). The leads
    of all trials are inverted together: prefix products, one ``pow`` of the last, and
    one backward pass. Returns ``(new, cols)``: which rows got a pivot in which trial,
    and the pivot columns. A row without one is zero."""
    count, m = block.shape[:2]
    everyone = np.arange(count)
    new, cols = np.zeros((count, m), dtype=bool), np.zeros((count, m), dtype=np.intp)
    for i in range(m):
        row = block[:, i]
        col = (row != 0).argmax(axis=1)
        lead = row[everyone, col]
        if not lead.any():
            continue
        leads = lead.tolist()
        prefix = [1]
        for x in leads:
            prefix.append(prefix[-1] * (x or 1) % prime)
        inverse, rest = [0] * count, pow(prefix[-1], -1, prime)
        for t in range(count - 1, -1, -1):
            if leads[t]:
                inverse[t], rest = rest * prefix[t] % prime, rest * leads[t] % prime
        row = _mod(row * np.array(inverse)[:, None], prime)
        block -= block[everyone, :, col][:, :, None] * row[:, None, :]
        _mod(block, prime)
        block[:, i] = row  # the update zeroed it
        new[:, i], cols[:, i] = lead != 0, col
    return new, cols


def _residues(matrix: np.ndarray, prime: int) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.round(arr))):
        arr = np.fmod(arr, prime)
    elif arr.dtype.kind == "u":
        arr = arr % np.uint64(prime)  # before the int64 cast, which wraps entries >= 2**63
    elif arr.dtype.kind not in "bi":
        raise ValueError("controllability_rank needs integer-valued matrices")
    return arr.astype(np.int64) % prime


def _rank_mod(
    steps: np.ndarray, inputs: np.ndarray, prime: int, target: int | None = None
) -> np.ndarray:
    """Krylov rank mod ``prime`` of the rows of ``inputs`` under each step of a stack.

    ``steps`` is a ``(T, n, n)`` stack of ``(-L)^T`` as float64 residues and ``inputs`` is
    ``B^T`` as int64 residues, so the rows of ``inputs @ steps[t]**j`` are the columns of
    ``(-L_t)^j B``. All T trials run in lockstep, one Krylov block at a time, and every
    Python-level step acts on the whole stack at once: reduce the block against the
    trial's RREF basis (one product), eliminate within it (one rank-1 update per pivot
    row), clear the new pivot columns from the basis (one product per slab of at most
    n / 4 basis rows, subtracted in place, so its temporaries stay a fraction of the
    stack), append the block whole and step it (one product). The basis, float64 residues
    as its products read them, holds each block's rows that have a pivot in some trial, in
    block order; a row is zero, with pivot 0, in a trial without a pivot in it, so it
    changes no reduction or clear. It thus holds at most the trials' pivot total (those
    past a stop included); when the trials' pivots fall in the same rows, as they do for
    generic weights, that is the most pivots one trial finds, at most n. The first block
    is the inputs in every trial, so it is eliminated once, for the whole stack; when its
    pivot rows are unit rows ``e_c`` (leader indicators are), its step is rows c of each
    step matrix and its reduction zeroes columns c, with no product, and a basis slab that
    is zero in the new pivot columns is not cleared.

    A trial stops after a block that adds no pivot, or, with a ``target``, after the first
    block that brings its proved rank to at least ``target`` (it may overshoot by less than
    a block). Trials stay in the pass until the last one stops, and each reports the rank
    proved at its own stop: after a block without a pivot its block is zero for good, and
    growth past the target changes nothing it reports. Returns the T ranks at the stops.
    A correct run adds a pivot per block until it stops and never finds more than n
    pivots, so it stops within n + 1 blocks. A run that finds more than n pivots or
    reaches block n + 2 has wrong products and raises ``RuntimeError``."""
    count, n = steps.shape[0], steps.shape[-1]
    found, stopped = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)
    # Each block's kept rows in block order; zero, with pivot 0, in a trial without a pivot there.
    basis, pivots = np.zeros((count, 0, n)), np.zeros((count, 0), dtype=np.intp)
    slab = max(1, n // 4)  # basis rows cleared per product
    block = inputs[None].copy()  # every trial's first block: eliminated once, for the stack
    new, cols = _eliminate(block, prime)
    unit = np.count_nonzero(block) == new.sum()  # its pivot rows are unit rows e_c
    new, cols, block = (np.broadcast_to(x, (count, *x.shape[1:])) for x in (new, cols, block))
    for _ in range(n + 1):
        added = np.where(stopped, 0, new.sum(axis=1))  # a stopped trial's count is final
        found += added
        if found.max() > n:
            break
        stopped |= added == 0
        if target is not None:
            stopped |= found >= target
        if stopped.all():
            return found
        rows = new.any(axis=0)
        block, cols = block[:, rows], cols[:, rows]
        top, step = basis.shape[1], block.astype(np.float64)
        for first in range(0, top, slab):
            part = basis[:, first : min(first + slab, top)]
            coef = np.take_along_axis(part, cols[:, None, :], axis=2)
            if coef.any():  # rows e_c are zero in every later pivot column
                part -= _mulmod(coef.astype(np.int64), step, prime)
                np.add(part, prime, out=part, where=part < 0)
        basis, pivots = np.concatenate((basis, step), axis=1), np.concatenate((pivots, cols), axis=1)
        if unit:  # e_c times a step is its row c; reducing it against the e_c zeroes columns c
            block = steps[:, cols[0]].astype(np.int64)
            block[:, :, cols[0]] = 0
            unit = False
        else:
            block = _mulmod(block, steps, prime)
            coef = np.take_along_axis(block, pivots[:, None, :], axis=2)
            block = _mod(block - _mulmod(coef, basis, prime), prime)
        new, cols = _eliminate(block, prime)
    raise RuntimeError(f"Krylov rank mod {prime} passed n = {n} pivots or n + 1 blocks: wrong products")


def controllability_rank(laplacian: np.ndarray, inputs: np.ndarray) -> int:
    """Rank of ``[B, -LB, (-L)^2 B, ..., (-L)^(n-1) B]`` modulo a prime near 2**31.

    Takes integer-valued matrices (``ValueError`` otherwise) with at most
    ``DENSE_NODE_GUARD`` rows, the inner size up to which the limb products are exact.
    The rank mod p never exceeds the rational rank, so the result is a proved lower
    bound on it. This is always the full Krylov rank; only ``validate_ssc_bound`` stops
    at its bound."""
    n = np.shape(laplacian)[0] if np.ndim(laplacian) == 2 else -1
    _guard_dense(n, "the rank check")
    lap, mat_b = _residues(laplacian, _PRIME), _residues(inputs, _PRIME)
    if lap.shape != (n, n) or mat_b.ndim != 2 or mat_b.shape[0] != n:
        raise ValueError(f"dimension mismatch: laplacian {lap.shape}, inputs {mat_b.shape}")
    step = (-lap.T % _PRIME).astype(np.float64)
    return int(_rank_mod(step[None], mat_b.T, _PRIME)[0])


def _stack_ranks(steps: np.ndarray, inputs: np.ndarray, bound: int) -> np.ndarray:
    """Ranks proved at each trial's own stop for a stack of Laplacians with integer weights
    below ``_PRIME`` (one ``_rank_mod`` pass per prime).

    Turns the stack into steps ``(-L)^T`` in place: L is symmetric, so that is one
    negation, the off-diagonal weights are residues for both primes, and only the
    diagonal (minus the row sums, exact in float64 below 2**43) is reduced per prime.
    Trials short of ``bound`` mod ``_PRIME`` are re-run mod 2**31 - 1, which is prime;
    both ranks are proved lower bounds, so each trial keeps the larger."""
    n = steps.shape[-1]
    np.negative(steps, out=steps)
    diagonal = steps.reshape(len(steps), n * n)[:, :: n + 1]  # a view into steps
    sums = diagonal.copy()
    diagonal[:] = sums % _PRIME
    ranks = _rank_mod(steps, inputs, _PRIME, target=bound)
    short = np.flatnonzero(ranks < bound)
    if short.size:
        diagonal[short] = sums[short] % (2**31 - 1)
        ranks[short] = np.maximum(ranks[short], _rank_mod(steps[short], inputs, 2**31 - 1, target=bound))
    return ranks


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
    The trials run in stacks of ``max(1, _STACK_BYTES // (8 n^2))``, each one pass of
    ``_rank_mod``: its trials stay in the pass until the last one stops, and each reports
    the rank proved at its own stop. A stack's steps ``(-L)^T`` come from one
    ``laplacian`` call on float64 weights: weights below 2**31 and row sums below 2**43
    are exact there, L is symmetric, so ``(-L)^T`` is one negation and only the diagonal
    is reduced per prime. A shortfall re-runs only the short trials of the stack with the
    second prime. ``bound`` and ``trials`` must be integers >= 1, ``seed`` one >= 0
    (``ValueError`` otherwise). The graph must be connected, with at most
    ``DENSE_NODE_GUARD`` nodes.
    """
    leaders, seed = _check_leaders(g.n, leaders), _integer(seed, "seed", 0)
    bound, trials = _integer(bound, "claimed bound", 1), _integer(trials, "trials", 1)
    if not is_connected(g):
        raise DisconnectedGraphError("rank validation needs a connected graph")
    n = g.n
    inputs = input_matrix(n, leaders).T.astype(np.int64)
    u, v = g._arrays

    def draw(trial: int) -> np.ndarray:
        return np.random.default_rng([seed, trial]).integers(1, _PRIME, size=u.size)

    ranks = np.zeros(trials, dtype=np.int64)
    per_stack = max(1, _STACK_BYTES // (8 * n * n))
    for first in range(0, trials, per_stack):
        chunk = range(first, min(first + per_stack, trials))
        # The weights die with the laplacian call; the stack before the next one is built.
        steps = laplacian(n, u, v, np.array([draw(trial) for trial in chunk], dtype=np.float64))
        ranks[chunk.start : chunk.stop] = _stack_ranks(steps, inputs, bound)
        del steps
    short = np.flatnonzero(ranks < bound)
    min_rank = int(ranks.min())
    return RankValidationReport(
        claimed_bound=bound,
        trials=trials,
        min_rank=min_rank,
        passed=min_rank >= bound,
        ranks=tuple(ranks.tolist()),
        failing_weights=tuple(zip(u.tolist(), v.tolist(), draw(short[0]).tolist())) if short.size else None,
    )


def kirchhoff_index(g: Graph) -> float:
    """Sum of reciprocals of the nonzero eigenvalues of the unweighted Laplacian.

    Lower is more robust; adding any edge to a connected graph strictly
    decreases it. Needs a connected graph with at most ``DENSE_NODE_GUARD`` nodes;
    connectivity is read from the spectrum, so it is refused after the eigensolver.
    """
    u, v = g._arrays
    eigenvalues = np.linalg.eigvalsh(laplacian(g.n, u, v, np.ones(u.size)))
    # lambda_2 is 0 if disconnected, else >= 2 - 2cos(pi/n) > 1/n^2 (Fiedler; paths attain it).
    if g.n > 1 and eigenvalues[1] < 1 / g.n**2:
        raise DisconnectedGraphError("Kirchhoff index needs a connected graph")
    return float(np.sum(1.0 / eigenvalues[1:]))
