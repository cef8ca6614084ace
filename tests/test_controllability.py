import json
import re
import time
import tracemalloc
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netaug import (
    DisconnectedGraphError,
    DistanceVector,
    GenSpec,
    Graph,
    PMISequence,
    SizeGuardError,
    augment_intersection,
    augment_randomized,
    controllability_rank,
    erdos_renyi,
    input_matrix,
    kirchhoff_index,
    laplacian,
    pmi_exact,
    pmi_greedy,
    validate_ssc_bound,
)
import netaug.controllability as controllability
from netaug.controllability import (
    _PRIME, _STACK_BYTES, _distinct_vectors, _mulmod, _pmi_search, _rank_mod, _residues,
    _stack_ranks,
)
from netaug.graphs import DENSE_NODE_GUARD
from helpers import (
    bfs_oracle,
    brute_pmi_length,
    complete_graph,
    cycle_graph,
    effective_resistance_total,
    greedy_pmi_oracle,
    is_pmi_oracle,
    krylov_rank_oracle,
    path_graph,
    random_connected_graph,
    star_graph,
    with_edges,
)


def distance_vectors(g: Graph, leaders) -> list[tuple[int, ...]]:
    """Each node's hop distances to the leaders, in leader order, by ``bfs_oracle``."""
    dist = bfs_oracle(g, leaders)
    return [tuple(dist[ell][v] for ell in leaders) for v in range(g.n)]


def pmi_sequence(vectors, witnesses) -> PMISequence:
    """A ``PMISequence`` over ``vectors``, node i holding the i-th."""
    return PMISequence(tuple(DistanceVector(i, tuple(vec)) for i, vec in enumerate(vectors)), tuple(witnesses))


class TestDistanceVectors:
    """``_distinct_vectors``, the one reader of distance vectors behind both PMI
    searches, and the leader and graph checks of those searches."""

    def test_path_two_leaders(self):
        assert _distinct_vectors(path_graph(3), (0, 2)) == {(0, 2): 0, (1, 1): 1, (2, 0): 2}

    def test_leader_entry_is_zero_iff_leader(self):
        g = random_connected_graph(8, 0.4, seed=2)
        for vec, node in _distinct_vectors(g, (3, 5)).items():
            assert (vec[0] == 0) == (node == 3)
            assert (vec[1] == 0) == (node == 5)

    def test_star_single_leader(self):
        # Leaves share a vector; the smallest node id holds it.
        assert _distinct_vectors(star_graph(3), (0,)) == {(0,): 0, (1,): 1}

    def test_disconnected_rejected(self):
        for search in (pmi_greedy, pmi_exact):
            with pytest.raises(DisconnectedGraphError):
                search(Graph(3, [(0, 1)]), (0,))

    def test_leader_out_of_range(self):
        for search in (pmi_greedy, pmi_exact):
            with pytest.raises(ValueError, match="leader 5 out of range for n=3"):
                search(path_graph(3), (5,))

    def test_duplicate_leaders_rejected(self):
        for search in (pmi_greedy, pmi_exact):
            with pytest.raises(ValueError, match="leaders must be distinct"):
                search(path_graph(3), (0, 0))

    def test_empty_leaders_rejected(self):
        for check in (pmi_greedy, pmi_exact, lambda g, leaders: validate_ssc_bound(g, leaders, 1)):
            with pytest.raises(ValueError, match="^at least one leader is required$"):
                check(path_graph(3), ())


class TestIsPMI:
    """The PMI condition as ``PMISequence`` checks it, on examples the scalar
    oracle ``is_pmi_oracle`` decides too."""

    def test_length_five_example(self):
        vecs = [[0, 2], [2, 0], [1, 2], [2, 1], [3, 1]]
        check = is_pmi_oracle(vecs)
        assert check.ok
        assert pmi_sequence(vecs, check.witnesses).witnesses == check.witnesses

    def test_equal_vectors_fail(self):
        assert is_pmi_oracle([[0], [0]]).violation == (0, 1)
        with pytest.raises(ValueError, match="PMI witness 0 for node 0 does not hold"):
            pmi_sequence([[0], [0]], (0, 0))

    def test_two_leader_pair(self):
        assert is_pmi_oracle([[0, 2], [2, 0]]).witnesses == (0, 0)
        assert len(pmi_sequence([[0, 2], [2, 0]], (0, 0))) == 2

    def test_ragged_rejected(self):
        # The backward pass meets the short vector first.
        with pytest.raises(ValueError, match="all vectors must have the same length"):
            pmi_sequence([[0, 1], [0]], (0, 0))

    def test_witnesses_certify(self):
        # Every coordinate that certifies position i is accepted there, every
        # other one refused.
        vecs = [[0, 2], [2, 0], [1, 2], [2, 1], [3, 1]]
        witnesses = list(is_pmi_oracle(vecs).witnesses)
        for i in range(len(vecs)):
            for alpha in range(2):
                certifies = all(vecs[i][alpha] < vecs[j][alpha] for j in range(i + 1, len(vecs)))
                trial = witnesses[:i] + [alpha] + witnesses[i + 1 :]
                if certifies:
                    assert pmi_sequence(vecs, trial).witnesses == tuple(trial)
                else:
                    with pytest.raises(ValueError, match=f"PMI witness {alpha} for node {i} does not hold"):
                        pmi_sequence(vecs, trial)


class TestPMIExact:
    def test_path_single_leader(self):
        assert len(pmi_exact(path_graph(4), (0,))) == 4

    def test_star_center_leader(self):
        assert len(pmi_exact(star_graph(4), (0,))) == 2

    def test_path_two_leaders(self):
        seq = pmi_exact(path_graph(3), (0, 2))
        assert len(seq) == 3
        assert is_pmi_oracle(seq.raw_vectors()).ok

    def test_guard_counts_search_work(self, monkeypatch):
        # P22 with an end leader: 22 distinct vectors and 23 reachable minima
        # (the empty suffix's and one per vector), so the search does 23 x 22
        # steps. pmi_exact answers one leader without it, so call it directly.
        monkeypatch.setattr(controllability, "PMI_EXACT_GUARD", 23 * 22)
        assert len(_pmi_search(path_graph(22), (0,))) == 22
        monkeypatch.setattr(controllability, "PMI_EXACT_GUARD", 23 * 22 - 1)
        with pytest.raises(SizeGuardError, match="pmi_greedy"):
            _pmi_search(path_graph(22), (0,))

    def test_long_path_needs_no_recursion(self):
        # Deeper than the interpreter's recursion limit, and far past the
        # 20-vector refusal of a search memoized on the chosen set.
        seq = _pmi_search(path_graph(1100), (0,))
        assert seq.nodes() == tuple(range(1100))
        assert is_pmi_oracle(seq.raw_vectors()).ok

    def test_one_leader_equals_the_search(self):
        for seed in range(30):
            g = random_connected_graph(4 + seed % 9, 0.3, seed=seed + 900)
            for leader in {0, g.n // 2, g.n - 1}:
                assert pmi_exact(g, (leader,)) == _pmi_search(g, (leader,))

    def test_one_leader_needs_no_search(self):
        # The search took ~2 s here: 1101 reachable minima x 1100 vectors.
        g = path_graph(1100)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            seq = pmi_exact(g, (0,))
            elapsed.append(time.perf_counter() - start)
        assert seq.nodes() == tuple(range(1100)) and min(elapsed) < 0.1

    def test_iterator_leaders_match_tuple(self):
        g = cycle_graph(6)
        assert pmi_exact(g, iter([0, 4])) == pmi_exact(g, (0, 4))

    def test_first_optimal_vector_kept_at_each_step(self):
        # Built back to front; at each step the smallest vector (in sorted
        # order) that starts a longest continuation is taken.
        seq = pmi_exact(path_graph(3), (0, 2))
        assert (seq.nodes(), seq.witnesses) == ((2, 1, 0), (1, 1, 0))
        seq = pmi_exact(cycle_graph(6), (0, 2))
        assert (seq.nodes(), seq.witnesses) == ((2, 1, 0, 4, 5), (1, 1, 0, 1, 0))

    def test_matches_enumeration_oracle(self):
        for seed in range(8):
            g = random_connected_graph(6, 0.5, seed=seed)
            leaders = (0, g.n - 1)
            distinct = set(distance_vectors(g, leaders))
            if len(distinct) > 6:
                continue
            assert len(pmi_exact(g, leaders)) == brute_pmi_length(distinct)


class TestPMIGreedy:
    def test_single_leader_counts_distinct_distances(self):
        for seed in range(6):
            g = random_connected_graph(10, 0.3, seed=seed)
            distances = set(distance_vectors(g, (0,)))
            assert len(pmi_greedy(g, (0,))) == len(distances)

    def test_path_two_leaders(self):
        assert len(pmi_greedy(path_graph(3), (0, 2))) == 3

    def test_complete_graph_leaders_lead(self):
        seq = pmi_greedy(complete_graph(5), (0, 1))
        assert len(seq) >= 2
        assert seq.nodes()[:2] == (0, 1)

    def test_always_valid_and_no_longer_than_exact(self):
        for seed in range(8):
            g = random_connected_graph(8, 0.4, seed=seed + 50)
            leaders = (1, 4)
            greedy = pmi_greedy(g, leaders)
            assert is_pmi_oracle(greedy.raw_vectors()).ok
            exact = pmi_exact(g, leaders)
            assert is_pmi_oracle(exact.raw_vectors()).ok
            assert len(greedy) <= len(exact)

    def test_leader_permutation_keeps_max_length(self):
        # The maximum PMI length is invariant under coordinate permutation;
        # the greedy heuristic's tie-breaking is coordinate-order sensitive,
        # so the invariance is asserted on the exact search.
        for seed in range(4):
            g = random_connected_graph(9, 0.35, seed=seed + 100)
            assert len(pmi_exact(g, (2, 6))) == len(pmi_exact(g, (6, 2)))

    def test_iterator_leaders_match_tuple(self):
        g = cycle_graph(6)
        assert pmi_greedy(g, iter([0, 4])) == pmi_greedy(g, (0, 4))

    @pytest.mark.parametrize("leader", [0.5, True, "0"])
    def test_leaders_must_be_integers(self, leader):
        with pytest.raises(ValueError, match=f"leader must be an integer, got {leader!r}"):
            pmi_greedy(path_graph(3), (leader,))

    def test_numpy_integer_leaders_stored_as_int(self):
        leaders = controllability._check_leaders(3, np.array([2, 0]))
        assert leaders == (2, 0) and all(type(ell) is int for ell in leaders)

    def test_json_round_trip(self):
        seq = pmi_greedy(path_graph(4), (0, 3))
        assert PMISequence.from_json(seq.to_json()) == seq

    def test_ragged_vectors_rejected(self):
        ragged = (DistanceVector(0, (0, 2)), DistanceVector(1, (1,)))
        with pytest.raises(ValueError, match="all vectors must have the same length"):
            PMISequence(ragged, (0, 0))
        assert len(PMISequence((), ())) == 0

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"node": 1.7, "vector": [1], "witness": 0}, "node"),
            ({"node": 1, "vector": [1.5], "witness": 0}, "vector"),
            ({"node": 1, "vector": [1], "witness": 0.5}, "witness"),
        ],
    )
    def test_json_non_integral_rejected(self, entry, field):
        with pytest.raises(ValueError, match=field):
            PMISequence.from_json([entry])

    @pytest.mark.parametrize("bad", [1.0, True, np.float64(0.0)])
    def test_witness_must_be_an_integer(self, bad):
        # A bool witness would be written as JSON true, which from_json refuses.
        vectors = (DistanceVector(0, (0, 0)), DistanceVector(1, (1, 1)))
        with pytest.raises(ValueError, match=f"^witness must be an integer, got {re.escape(repr(bad))}$"):
            PMISequence(vectors, (bad, 0))
        seq = PMISequence(vectors, (np.int64(1), 0))
        assert seq.witnesses == (1, 0) and type(seq.witnesses[0]) is int
        assert PMISequence.from_json(json.loads(json.dumps(seq.to_json()))) == seq


@st.composite
def pmi_instances(draw):
    """A connected graph on 1-14 nodes (random tree plus extra edges) and
    1-4 distinct leaders in random order."""
    n = draw(st.integers(1, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    order = draw(st.permutations(range(n)))
    return Graph(n, edges | extra), tuple(order[: draw(st.integers(1, min(4, n)))])


class TestPMIOracleProperties:
    @settings(max_examples=150, deadline=None)
    @given(pmi_instances())
    def test_greedy_matches_rescan_oracle(self, instance):
        g, leaders = instance
        seq = pmi_greedy(g, leaders)
        assert seq == greedy_pmi_oracle(g, leaders)
        assert is_pmi_oracle(seq.raw_vectors()).ok

    @settings(max_examples=150, deadline=None)
    @given(pmi_instances(), st.data())
    def test_is_pmi_matches_scalar_oracle(self, instance, data):
        # Any ordering of any subset of the distance vectors, repeats allowed,
        # so both PMI runs and violations are exercised. PMISequence builds with
        # the oracle's witnesses on a run the oracle accepts, and with drawn
        # witnesses iff each one certifies its position.
        g, leaders = instance
        vectors = distance_vectors(g, leaders)
        picks = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
        run = tuple(DistanceVector(v, vectors[v]) for v in picks)
        check = is_pmi_oracle([dv.dist for dv in run])
        if check.ok:
            assert PMISequence(run, check.witnesses).witnesses == check.witnesses
        drawn = data.draw(st.lists(st.integers(0, len(leaders) - 1), min_size=len(run), max_size=len(run)))
        holds = all(
            all(later.dist[w] > dv.dist[w] for later in run[i + 1 :]) for i, (dv, w) in enumerate(zip(run, drawn))
        )
        assert check.ok or not holds
        if holds:
            assert PMISequence(run, tuple(drawn)).witnesses == tuple(drawn)
        else:
            with pytest.raises(ValueError, match="does not hold"):
                PMISequence(run, tuple(drawn))

    @settings(max_examples=100, deadline=None)
    @given(pmi_instances())
    def test_exact_length_matches_brute_force(self, instance):
        g, leaders = instance
        distinct = set(distance_vectors(g, leaders))
        assume(len(distinct) <= 7)
        seq = pmi_exact(g, leaders)
        assert len(seq) == brute_pmi_length(distinct)
        assert is_pmi_oracle(seq.raw_vectors()).ok

    @settings(max_examples=60, deadline=None)
    @given(pmi_instances())
    def test_exact_witnesses_match_oracle(self, instance):
        g, leaders = instance
        seq = pmi_exact(g, leaders)
        check = is_pmi_oracle(seq.raw_vectors())
        assert check.ok and check.witnesses == seq.witnesses
        assert len(seq) >= len(pmi_greedy(g, leaders))


def graph_laplacian(g: Graph, weights=None) -> np.ndarray:
    """``laplacian`` over the graph's sorted edges; unit int64 weights by default."""
    u, v = g._arrays
    return laplacian(g.n, u, v, np.ones(u.size, dtype=np.int64) if weights is None else weights)


class TestControllabilityRank:
    def test_two_node_path(self):
        rank = controllability_rank(graph_laplacian(path_graph(2)), input_matrix(2, (0,)))
        assert rank == 2

    def test_identity_inputs_full_rank(self):
        lap = graph_laplacian(random_connected_graph(6, 0.5, seed=1))
        assert controllability_rank(lap, np.eye(6)) == 6

    def test_triangle_one_leader_symmetry_collapse(self):
        rank = controllability_rank(graph_laplacian(complete_graph(3)), input_matrix(3, (0,)))
        assert rank == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            controllability_rank(np.eye(3), np.ones((4, 1)))
        for lap, inputs in [
            (np.array(5), np.ones((1, 1))),
            (np.ones(3), np.ones((3, 1))),
            (np.eye(3), np.ones(3)),
        ]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                controllability_rank(lap, inputs)
        # A bool, a fractional or a repeated leader, or a fractional node count.
        for n, leaders, message in [
            (3, [True], "leader must be an integer"),
            (3, [1.5], "leader must be an integer"),
            (3, [0, 0], "leaders must be distinct"),
            (2.5, [0], "node count must be an integer"),
        ]:
            with pytest.raises(ValueError, match=message):
                input_matrix(n, leaders)

    def test_deficiency_hidden_by_a_change_of_basis(self):
        # L = S M S^-1 with M block upper triangular and B = S [B1; 0]: the Krylov
        # space has dimension k < n. Full-size residues meet in every product, so
        # an overflowing modular product shows up as a rank above k.
        rng = np.random.default_rng(5)
        n, k = 12, 7
        lower = np.tril(rng.integers(-2, 3, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(-2, 3, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        s, s_inv = lower @ upper, np.rint(np.linalg.inv(upper) @ np.linalg.inv(lower)).astype(np.int64)
        assert (s @ s_inv == np.eye(n)).all()
        m = rng.integers(-3, 4, size=(n, n))
        m[k:, :k] = 0
        inputs = s @ np.vstack([rng.integers(-3, 4, size=(k, 1)), np.zeros((n - k, 1), dtype=np.int64)])
        lap = s @ m @ s_inv
        assert controllability_rank(lap, inputs) == krylov_rank_oracle(lap, inputs) == k

    def test_unsigned_entries_above_int64_reduce_exactly(self):
        # 2**64 - p is not 0 mod p, but cast to int64 first it wraps to -p, which is.
        x = 2**64 - _PRIME
        lap = np.array([[0, x], [x, 0]], dtype=np.uint64)
        inputs = np.array([[1], [0]], dtype=np.uint64)
        assert controllability_rank(lap, inputs) == krylov_rank_oracle(lap, inputs) == 2
        assert _residues(np.array([[2**63 + 5]], dtype=np.uint64), _PRIME).tolist() == [[727]]

    def test_size_guard_fires_before_the_residues(self):
        # The limb products are exact up to DENSE_NODE_GUARD terms. A broadcast view
        # holds no memory, so the guard must fire before any copy is made.
        big = np.broadcast_to(np.int64(0), (DENSE_NODE_GUARD + 1,) * 2)
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            controllability_rank(big, big[:, :1])

    def test_non_integral_entry_rejected(self):
        lap = graph_laplacian(path_graph(2), np.array([0.5]))
        with pytest.raises(ValueError, match="integer-valued"):
            controllability_rank(lap, input_matrix(2, (0,)))

    @pytest.mark.parametrize(
        "g, leaders",
        [(random_connected_graph(12, 0.4, seed=3), (0, 5, 9)), (path_graph(60), (0,))],
    )
    def test_target_stops_within_one_block_of_it(self, g, leaders):
        weights = np.random.default_rng(8).integers(1, _PRIME, size=g.num_edges())
        lap, inputs = graph_laplacian(g, weights), input_matrix(g.n, leaders)
        full = controllability_rank(lap, inputs)
        step, block = (-lap.T % _PRIME).astype(np.float64)[None], inputs.T.astype(np.int64)
        assert _rank_mod(step, block, _PRIME, target=None).tolist() == [full]
        for target in range(1, full + 3):
            (rank,) = _rank_mod(step, block, _PRIME, target=target)
            if target >= full:
                assert rank == full
            else:
                assert target <= rank < target + len(leaders)


class TestLimbProduct:
    @pytest.mark.parametrize("prime", [_PRIME, 2**31 - 1])
    @pytest.mark.parametrize("inner", [1, 128, 129, 4096])
    @pytest.mark.parametrize("fill", ["p - 1", "odd limb", "random"])
    def test_products_are_exact(self, prime, inner, fill):
        # All p - 1 gives the largest partial sums; random entries tell the limb
        # products apart, which equal operands cannot. Inner sizes 128 and 129 sit on
        # both sides of the 16-/11-bit split. A top 16-bit limb of 2**15 - 1 times the
        # odd p - 2 sums to an odd integer past 2**53 at 129 terms, which float64 rounds.
        if fill == "random":
            rng = np.random.default_rng(inner)
            a, b = rng.integers(0, prime, size=(2, inner)), rng.integers(0, prime, size=(inner, 3))
        elif fill == "odd limb":
            a = np.full((2, inner), (2**15 - 1) << 16 | 1, dtype=np.int64)
            b = np.full((inner, 3), prime - 2, dtype=np.int64)
        else:
            a = np.full((2, inner), prime - 1, dtype=np.int64)
            b = np.full((inner, 3), prime - 1, dtype=np.int64)
        exact = [[sum(map(mul, row, col)) % prime for col in zip(*b.tolist())] for row in a.tolist()]
        assert _mulmod(a, b.astype(np.float64), prime).tolist() == exact
        # One unsplit float64 product rounds: (p - 1)**2 alone needs 62 bits.
        assert np.fmod(a.astype(np.float64) @ b.astype(np.float64), prime).tolist() != exact


class TestValidateBound:
    def test_path_full_rank(self):
        report = validate_ssc_bound(path_graph(3), (0,), bound=3, trials=20, seed=0)
        assert report.passed and report.min_rank == 3

    def test_leaders_only_bound(self):
        g = random_connected_graph(9, 0.4, seed=7)
        report = validate_ssc_bound(g, (1, 3, 8), bound=3, trials=10, seed=1)
        assert report.passed

    def test_impossible_bound_fails(self):
        report = validate_ssc_bound(path_graph(3), (0,), bound=4, trials=5, seed=0)
        assert not report.passed
        assert report.failing_weights is not None
        assert report.min_rank == 3

    def test_rank_at_least_pmi_per_sample(self):
        for seed in range(5):
            g = random_connected_graph(8, 0.35, seed=seed + 20)
            leaders = (0, 5)
            delta = len(pmi_greedy(g, leaders))
            report = validate_ssc_bound(g, leaders, bound=delta, trials=8, seed=seed)
            assert report.passed, f"rank fell below the PMI length on seed {seed}"

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            validate_ssc_bound(Graph(3, [(0, 1)]), (0,), bound=1, trials=1)

    @pytest.mark.parametrize("n", [10, 30, 60])
    def test_long_path_end_leader_is_tight(self, n):
        # The PMI bound n is tight and needs all n - 1 Krylov powers.
        report = validate_ssc_bound(path_graph(n), (0,), bound=n, trials=5, seed=0)
        assert report.passed and report.min_rank == n

    def test_single_node_without_edges(self):
        report = validate_ssc_bound(Graph(1), (0,), bound=1, trials=3, seed=0)
        assert report.passed and report.min_rank == 1 and report.ranks == (1, 1, 1)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            validate_ssc_bound(path_graph(DENSE_NODE_GUARD + 1), (0,), bound=1, trials=1)

    def test_failing_weights_are_ints(self):
        report = validate_ssc_bound(path_graph(3), (0,), bound=4, trials=2, seed=0)
        assert [(u, v) for u, v, _ in report.failing_weights] == [(0, 1), (1, 2)]
        assert all(type(w) is int and w >= 1 for _, _, w in report.failing_weights)

    def test_failing_weights_follow_sorted_edges(self):
        # The weight stream is drawn in sorted-edge order; the report pairs
        # each weight with its edge in that order.
        g = random_connected_graph(12, 0.5, seed=3)
        report = validate_ssc_bound(g, (0,), bound=g.n + 1, trials=1, seed=4)
        assert [(u, v) for u, v, _ in report.failing_weights] == sorted(g.edges)
        weights = np.random.default_rng([4, 0]).integers(1, _PRIME, size=g.num_edges())
        assert [w for _, _, w in report.failing_weights] == weights.tolist()

    @pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, "3", None])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            validate_ssc_bound(path_graph(3), (0,), bound=3, trials=trials)

    @pytest.mark.parametrize("bound", [True, False, 2.5, 3.0, "3", None])
    def test_bound_must_be_an_integer(self, bound):
        with pytest.raises(ValueError, match="claimed bound must be an integer"):
            validate_ssc_bound(path_graph(3), (0,), bound=bound, trials=2)

    def test_numpy_integer_bound_reports_a_python_int(self):
        report = validate_ssc_bound(path_graph(3), (0,), bound=np.int64(3), trials=2)
        assert report.passed and type(report.claimed_bound) is int
        assert json.loads(json.dumps(report.to_json()))["claimed_bound"] == 3

    @pytest.mark.parametrize("seed", [True, 2.5])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            validate_ssc_bound(path_graph(3), (0,), bound=3, trials=2, seed=seed)

    def test_negative_seed_names_itself(self):
        # NumPy's own refusal of a negative stream seed names neither the argument nor the value.
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            validate_ssc_bound(path_graph(3), (0,), bound=3, trials=2, seed=-1)

    def test_numpy_integer_trials_report_a_python_int(self):
        report = validate_ssc_bound(path_graph(3), (0,), bound=3, trials=np.int64(2))
        assert report.trials == 2 and type(report.trials) is int and len(report.ranks) == 2


def per_stack(n: int) -> int:
    return max(1, _STACK_BYTES // (8 * n * n))


class TestStackedValidation:
    def test_wrong_products_raise_instead_of_looping(self, monkeypatch):
        # One added to every product: reduction no longer clears the pivot columns, so
        # every block finds "new" pivots. Without the cap the full rank would never stop,
        # and the validator would report a rank above n as a pass.
        right = controllability._mulmod
        monkeypatch.setattr(controllability, "_mulmod", lambda a, b, prime: (right(a, b, prime) + 1) % prime)
        g = path_graph(6)
        with pytest.raises(RuntimeError, match="wrong products"):
            controllability_rank(graph_laplacian(g), input_matrix(6, (0,)))
        with pytest.raises(RuntimeError, match="wrong products"):
            validate_ssc_bound(g, (0,), bound=7, trials=3, seed=0)

    def test_stacks_match_a_per_trial_reference(self):
        # The smallest n whose stack holds fewer than `trials` trials, so the run spans
        # two stacks. Bounds stop the trials after the first, a middle and the last
        # productive block; full + 1 fails every trial, re-checked mod 2**31 - 1.
        trials, seed, leaders = 40, 9, (0, 7, 19)
        n = next(n for n in range(2, DENSE_NODE_GUARD) if per_stack(n) < trials)
        g = random_connected_graph(n, 3 / n, seed=2)
        u, v = g._arrays
        inputs = input_matrix(n, leaders)
        laps = [
            laplacian(n, u, v, np.random.default_rng([seed, t]).integers(1, _PRIME, size=u.size))
            for t in range(trials)
        ]
        full = [controllability_rank(lap, inputs) for lap in laps]
        steps = [(-lap.T % _PRIME).astype(np.float64)[None] for lap in laps]
        block = inputs.T.astype(np.int64)
        for bound in (1, min(full) // 2, min(full), max(full) + 1):
            report = validate_ssc_bound(g, leaders, bound, trials=trials, seed=seed)
            expected = [
                rank if rank < bound else int(_rank_mod(step, block, _PRIME, target=bound)[0])
                for rank, step in zip(full, steps)
            ]
            assert list(report.ranks) == expected
            assert report.passed == (min(full) >= bound)
            assert all(bound <= r < bound + len(leaders) for r, f in zip(report.ranks, full) if f >= bound)
            if not report.passed:
                first = next(t for t, rank in enumerate(full) if rank < bound)
                assert [w for _, _, w in report.failing_weights] == (-laps[first][u, v]).tolist()

    def test_trials_stop_in_different_blocks(self):
        # Leader at the centre of a star: the rank is 1 + the number of distinct leaf
        # weights, one new pivot per block. Trials with repeated weights stop early and
        # fall short; the others run on as a non-contiguous part of the stack.
        leaves = 6
        g = star_graph(leaves)
        u, v = g._arrays
        distinct = np.arange(1, leaves + 1) * 1_000_003
        weights = np.array([distinct, [5] * leaves, distinct[::-1], [5, 5, 9, 9, 9, 9], distinct * 7])
        inputs = input_matrix(leaves + 1, (0,))
        full = [controllability_rank(laplacian(leaves + 1, u, v, w), inputs) for w in weights]
        assert full == [7, 2, 7, 3, 7]
        for bound in (3, 7, 8):
            stack = laplacian(leaves + 1, u, v, weights.astype(np.float64))
            ranks = _stack_ranks(stack, inputs.T.astype(np.int64), bound)
            assert ranks.tolist() == [min(r, bound) for r in full]  # one pivot per block

    def test_second_prime_raises_a_short_rank(self):
        # Leader 0 with three arms 0-x-y, weighted (a, b) on (0x, xy). An arm's block of L
        # has trace a + 2b and determinant ab; the arm (2b, (a + p) / 2) matches them modulo
        # p only, so the two arms share their eigenvalues there and the rank drops by 2.
        # Trial 0 twins arm 1 modulo _PRIME, which the re-run modulo 2**31 - 1 undoes;
        # trial 1 twins it modulo both primes and stays short. Row sums pass 2**31.
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        u, v = g._arrays  # (0,1), (0,3), (0,5), (1,2), (3,4), (5,6)
        a, b = 2**30 + 1, 2**29
        half = {p: (a + p) // 2 for p in (_PRIME, 2**31 - 1)}
        weights = np.array([
            [a, 2 * b, 3, b, half[_PRIME], 5],
            [a, 2 * b, 2 * b, b, half[_PRIME], half[2**31 - 1]],
        ])
        inputs = input_matrix(7, (0,))
        primes = (None, _PRIME, 2**31 - 1)
        full = [[krylov_rank_oracle(laplacian(7, u, v, w), inputs, prime=p) for p in primes] for w in weights]
        assert full == [[7, 5, 7], [7, 5, 5]]
        stack = laplacian(7, u, v, weights.astype(np.float64))
        assert _stack_ranks(stack, inputs.T.astype(np.int64), 7).tolist() == [7, 5]

    def test_ragged_stacks_match_single_trial_runs(self):
        # Inputs e_0, e_1 and generic steps gain two pivots per block; where e_1 is a left
        # eigenvector of the step, one per block. Mixed in one stack, the trials hold bases
        # of different sizes, stop in different blocks and leave a non-contiguous live set.
        n, rng = 8, np.random.default_rng(11)
        steps = rng.integers(0, _PRIME, size=(5, n, n))
        for t in (0, 2):
            steps[t, 1] = 0
            steps[t, 1, 1] = rng.integers(1, _PRIME)
        inputs = np.eye(2, n, dtype=np.int64)
        stack = steps.astype(np.float64)
        for target in (None, 3, 5, n, n + 1):
            ranks = _rank_mod(stack, inputs, _PRIME, target=target).tolist()
            assert ranks == [_rank_mod(stack[t : t + 1], inputs, _PRIME, target=target)[0] for t in range(5)]
            if target is None:
                assert ranks == [krylov_rank_oracle(-step.T, inputs.T, prime=_PRIME) for step in steps]
                assert ranks == [n, n, n, n, n]

    def test_memory_is_bounded_by_the_stack(self):
        # P60 with an end leader runs to full rank (a basis as large as the stack); ER
        # n = 200 holds few trials per stack. Neither peak grows with the trial count
        # beyond the growth of the stack itself.
        er = erdos_renyi(GenSpec(model="erdos-renyi", n=200, p=10 / 199, seed=1))
        leaders = (0, 50, 100, 150, 199)
        cases = [(path_graph(60), (0,), 60), (er, leaders, len(pmi_greedy(er, leaders)))]
        validate_ssc_bound(*cases[0], trials=1)  # first-call imports are not the validator's
        for g, leaders, bound in cases:
            peaks = {}
            for trials in (25, 100):
                tracemalloc.start()
                try:
                    assert validate_ssc_bound(g, leaders, bound, trials=trials).passed
                    peaks[trials] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert max(peaks.values()) < 4 * max(_STACK_BYTES, 8 * g.n**2)
            growth = min(100, per_stack(g.n)) / min(25, per_stack(g.n))
            assert peaks[100] < 1.1 * growth * peaks[25]


@st.composite
def weighted_instances(draw, min_n=1, max_n=7, max_leaders=None, max_weight=50):
    """A connected graph on at most ``max_n`` nodes (random tree plus extra edges),
    int64 weights 1..``max_weight`` (one per sorted edge) and a random ordered leader set."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, edges | extra)
    weights = np.array([draw(st.integers(1, max_weight)) for _ in range(g.num_edges())], dtype=np.int64)
    order = draw(st.permutations(range(n)))
    leaders = tuple(order[: draw(st.integers(1, min(n, max_leaders or n)))])
    return g, weights, leaders


@st.composite
def weight_stacks(draw):
    """A ``weighted_instances`` graph and leaders, 2-6 rows of edge weights 1..3 and a
    target that is ``None`` or 1..n+1."""
    g, _, leaders = draw(weighted_instances())
    size = g.num_edges()
    weights = draw(st.lists(st.lists(st.integers(1, 3), min_size=size, max_size=size), min_size=2, max_size=6))
    return g, leaders, weights, draw(st.none() | st.integers(1, g.n + 1))


class TestRankProperties:
    @settings(max_examples=160, deadline=None)
    @given(st.sampled_from((50, _PRIME - 1)).flatmap(lambda top: weighted_instances(max_weight=top)))
    def test_rank_equals_rational_oracle(self, instance):
        # Weights up to p - 1 fill the high limbs of every product. Mod p the rank must
        # equal the oracle's. The rational rank may exceed it (see the next test); with
        # weights up to 50 the two agree.
        g, weights, leaders = instance
        lap = graph_laplacian(g, weights)
        inputs = input_matrix(g.n, leaders)
        rank, rational = controllability_rank(lap, inputs), krylov_rank_oracle(lap, inputs)
        assert rank == krylov_rank_oracle(lap, inputs, prime=_PRIME)
        assert rank == rational if weights.max(initial=0) <= 50 else rank <= rational

    @settings(max_examples=80, deadline=None)
    @example((Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]), (2, 3), [[3, 3, 2, 1, 3], [1] * 5], 4))
    @given(weight_stacks())
    def test_stacked_ranks_equal_single_trial_ranks(self, stack):
        # Weights 1..3 repeat often, so the trials of one stack reach different ranks and
        # stop in different blocks; each must report what it reports alone. In the explicit
        # example the first trial reaches the target a block before the second and would
        # report 5 if it kept counting.
        g, leaders, weights, target = stack
        u, v = g._arrays
        laps = laplacian(g.n, u, v, np.array(weights, dtype=np.float64))
        steps = np.mod(-laps, _PRIME)  # (-L)^T, as L is symmetric
        inputs = input_matrix(g.n, leaders).T.astype(np.int64)
        ranks = _rank_mod(steps, inputs, _PRIME, target=target).tolist()
        assert ranks == [_rank_mod(steps[t : t + 1], inputs, _PRIME, target=target)[0] for t in range(len(steps))]
        if target is None:
            assert ranks == [krylov_rank_oracle(lap, inputs.T, prime=_PRIME) for lap in laps]

    @settings(max_examples=60, deadline=None)
    @given(weighted_instances(max_weight=_PRIME - 1), st.data())
    def test_dependent_inputs_match_the_oracle_under_both_primes(self, instance, data):
        # Inputs that are not leader indicators: random residue rows, or scaled unit rows
        # (whose reduced rows are unit rows, as leader indicators are), one repeated, a
        # zero row and the sum of two rows, in any order, so the first block (eliminated
        # once for the whole stack) has fewer pivots than rows. Two or three weightings
        # run as one stack; every trial must report what the oracle finds alone.
        g, weights, _ = instance
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = rng.integers(0, 2**30, size=(data.draw(st.integers(1, 3)), g.n))
        if data.draw(st.booleans()):
            base *= np.eye(g.n, dtype=np.int64)[rng.integers(0, g.n, size=len(base))]
        rows = np.vstack([base, base[:1], np.zeros((1, g.n), dtype=np.int64), base[:1] + base[-1:]])
        inputs = rows[data.draw(st.permutations(range(len(rows))))]
        stack = [weights] + [rng.integers(1, _PRIME, size=weights.size) for _ in range(data.draw(st.integers(1, 2)))]
        laps = [graph_laplacian(g, w) for w in stack]
        assert controllability_rank(laps[0], inputs.T) == krylov_rank_oracle(laps[0], inputs.T, prime=_PRIME)
        for prime in (_PRIME, 2**31 - 1):
            steps = np.array([np.mod(-lap.T, prime) for lap in laps], dtype=np.float64)
            full = [krylov_rank_oracle(lap, inputs.T, prime=prime) for lap in laps]
            assert _rank_mod(steps, inputs, prime).tolist() == full
            target = data.draw(st.integers(1, g.n + 1))
            ranks = _rank_mod(steps, inputs, prime, target=target).tolist()
            assert ranks == [_rank_mod(steps[t : t + 1], inputs, prime, target=target)[0] for t in range(len(laps))]
            assert all(r == f if f <= target else target <= r < target + len(inputs) for r, f in zip(ranks, full))

    @pytest.mark.parametrize("prime", [_PRIME, 2**31 - 1])
    @pytest.mark.parametrize("n", [128, 129])
    def test_both_limb_splits_match_the_oracle(self, n, prime):
        # The step product's inner size is n: two 16-bit limbs up to 128, three 11-bit
        # ones past it. A weighted path with a chord keeps the oracle's powers cheap.
        rng = np.random.default_rng(n)
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n // 2)])
        lap = graph_laplacian(g, rng.integers(1, _PRIME, size=n))
        inputs = rng.integers(0, 2**30, size=(1, n))
        step = np.mod(-lap.T, prime).astype(np.float64)[None]
        assert _rank_mod(step, inputs, prime).tolist() == [krylov_rank_oracle(lap, inputs.T, prime=prime)]

    def test_modular_rank_can_fall_below_the_rational_rank(self):
        g = complete_graph(3)
        lap = graph_laplacian(g, np.array([1, _PRIME - 2, _PRIME - 2]))
        inputs = input_matrix(3, (0,))
        assert controllability_rank(lap, inputs) == krylov_rank_oracle(lap, inputs, prime=_PRIME) == 2
        assert krylov_rank_oracle(lap, inputs) == 3

    @settings(max_examples=25, deadline=None)
    @given(weighted_instances(min_n=2), st.integers(0, 2**16))
    def test_augmenter_outputs_keep_the_pmi_bound(self, instance, seed):
        g, _, leaders = instance
        pmi = pmi_greedy(g, leaders)
        for result in (
            augment_intersection(g, leaders, pmi),
            augment_randomized(g, leaders, pmi, seed=seed, repetitions=2),
        ):
            h = Graph(g.n, result.edges_after)
            report = validate_ssc_bound(h, leaders, len(pmi), trials=3, seed=seed)
            assert report.passed, (sorted(g.edges), leaders, report.ranks)

    @settings(max_examples=40, deadline=None)
    @given(weighted_instances(max_n=9, max_leaders=3), st.data(), st.integers(0, 2**16))
    def test_stopped_ranks_decide_the_bound_like_the_oracle(self, instance, data, seed):
        g, _, leaders = instance
        bound = data.draw(st.integers(1, g.n + 1))
        report = validate_ssc_bound(g, leaders, bound, trials=3, seed=seed)
        inputs = input_matrix(g.n, leaders)
        verdicts = []
        for trial, rank in enumerate(report.ranks):
            weights = np.random.default_rng([seed, trial]).integers(1, _PRIME, size=g.num_edges())
            full = krylov_rank_oracle(graph_laplacian(g, weights), inputs)
            assert rank <= full and (rank >= bound) == (full >= bound)
            if rank < bound:
                assert rank == full
            verdicts.append(full >= bound)
        assert report.passed == all(verdicts)
        assert report.min_rank == min(report.ranks)


class TestKirchhoffIndex:
    def test_two_node_path(self):
        assert kirchhoff_index(path_graph(2)) == pytest.approx(0.5)

    def test_triangle(self):
        assert kirchhoff_index(complete_graph(3)) == pytest.approx(2 / 3)

    def test_three_node_path(self):
        assert kirchhoff_index(path_graph(3)) == pytest.approx(4 / 3)

    def test_single_node(self):
        assert kirchhoff_index(Graph(1)) == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            kirchhoff_index(Graph(3, [(0, 1)]))

    def test_long_path_closed_form(self):
        # The path has the smallest lambda_2 of any connected graph on n nodes.
        n = 1000
        assert kirchhoff_index(path_graph(n)) == pytest.approx((n * n - 1) / 6, rel=1e-9)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(1000, [(i, i + 1) for i in range(999) if i != 499]),
            Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ],
        ids=["two-500-node-paths", "isolated-node"],
    )
    def test_disconnected_spectrum_rejected(self, g):
        with pytest.raises(DisconnectedGraphError, match="Kirchhoff index needs a connected graph"):
            kirchhoff_index(g)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            kirchhoff_index(path_graph(DENSE_NODE_GUARD + 1))

    def test_matches_effective_resistance_oracle(self):
        for seed in range(4):
            g = random_connected_graph(9, 0.4, seed=seed + 30)
            expected = effective_resistance_total(g) / g.n
            assert kirchhoff_index(g) == pytest.approx(expected, rel=1e-9)

    def test_strictly_decreases_under_edge_addition(self):
        rng = np.random.default_rng(77)
        for seed in range(5):
            g = random_connected_graph(10, 0.3, seed=seed + 40)
            missing = sorted(set((u, v) for u in range(10) for v in range(u + 1, 10)) - g.edges)
            if not missing:
                continue
            extra = missing[int(rng.integers(0, len(missing)))]
            assert kirchhoff_index(with_edges(g, [extra])) < kirchhoff_index(g) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(weighted_instances(), st.data())
    def test_resistance_and_edge_addition_property(self, instance, data):
        g = instance[0]
        before = kirchhoff_index(g)
        assert before == pytest.approx(effective_resistance_total(g) / g.n, rel=1e-9)
        missing = sorted({(u, v) for u in range(g.n) for v in range(u + 1, g.n)} - g.edges)
        if missing:
            assert kirchhoff_index(with_edges(g, [data.draw(st.sampled_from(missing))])) < before
