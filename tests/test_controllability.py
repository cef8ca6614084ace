import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netaug import (
    DisconnectedGraphError,
    GenSpec,
    Graph,
    PMISequence,
    SizeGuardError,
    augment_intersection,
    augment_randomized,
    controllability_rank,
    distance_to_leader_vectors,
    erdos_renyi,
    input_matrix,
    is_pmi,
    kirchhoff_index,
    laplacian,
    pmi_exact,
    pmi_greedy,
    validate_ssc_bound,
)
from netaug.controllability import _PRIME, _rank_mod
from netaug.graphs import DENSE_NODE_GUARD
from helpers import (
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
)


class TestDistanceVectors:
    def test_path_two_leaders(self):
        vecs = distance_to_leader_vectors(path_graph(3), (0, 2))
        assert [dv.dist for dv in vecs] == [(0, 2), (1, 1), (2, 0)]

    def test_leader_entry_is_zero_iff_leader(self):
        g = random_connected_graph(8, 0.4, seed=2)
        vecs = distance_to_leader_vectors(g, (3, 5))
        for dv in vecs:
            assert (dv.dist[0] == 0) == (dv.node == 3)
            assert (dv.dist[1] == 0) == (dv.node == 5)

    def test_star_single_leader(self):
        vecs = distance_to_leader_vectors(star_graph(3), (0,))
        assert [dv.dist for dv in vecs] == [(0,), (1,), (1,), (1,)]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            distance_to_leader_vectors(Graph(3, [(0, 1)]), (0,))

    def test_leader_out_of_range(self):
        with pytest.raises(ValueError):
            distance_to_leader_vectors(path_graph(3), (5,))

    def test_duplicate_leaders_rejected(self):
        with pytest.raises(ValueError):
            distance_to_leader_vectors(path_graph(3), (0, 0))


class TestIsPMI:
    def test_length_five_example(self):
        check = is_pmi([[0, 2], [2, 0], [1, 2], [2, 1], [3, 1]])
        assert check.ok
        assert check.witnesses is not None

    def test_equal_vectors_fail(self):
        check = is_pmi([[0], [0]])
        assert not check.ok
        assert check.violation == (0, 1)

    def test_two_leader_pair(self):
        assert is_pmi([[0, 2], [2, 0]]).ok

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            is_pmi([[0, 1], [0]])

    def test_witnesses_certify(self):
        vecs = [[0, 2], [2, 0], [1, 2], [2, 1], [3, 1]]
        check = is_pmi(vecs)
        for i, alpha in enumerate(check.witnesses):
            for j in range(i + 1, len(vecs)):
                assert vecs[i][alpha] < vecs[j][alpha]


class TestPMIExact:
    def test_path_single_leader(self):
        assert len(pmi_exact(path_graph(4), (0,))) == 4

    def test_star_center_leader(self):
        assert len(pmi_exact(star_graph(4), (0,))) == 2

    def test_path_two_leaders(self):
        seq = pmi_exact(path_graph(3), (0, 2))
        assert len(seq) == 3
        assert is_pmi(seq.raw_vectors()).ok

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            pmi_exact(path_graph(22), (0,))

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
            distinct = {dv.dist for dv in distance_to_leader_vectors(g, leaders)}
            if len(distinct) > 6:
                continue
            assert len(pmi_exact(g, leaders)) == brute_pmi_length(distinct)


class TestPMIGreedy:
    def test_single_leader_counts_distinct_distances(self):
        for seed in range(6):
            g = random_connected_graph(10, 0.3, seed=seed)
            distances = {dv.dist for dv in distance_to_leader_vectors(g, (0,))}
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
            assert is_pmi(greedy.raw_vectors()).ok
            exact = pmi_exact(g, leaders)
            assert is_pmi(exact.raw_vectors()).ok
            assert len(greedy) <= len(exact)

    def test_leader_permutation_keeps_max_length(self):
        # The maximum PMI length is invariant under coordinate permutation;
        # the greedy heuristic's tie-breaking is coordinate-order sensitive,
        # so the invariance is asserted on the exact search.
        for seed in range(4):
            g = random_connected_graph(9, 0.35, seed=seed + 100)
            assert len(pmi_exact(g, (2, 6))) == len(pmi_exact(g, (6, 2)))

    def test_json_round_trip(self):
        seq = pmi_greedy(path_graph(4), (0, 3))
        assert PMISequence.from_json(seq.to_json()) == seq

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
        check = is_pmi_oracle(seq.raw_vectors())
        assert check.ok and is_pmi(seq.raw_vectors()) == check

    @settings(max_examples=150, deadline=None)
    @given(pmi_instances(), st.data())
    def test_is_pmi_matches_scalar_oracle(self, instance, data):
        # Any ordering of any subset of the distance vectors, repeats allowed:
        # both PMI runs and violations with their blockers are exercised.
        g, leaders = instance
        vectors = [dv.dist for dv in distance_to_leader_vectors(g, leaders)]
        picks = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n + 2))
        run = [vectors[v] for v in picks]
        assert is_pmi(run) == is_pmi_oracle(run)

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
    u, v = np.array(g.sorted_edges(), dtype=np.int64).reshape(-1, 2).T
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
        assert _rank_mod(lap, inputs, _PRIME, target=None) == full
        for target in range(1, full + 3):
            rank = _rank_mod(lap, inputs, _PRIME, target=target)
            if target >= full:
                assert rank == full
            else:
                assert target <= rank < target + len(leaders)


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


@st.composite
def weighted_instances(draw, min_n=1, max_n=7, max_leaders=None):
    """A connected graph on at most ``max_n`` nodes (random tree plus extra edges),
    int64 weights 1-50 (one per sorted edge) and a random ordered leader set."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, edges | extra)
    weights = np.array([draw(st.integers(1, 50)) for _ in g.sorted_edges()], dtype=np.int64)
    order = draw(st.permutations(range(n)))
    leaders = tuple(order[: draw(st.integers(1, min(n, max_leaders or n)))])
    return g, weights, leaders


class TestRankProperties:
    @settings(max_examples=80, deadline=None)
    @given(weighted_instances())
    def test_rank_equals_rational_oracle(self, instance):
        g, weights, leaders = instance
        lap = graph_laplacian(g, weights)
        inputs = input_matrix(g.n, leaders)
        assert controllability_rank(lap, inputs) == krylov_rank_oracle(lap, inputs)

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
            assert kirchhoff_index(g.add_edges([extra])) < kirchhoff_index(g) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(weighted_instances(), st.data())
    def test_resistance_and_edge_addition_property(self, instance, data):
        g = instance[0]
        before = kirchhoff_index(g)
        assert before == pytest.approx(effective_resistance_total(g) / g.n, rel=1e-9)
        missing = sorted({(u, v) for u in range(g.n) for v in range(u + 1, g.n)} - g.edges)
        if missing:
            assert kirchhoff_index(g.add_edges([data.draw(st.sampled_from(missing))])) < before
