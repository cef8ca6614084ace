import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netaug import (
    EdgeListParseError,
    GenSpec,
    Graph,
    SizeGuardError,
    barabasi_albert,
    bfs_distances,
    complement_edges,
    erdos_renyi,
    laplacian,
    parse_edge_list,
    write_edge_list,
)
from netaug.graphs import DENSE_NODE_GUARD, _edge_arrays, _missing_pairs
from helpers import all_pairs_min_plus, path_graph, complete_graph


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_reversed_duplicates_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.edges == {(0, 1)}
        assert g.adjacency[0] == {1} and g.adjacency[1] == {0}

    def test_adjacency_symmetry(self):
        g = Graph(5, [(0, 1), (2, 4), (1, 3)])
        for u in range(5):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
                assert (min(u, v), max(u, v)) in g.edges

    def test_add_edges_returns_new_graph(self):
        g = path_graph(3)
        h = g.add_edges([(0, 2)])
        assert g.num_edges() == 2 and h.num_edges() == 3


class TestBFS:
    def test_path(self):
        assert bfs_distances(path_graph(3), 0) == [0, 1, 2]

    def test_triangle(self):
        assert bfs_distances(complete_graph(3), 0) == [0, 1, 1]

    def test_disconnected_marker(self):
        assert bfs_distances(Graph(2), 0) == [0, None]

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 3)

    def test_triangle_inequality_and_min_plus_oracle(self):
        for seed in range(5):
            g = erdos_renyi(GenSpec(model="erdos-renyi", n=12, p=0.3, seed=seed))
            oracle = all_pairs_min_plus(g)
            for s in range(g.n):
                dist = bfs_distances(g, s)
                for u, v in g.edges:
                    if dist[u] is not None and dist[v] is not None:
                        assert abs(dist[u] - dist[v]) <= 1
                for v in range(g.n):
                    expected = oracle[s, v]
                    if expected >= 10 * g.n:
                        assert dist[v] is None
                    else:
                        assert dist[v] == expected


class TestComplement:
    def test_examples(self):
        assert complement_edges(complete_graph(3)) == set()
        assert complement_edges(path_graph(3)) == {(0, 2)}
        assert complement_edges(Graph(3)) == {(0, 1), (0, 2), (1, 2)}

    def test_partition_property(self):
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=9, p=0.4, seed=3))
        comp = complement_edges(g)
        assert not (comp & g.edges)
        assert len(comp) + g.num_edges() == 9 * 8 // 2

    def test_size_guard(self):
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            complement_edges(Graph(DENSE_NODE_GUARD + 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.integers(0, 2**32 - 1))
    @example(n=1, p=0.0, seed=0)
    @example(n=9, p=1.0, seed=0)
    def test_missing_pairs_are_the_sorted_complement(self, n, p, seed):
        # The randomized scan shuffles these arrays, so their order is part of
        # the seeded output.
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=n, p=p, seed=seed))
        lo, hi = _missing_pairs(g)
        assert list(zip(lo.tolist(), hi.tolist())) == sorted(complement_edges(g))

    def test_missing_pairs_size_guard(self):
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            _missing_pairs(Graph(DENSE_NODE_GUARD + 1))


class TestEdgeArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.integers(0, 2**32 - 1))
    @example(n=1, p=0.0, seed=0)
    @example(n=9, p=1.0, seed=0)
    def test_equal_sorted_edges(self, n, p, seed):
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=n, p=p, seed=seed))
        u, v = _edge_arrays(g)
        assert list(zip(u.tolist(), v.tolist())) == g.sorted_edges()


class TestErdosRenyi:
    def test_p_zero_and_one(self):
        assert erdos_renyi(GenSpec(model="erdos-renyi", n=10, p=0.0, seed=1)).num_edges() == 0
        assert erdos_renyi(GenSpec(model="erdos-renyi", n=10, p=1.0, seed=1)).num_edges() == 45

    def test_seed_determinism(self):
        spec = GenSpec(model="erdos-renyi", n=20, p=0.3, seed=42)
        assert erdos_renyi(spec).sorted_edges() == erdos_renyi(spec).sorted_edges()

    def test_different_seeds_differ(self):
        a = erdos_renyi(GenSpec(model="erdos-renyi", n=20, p=0.5, seed=1))
        b = erdos_renyi(GenSpec(model="erdos-renyi", n=20, p=0.5, seed=2))
        assert a.edges != b.edges

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            GenSpec(model="erdos-renyi", n=10, p=1.5, seed=0)

    def test_size_guard(self):
        spec = GenSpec(model="erdos-renyi", n=DENSE_NODE_GUARD + 1, p=0.1, seed=0)
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            erdos_renyi(spec)


class TestBarabasiAlbert:
    def test_full_attachment_gives_complete(self):
        g = barabasi_albert(GenSpec(model="barabasi-albert", n=5, gamma=4, seed=0))
        assert g.num_edges() == 10

    def test_edge_count_formula(self):
        g = barabasi_albert(GenSpec(model="barabasi-albert", n=50, gamma=5, seed=11))
        assert g.num_edges() == 10 + 45 * 5

    def test_gamma_one(self):
        g = barabasi_albert(GenSpec(model="barabasi-albert", n=10, gamma=1, seed=4))
        assert g.num_edges() == 9

    def test_seed_determinism(self):
        spec = GenSpec(model="barabasi-albert", n=30, gamma=3, seed=9)
        assert barabasi_albert(spec).sorted_edges() == barabasi_albert(spec).sorted_edges()

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            GenSpec(model="barabasi-albert", n=10, gamma=10, seed=0)


def edge_arrays(g: Graph) -> np.ndarray:
    """The graph's sorted edges as two endpoint arrays."""
    return np.array(g.sorted_edges(), dtype=np.int64).reshape(-1, 2).T


class TestLaplacian:
    def test_path_unit_weights(self):
        lap = laplacian(3, *edge_arrays(path_graph(3)), np.ones(2))
        assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_triangle_weight_two(self):
        lap = laplacian(3, *edge_arrays(complete_graph(3)), np.full(3, 2.0))
        assert np.allclose(np.diag(lap), 4.0)

    def test_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            g = erdos_renyi(GenSpec(model="erdos-renyi", n=8, p=0.5, seed=seed))
            lap = laplacian(8, *edge_arrays(g), 10 ** rng.uniform(-1, 1, size=g.num_edges()))
            assert np.allclose(lap.sum(axis=1), 0.0)
            assert np.allclose(lap, lap.T)
            assert np.linalg.eigvalsh(lap).min() >= -1e-9

    def test_dtype_of_weights_is_kept(self):
        u, v = edge_arrays(path_graph(3))
        exact = laplacian(3, u, v, np.array([3, 2**31 - 1], dtype=np.int64))
        assert exact.dtype == np.int64 and exact[1, 1] == 2**31 + 2
        assert laplacian(3, u, v, np.array([0.5, 1.0])).dtype == np.float64

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            laplacian(3, *edge_arrays(path_graph(3)), [1.0])

    def test_nonpositive_weight_rejected(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                laplacian(3, *edge_arrays(path_graph(3)), [1.0, bad])

    @pytest.mark.parametrize(
        "u, v, match",
        [([1], [1], "self-loop"), ([0], [3], "out of range"), ([-1], [0], "out of range")],
    )
    def test_bad_endpoint_rejected(self, u, v, match):
        with pytest.raises(ValueError, match=match):
            laplacian(3, u, v, [1.0])

    def test_size_guard(self):
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            laplacian(DENSE_NODE_GUARD + 1, [0], [1], [1.0])


class TestEdgeListIO:
    def test_parse_path(self):
        g = parse_edge_list("n 3\n0 1\n1 2")
        assert g == path_graph(3)

    def test_parse_dedup(self):
        g = parse_edge_list("n 3\n0 1\n1 0")
        assert g.edges == {(0, 1)}

    def test_round_trip(self):
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=12, p=0.4, seed=8))
        assert parse_edge_list(write_edge_list(g)) == g

    def test_self_loop_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("n 2\n0 0")

    def test_malformed_token_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("n 3\n0 1\n1 x")

    def test_out_of_range_id(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("n 2\n0 5")

    def test_bad_header(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("nodes 3\n0 1")

    def test_written_form_is_sorted(self):
        g = Graph(4, [(2, 3), (0, 1), (1, 2)])
        assert write_edge_list(g) == "n 4\n0 1\n1 2\n2 3\n"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_write_parse_round_trip_property(self, n, data):
        node = st.integers(0, n - 1)
        g = Graph(n, [(u, w) for u, w in data.draw(st.sets(st.tuples(node, node))) if u != w])
        text = write_edge_list(g)
        assert parse_edge_list(text) == g
        assert write_edge_list(parse_edge_list(text)) == text
