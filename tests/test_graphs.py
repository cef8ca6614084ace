import hashlib
import re

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
    erdos_renyi,
    generate,
    is_connected,
    kirchhoff_index,
    laplacian,
    parse_edge_list,
    pmi_greedy,
    validate_ssc_bound,
    write_edge_list,
)
from netaug.graphs import DENSE_NODE_GUARD, _missing_pairs
from helpers import (
    all_pairs_min_plus,
    complement_edges,
    complete_graph,
    path_graph,
    reference_barabasi_albert,
    reference_edge_list,
    reference_graph_edges,
    reference_erdos_renyi,
)


def array_pairs(g: Graph) -> list[tuple[int, int]]:
    """The edge arrays as int pairs, in their stored order."""
    u, v = g._arrays
    return list(zip(u.tolist(), v.tolist()))


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="node count must be positive, got 0"):
            Graph(0)

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match=f"node count must be an integer, got {n!r}"):
            Graph(n)

    def test_numpy_integer_n_stored_as_int(self):
        g = Graph(np.int64(3), [(0, 1)])
        assert type(g.n) is int and g == Graph(3, [(0, 1)])

    @pytest.mark.parametrize(
        "edges, match",
        [
            ([(0, 3), (1, 1)], "edge \\(0,3\\) out of range"),
            ([(1, 1), (0, 3)], "self-loop on node 1"),
            ([(3, 3)], "edge \\(3,3\\) out of range"),
            ([(0, 1), (2, -1)], "edge \\(2,-1\\) out of range"),
        ],
    )
    def test_first_bad_edge_decides_and_range_comes_first(self, edges, match):
        with pytest.raises(ValueError, match=match):
            Graph(3, edges)

    def test_numpy_integer_endpoints(self):
        g = Graph(3, [(np.int64(2), np.int64(1)), (1, 2)])
        assert g.edges == {(1, 2)} and g._neighbours == [[], [2], [1]]
        assert {type(endpoint) for edge in g.edges for endpoint in edge} == {int}

    def test_nothing_is_allocated_per_node(self):
        assert Graph(2**40).num_edges() == 0

    @pytest.mark.parametrize(
        "edges, bad",
        [
            ([(True, 2)], True),
            ([(0, 1), (2, False)], False),
            ([(0, 1.5)], 1.5),
            ([(0.5, 2)], 0.5),
            ([(0, 1), (np.float64(1.0), 2)], np.float64(1.0)),
            ([(0, "1")], "1"),
            ([(None, 1)], None),
            ([(0, 5.5)], 5.5),
            ([(True, 9)], True),
        ],
    )
    def test_rejects_non_integer_endpoint(self, edges, bad):
        # A bool would be written as "True", which parse_edge_list cannot read.
        message = f"edge endpoint must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(3, edges)

    def test_reversed_duplicates_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.edges == {(0, 1)} and g._neighbours == [[1], [0], []]

    def test_adjacency_symmetry(self):
        g = Graph(5, [(0, 1), (2, 4), (1, 3)])
        for u in range(5):
            for v in g._neighbours[u]:
                assert u in g._neighbours[v]
                assert (min(u, v), max(u, v)) in g.edges

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bulk_checks_match_the_per_edge_oracle(self, data):
        n = data.draw(st.one_of(st.integers(1, 6), st.integers(1, 2**40)), label="n")
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=10), label="edges")
        if edges:
            edges += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(edges), max_size=3))]
        endpoint = st.one_of(
            st.booleans(), st.floats(), st.floats().map(np.float64), st.text(max_size=2),
            st.none(), node.map(np.int64), st.integers(max_value=-1),
            st.integers(n, 2**64), st.integers(2**63, 2**65),
        )
        faulty = st.one_of(
            st.tuples(endpoint, node), st.tuples(node, endpoint),
            st.tuples(node), st.tuples(node, node, node), node.map(lambda v: (v, v)),
        )
        for bad in data.draw(st.lists(faulty, max_size=2), label="faults"):
            edges.insert(data.draw(st.integers(0, len(edges))), bad)
        try:
            expected = reference_graph_edges(n, edges)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                Graph(n, edges)
        else:
            g = Graph(n, edges)
            assert g.edges == expected and array_pairs(g) == sorted(expected)


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

    @pytest.mark.parametrize("source", [True, 1.0])
    def test_source_must_be_integer(self, source):
        with pytest.raises(ValueError, match=f"source must be an integer, got {source!r}"):
            bfs_distances(path_graph(3), source)

    def test_numpy_integer_source(self):
        assert bfs_distances(path_graph(3), np.int64(2)) == [2, 1, 0]

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.integers(0, 2**32 - 1))
    @example(n=1, p=0.0, seed=0)
    @example(n=9, p=1.0, seed=0)
    def test_missing_pairs_are_the_sorted_complement(self, n, p, seed):
        # The randomized scan shuffles the mask's np.nonzero arrays, so their
        # order is part of the seeded output.
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=n, p=p, seed=seed))
        missing = _missing_pairs(g)
        assert missing.shape == (n, n) and missing.dtype == bool
        lo, hi = np.nonzero(missing)
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
        assert array_pairs(g) == sorted(g.edges)


class TestDeferredViews:
    """The neighbour lists and the frozenset are built from the edge arrays on first use."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    def test_adjacency_equals_hand_built_sets(self, n, p, seed):
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=n, p=p, seed=seed))
        expected = [set() for _ in range(n)]
        for u, v in g.edges:
            expected[u].add(v)
            expected[v].add(u)
        assert list(map(set, g._neighbours)) == expected

    def test_edge_arrays_are_cached_and_read_only(self):
        g = path_graph(4)
        u, v = g._arrays
        for array in (u, v):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 3
        assert array_pairs(g) == [(0, 1), (1, 2), (2, 3)]

    def test_bfs_then_kirchhoff_then_validate_match_fresh_graphs(self):
        spec = GenSpec(model="erdos-renyi", n=30, p=0.2, seed=4)
        g, leaders = erdos_renyi(spec), (0, 7, 19)
        assert is_connected(g)
        bound = len(pmi_greedy(g, leaders))
        dist = bfs_distances(g, 5)
        kirchhoff = kirchhoff_index(g)
        report = validate_ssc_bound(g, leaders, bound, trials=3)
        assert dist == bfs_distances(erdos_renyi(spec), 5)
        assert kirchhoff == kirchhoff_index(erdos_renyi(spec))
        assert report == validate_ssc_bound(erdos_renyi(spec), leaders, bound, trials=3)

    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([(1, 0), (2, 1), (0, 1)], [(0, 1), (1, 2)]),
            ([(np.int64(2), np.int64(0))], [(0, 2)]),
            ([(True, 2)], f"edge endpoint must be an integer, got {True!r}"),
            ([(0, 1.5)], f"edge endpoint must be an integer, got {1.5!r}"),
            ([(np.float64(1.0), 2)], f"edge endpoint must be an integer, got {np.float64(1.0)!r}"),
            ([(1, 1)], "self-loop on node 1 is not allowed"),
            ([(0, 3)], "edge (0,3) out of range for n=3"),
            ([(-1, 2)], "edge (-1,2) out of range for n=3"),
        ],
        ids=["reversed", "numpy", "bool", "float", "numpy-float", "self-loop", "range", "negative"],
    )
    def test_list_and_frozenset_inputs_agree(self, edges, expected):
        for given_edges in (edges, frozenset(edges)):
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    Graph(3, given_edges)
                continue
            g = Graph(3, given_edges)
            assert g.edges == set(expected) and array_pairs(g) == expected
            both_ways = expected + [(b, a) for a, b in expected]
            assert list(map(set, g._neighbours)) == [{b for a, b in both_ways if a == u} for u in range(3)]

    def test_float_in_a_collapsed_edge_is_rejected(self):
        with pytest.raises(ValueError, match="^edge endpoint must be an integer, got 1.0$"):
            Graph(3, [(1, 2), (1.0, 2)])


class TestErdosRenyi:
    def test_p_zero_and_one(self):
        assert erdos_renyi(GenSpec(model="erdos-renyi", n=10, p=0.0, seed=1)).num_edges() == 0
        assert erdos_renyi(GenSpec(model="erdos-renyi", n=10, p=1.0, seed=1)).num_edges() == 45

    def test_seed_determinism(self):
        spec = GenSpec(model="erdos-renyi", n=20, p=0.3, seed=42)
        assert erdos_renyi(spec) == erdos_renyi(spec)

    def test_different_seeds_differ(self):
        a = erdos_renyi(GenSpec(model="erdos-renyi", n=20, p=0.5, seed=1))
        b = erdos_renyi(GenSpec(model="erdos-renyi", n=20, p=0.5, seed=2))
        assert a.edges != b.edges

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            GenSpec(model="erdos-renyi", n=10, p=1.5, seed=0)

    @pytest.mark.parametrize("p", [True, "0.5", None])
    def test_p_must_be_a_real_number(self, p):
        message = f"edge probability must be a real number, got {p!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GenSpec(model="erdos-renyi", n=5, p=p)

    def test_size_guard(self):
        spec = GenSpec(model="erdos-renyi", n=DENSE_NODE_GUARD + 1, p=0.1, seed=0)
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            erdos_renyi(spec)


class TestGenSpec:
    @pytest.mark.parametrize(
        "fields, name",
        [
            (dict(model="erdos-renyi", n=10.0, p=0.1), "node count"),
            (dict(model="erdos-renyi", n=True, p=0.1), "node count"),
            (dict(model="erdos-renyi", n=10, p=0.1, seed=1.5), "seed"),
            (dict(model="erdos-renyi", n=10, p=0.1, seed=True), "seed"),
            (dict(model="barabasi-albert", n=10, gamma=2.5), "attachment count"),
            (dict(model="barabasi-albert", n=10, gamma=True), "attachment count"),
        ],
        ids=["float-n", "bool-n", "float-seed", "bool-seed", "float-gamma", "bool-gamma"],
    )
    def test_non_integer_fields_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GenSpec(**fields)

    def test_seed_defaults_to_zero(self):
        assert GenSpec(model="erdos-renyi", n=5, p=0.5).seed == 0

    @pytest.mark.parametrize("generator, spec, expected", [
        (erdos_renyi, dict(model="barabasi-albert", n=5, gamma=2), "erdos-renyi"),
        (barabasi_albert, dict(model="erdos-renyi", n=5, p=0.5), "barabasi-albert"),
    ])
    def test_generator_refuses_the_other_model(self, generator, spec, expected):
        with pytest.raises(ValueError, match=f"^spec model is '{spec['model']}', expected '{expected}'$"):
            generator(GenSpec(**spec))

    def test_numpy_integer_fields_accepted(self):
        spec = GenSpec(model="barabasi-albert", n=np.int64(12), gamma=np.int32(3),
                       seed=np.uint64(2**64 - 1))
        plain = GenSpec(model="barabasi-albert", n=12, gamma=3, seed=2**64 - 1)
        assert generate(spec) == generate(plain)


#: The pinned specs, by label; each runs at the seeds in GENERATOR_DIGESTS.
DIGEST_SPECS = {
    "er": dict(model="erdos-renyi", n=200, p=10 / 199),
    "ba1": dict(model="barabasi-albert", n=100, gamma=1),
    "ba2": dict(model="barabasi-albert", n=100, gamma=2),
}

#: sha256 of ``write_edge_list(generate(spec))``, recorded with the pair-list
#: and ``rng.choice`` generators that ``reference_erdos_renyi`` and
#: ``reference_barabasi_albert`` keep.
GENERATOR_DIGESTS = {
    ("er", 0): "aff012ff376884a38b453a924b16e80284322173a1bc245a734ceac1acce146a",
    ("er", 1): "f735dc28985788afbf3b221c07c50bea3b2fa5c074c5c6cec356e9891cb2338d",
    ("er", 7): "9f34600ed7916695ad337a802a74bb875379541ad94844671cabc393f0a64f81",
    ("er", 2**64 - 1): "e4383136821a7b1558510b857c08337b1701a3201b7da99eae7edb1446624415",
    ("ba1", 0): "b487cf8deed7fddc17f2c919383aa052d947535dfa9d7bbc68a1a74d4753f4b4",
    ("ba1", 1): "a20b489179cc76f69d2f147c3ecb5e21659d84b2011b01ce0a6a346e709aa0a3",
    ("ba1", 7): "08416a31db823b6faa2788b78dff4bfb186365cdbc6016ae15454c48c3dbf56f",
    ("ba1", 2**64 - 1): "6949e1911bf88145e2bb5c4f6b8731386aea4ea0299976abbe0de9118709a7a5",
    ("ba2", 0): "94657a286608fb6ed42e4e3fa2615ef75dcc151d1a8e8b59f787772099918d25",
    ("ba2", 1): "b46ac8d37fbd29e98be925c228bcf1a79063d4fe07a924babc9696e4794e046f",
    ("ba2", 7): "ff961b79980d354b672b32b9e2d77c6451e142b6817ed28e57f94a4e6edb5184",
    ("ba2", 2**64 - 1): "36576372646034dbed0a3455a619a311364b47bc0088afa122c58de0fa1df039",
}


class TestGeneratorOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
    @example(n=1, p=0.5, seed=0)
    @example(n=60, p=0.0, seed=2**64 - 1)
    @example(n=60, p=1.0, seed=2**64 - 1)
    def test_erdos_renyi_equals_reference(self, n, p, seed):
        spec = GenSpec(model="erdos-renyi", n=n, p=p, seed=seed)
        assert generate(spec) == reference_erdos_renyi(spec)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        st.integers(0, 2**64 - 1),
    )
    @example(n_gamma=(2, 1), seed=0)  # every weight is zero at the first pick
    @example(n_gamma=(60, 1), seed=2**64 - 1)
    @example(n_gamma=(60, 59), seed=2**64 - 1)  # a complete graph
    def test_barabasi_albert_equals_reference(self, n_gamma, seed):
        n, gamma = n_gamma
        spec = GenSpec(model="barabasi-albert", n=n, gamma=gamma, seed=seed)
        assert generate(spec) == reference_barabasi_albert(spec)

    @pytest.mark.parametrize("label, seed", list(GENERATOR_DIGESTS))
    def test_recorded_digests(self, label, seed):
        text = write_edge_list(generate(GenSpec(**DIGEST_SPECS[label], seed=seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[label, seed]


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
        assert barabasi_albert(spec) == barabasi_albert(spec)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            GenSpec(model="barabasi-albert", n=10, gamma=10, seed=0)


class TestLaplacian:
    def test_path_unit_weights(self):
        lap = laplacian(3, *path_graph(3)._arrays, np.ones(2))
        assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_triangle_weight_two(self):
        lap = laplacian(3, *complete_graph(3)._arrays, np.full(3, 2.0))
        assert np.allclose(np.diag(lap), 4.0)

    def test_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            g = erdos_renyi(GenSpec(model="erdos-renyi", n=8, p=0.5, seed=seed))
            lap = laplacian(8, *g._arrays, 10 ** rng.uniform(-1, 1, size=g.num_edges()))
            assert np.allclose(lap.sum(axis=1), 0.0)
            assert np.allclose(lap, lap.T)
            assert np.linalg.eigvalsh(lap).min() >= -1e-9

    def test_dtype_of_weights_is_kept(self):
        u, v = path_graph(3)._arrays
        exact = laplacian(3, u, v, np.array([3, 2**31 - 1], dtype=np.int64))
        assert exact.dtype == np.int64 and exact[1, 1] == 2**31 + 2
        assert laplacian(3, u, v, np.array([0.5, 1.0])).dtype == np.float64

    def test_weight_stack_gives_a_stack_of_laplacians(self):
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=9, p=0.4, seed=3))
        u, v = g._arrays
        weights = np.random.default_rng(2).integers(1, 2**31, size=(4, u.size))
        stack = laplacian(9, u, v, weights)
        assert stack.shape == (4, 9, 9) and stack.dtype == np.int64
        for lap, row in zip(stack, weights):
            assert np.array_equal(lap, laplacian(9, u, v, row))
        empty = np.array([], dtype=np.int64)
        assert laplacian(1, empty, empty, np.ones((3, 0))).tolist() == [[[0.0]]] * 3
        with pytest.raises(ValueError, match="equal length"):
            laplacian(9, u, v, weights[:, 1:])
        with pytest.raises(ValueError, match="equal length"):
            laplacian(9, u, v, weights[None])
        with pytest.raises(ValueError, match="positive"):
            laplacian(9, u, v, np.where(np.arange(u.size) == 2, 0, weights))

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            laplacian(3, *path_graph(3)._arrays, [1.0])

    def test_nonpositive_weight_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                laplacian(3, *path_graph(3)._arrays, [1.0, bad])

    @pytest.mark.parametrize(
        "u, v, match",
        [
            ([1], [1], "self-loop"),
            ([0], [3], "out of range"),
            ([-1], [0], "out of range"),
            ([0.0], [1.0], "must be integers"),
            ([0], [True], "must be integers"),
        ],
    )
    def test_bad_endpoint_rejected(self, u, v, match):
        with pytest.raises(ValueError, match=match):
            laplacian(3, u, v, [1.0])

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_node_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=f"^node count must be an integer, got {n!r}$"):
            laplacian(n, [0], [1], [1.0])

    def test_empty_edge_lists_give_zero_matrices(self):
        # np.asarray([]) is float64, which cannot index.
        assert laplacian(1, [], [], []).tolist() == [[0.0]]
        assert laplacian(3, [], [], np.ones((2, 0))).tolist() == [np.zeros((3, 3)).tolist()] * 2
        assert laplacian(0, [], [], []).shape == (0, 0)

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

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        ("n x\n0 1\n", "node count is not an integer: 'x'"),
        ("n 0\n", "node count must be positive, got 0"),
    ])
    def test_bad_header_names_line_one(self, text, message):
        with pytest.raises(EdgeListParseError, match=f"^line 1: {message}") as info:
            parse_edge_list(text)
        assert info.value.line == 1

    def test_malformed_token_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("n 3\n0 1\n1 x")

    def test_out_of_range_id(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("n 2\n0 5")

    def test_bad_header(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("nodes 3\n0 1")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_bulk_parse_matches_the_per_line_oracle(self, n, data):
        token = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(["x", "1.5", "+1", "0_1", "\u0663"]))
        space = st.sampled_from([" ", "  ", "\t", " \x0b "])
        line = st.one_of(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(lambda e: f"{e[0]} {e[1]}"),
            st.lists(token, max_size=3).flatmap(lambda ts: space.map(lambda sp: sp.join(ts) + sp)),
        )
        text = f"n {n}\n" + "\n".join(data.draw(st.lists(line, max_size=8)))
        try:
            expected = reference_edge_list(text)
        except EdgeListParseError as exc:
            with pytest.raises(EdgeListParseError, match=f"^{re.escape(str(exc))}$"):
                parse_edge_list(text)
        else:
            g = parse_edge_list(text)
            assert (g.n, g.edges) == expected

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
