import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netaug import (
    DisconnectedGraphError,
    DistanceVector,
    GenSpec,
    Graph,
    PMISequence,
    SizeGuardError,
    addable_edge_upper_bound,
    augment_intersection,
    augment_pair,
    augment_randomized,
    bfs_distances,
    classify_fixed_nodes,
    generate,
    kirchhoff_index,
    level_partition,
    pmi_greedy,
    success_probability_bound,
)
from netaug import augmentation
from netaug.augmentation import _BLOCK_ROWS, _chain, _inert, _instance, _legal_alone, _scan
from netaug.graphs import DENSE_NODE_GUARD, _missing_pairs
from helpers import (
    all_pairs_min_plus,
    bfs_oracle,
    complement_edges,
    complete_graph,
    cycle_graph,
    full_subset_pair_optimum,
    intersection_oracle,
    is_pmi_oracle,
    legal_alone_oracle,
    optimum_oracle,
    path_graph,
    random_connected_graph,
    reference_chain,
    reference_legal_alone,
    reference_randomized_scan,
    reference_scan,
    shortcut_legal_oracle,
    star_graph,
    with_edges,
)


def star_with_leaf_pair():
    """Star on 5 nodes, center 4; the monitored pair is the leaves 0 and 1."""
    return Graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])


class TestClassifyFixedNodes:
    def test_path_all_fixed(self):
        assert classify_fixed_nodes(path_graph(4), 0, 3) == [True] * 4

    def test_star_leaf_pair(self):
        fixed = classify_fixed_nodes(star_with_leaf_pair(), 0, 1)
        assert fixed == [True, True, False, False, True]

    def test_cycle_antipodal_all_fixed(self):
        assert classify_fixed_nodes(cycle_graph(4), 0, 2) == [True] * 4

    def test_unreachable_pair(self):
        with pytest.raises(DisconnectedGraphError):
            classify_fixed_nodes(Graph(4, [(0, 1), (2, 3)]), 0, 2)


@pytest.mark.parametrize("pair_function", [augment_pair, level_partition, classify_fixed_nodes])
@pytest.mark.parametrize("a, b, message", [
    (2, 2, r"^pair nodes must differ, got \(2,2\)$"),
    (0, 4, "^node 4 out of range for n=4$"),
])
def test_pair_nodes_checked(pair_function, a, b, message):
    with pytest.raises(ValueError, match=message):
        pair_function(path_graph(4), a, b)


class TestLevelPartition:
    def test_path(self):
        assert level_partition(path_graph(4), 0, 3) == ((0,), (1,), (2,), (3,))

    def test_star_free_leaves_fall_to_middle(self):
        assert level_partition(star_with_leaf_pair(), 0, 1) == ((0,), (2, 3, 4), (1,))

    def test_cycle_antipodal(self):
        assert level_partition(cycle_graph(4), 0, 2) == ((0,), (1, 3), (2,))

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(3)
        for seed in range(12):
            g = random_connected_graph(9, 0.3, seed=seed)
            a, b = rng.choice(9, size=2, replace=False)
            a, b = int(a), int(b)
            k = bfs_distances(g, a)[b]
            levels = level_partition(g, a, b)
            fixed = classify_fixed_nodes(g, a, b)
            dist_a = bfs_distances(g, a)
            assert len(levels) - 1 == k
            assert levels[0] == (a,)
            if k >= 2:
                assert levels[-1] == (b,)
            all_nodes = [v for level in levels for v in level]
            assert sorted(all_nodes) == list(range(9))
            for lvl, level in enumerate(levels):
                assert level, "every level must be non-empty"
                for v in level:
                    if fixed[v]:
                        assert lvl == dist_a[v]

    def test_chain_contains_original_and_counts_match(self):
        for seed in range(10):
            g = random_connected_graph(8, 0.35, seed=seed + 60)
            levels = level_partition(g, 0, 7)
            chain = augment_pair(g, 0, 7).edges_after
            assert g.edges <= chain
            sizes = [len(level) for level in levels]
            expected = sum(s * (s - 1) // 2 for s in sizes) + sum(
                sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1)
            )
            assert len(chain) == expected


class TestAugmentPair:
    def test_star_leaf_pair(self):
        res = augment_pair(star_with_leaf_pair(), 0, 1)
        assert len(res.edges_after) == 9
        assert len(res.added) == 5

    def test_path_nothing_to_add(self):
        res = augment_pair(path_graph(4), 0, 3)
        assert res.edges_after == path_graph(4).edges

    def test_adjacent_pair_gives_complete_graph(self):
        g = random_connected_graph(7, 0.4, seed=5)
        a, b = sorted(g.edges)[0]
        res = augment_pair(g, a, b)
        assert len(res.edges_after) == 7 * 6 // 2

    def test_preserves_distance_and_is_one_maximal(self):
        for seed in range(10):
            g = random_connected_graph(8, 0.3, seed=seed + 200)
            dist = bfs_distances(g, 0)
            b = max(range(8), key=lambda v: dist[v])
            k = dist[b]
            res = augment_pair(g, 0, b)
            h = Graph(8, res.edges_after)
            assert bfs_distances(h, 0)[b] == k
            for extra in complement_edges(h):
                probe = with_edges(h, [extra])
                assert bfs_distances(probe, 0)[b] < k

    def test_upper_bound_respected(self):
        for seed in range(8):
            g = random_connected_graph(8, 0.35, seed=seed + 300)
            res = augment_pair(g, 0, 7)
            assert len(res.added) <= res.upper_bound_addable

    @pytest.mark.parametrize("node", [0.5, True], ids=["fraction", "bool"])
    def test_pair_nodes_must_be_integers(self, node):
        with pytest.raises(ValueError, match=f"node must be an integer, got {node!r}"):
            augment_pair(path_graph(4), node, 3)

    def test_unreachable_pair(self):
        with pytest.raises(DisconnectedGraphError):
            augment_pair(Graph(4, [(0, 1), (2, 3)]), 0, 3)

    def test_size_guard(self):
        g = path_graph(DENSE_NODE_GUARD + 1)
        with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
            augment_pair(g, 0, 1)

    def test_node_unreachable_from_pair(self):
        for g, b in ((Graph(4, [(0, 1), (1, 2)]), 2), (Graph(3, [(0, 1)]), 1)):
            for solve in (augment_pair, classify_fixed_nodes, level_partition):
                with pytest.raises(DisconnectedGraphError, match="node 2|node 3"):
                    solve(g, 0, b)


class TestBruteForce:
    """``augment_pair`` against exact single-pair optima: the MILP
    ``optimum_oracle`` and, on tiny graphs, the full-subset scan."""

    @staticmethod
    def chain_size(g, a, b):
        """Edges after ``augment_pair``, once its additions match the optimum."""
        res = augment_pair(g, a, b)
        assert len(res.added) == optimum_oracle(g, [(a, b)])[0]
        return len(res.edges_after)

    def test_star_leaf_pair(self):
        assert self.chain_size(star_with_leaf_pair(), 0, 1) == 9

    def test_cycle_antipodal(self):
        assert self.chain_size(cycle_graph(4), 0, 2) == 5

    def test_path(self):
        assert self.chain_size(path_graph(4), 0, 3) == 3

    def test_matches_full_subset_oracle(self):
        checked = 0
        for seed in range(30):
            g = random_connected_graph(6, 0.5, seed=seed + 400)
            if len(complement_edges(g)) > 9:
                continue
            dist = bfs_distances(g, 0)
            b = max(range(6), key=lambda v: dist[v])
            if dist[b] < 2:
                continue
            assert self.chain_size(g, 0, b) == full_subset_pair_optimum(g, 0, b)
            checked += 1
        assert checked >= 5

    def test_dominates_chain_solution(self):
        for seed in range(10):
            g = random_connected_graph(7, 0.35, seed=seed + 500)
            dist = bfs_distances(g, 0)
            b = max(range(7), key=lambda v: dist[v])
            res = augment_pair(g, 0, b)
            assert all_pairs_min_plus(Graph(7, res.edges_after))[0, b] == dist[b]
            assert optimum_oracle(g, [(0, b)])[0] == len(res.added)

    def test_optimum_is_chain_over_its_own_levels(self):
        for seed in range(10):
            g = random_connected_graph(6, 0.4, seed=seed + 600)
            dist = bfs_distances(g, 0)
            b = max(range(6), key=lambda v: dist[v])
            k = dist[b]
            if k < 2:
                continue
            size, added = optimum_oracle(g, [(0, b)])
            assert size == len(augment_pair(g, 0, b).added)
            best = with_edges(g, added)
            da, db = bfs_distances(best, 0), bfs_distances(best, b)
            assert all(da[v] + db[v] == k for v in range(6))
            levels = [tuple(sorted(v for v in range(6) if da[v] == i)) for i in range(k + 1)]
            assert level_partition(best, 0, b) == tuple(levels)
            assert intersection_oracle(best, [(0, b)]) == best.edges


def pmi_setup(g, leaders):
    return pmi_greedy(g, leaders)


@st.composite
def scan_instances(draw, min_n=4, max_n=10):
    """A connected graph on ``min_n``-``max_n`` nodes (a path, a random tree or
    a connected G(n, p) draw, relabelled by a random permutation), 1-4
    distinct leaders and its greedy PMI sequence."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(["path", "tree", "er"]))
    if kind == "er":
        g = random_connected_graph(n, draw(st.floats(0.2, 0.7)), seed=draw(st.integers(0, 10**6)))
    else:
        label = draw(st.permutations(range(n)))
        parent = [v - 1 if kind == "path" else draw(st.integers(0, v - 1)) for v in range(1, n)]
        g = Graph(n, [(label[p], label[v]) for v, p in enumerate(parent, start=1)])
    leaders = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)))
    return g, leaders, pmi_setup(g, leaders)


class TestSinglePairProperty:
    @settings(max_examples=150, deadline=None)
    @given(scan_instances(min_n=2, max_n=12), st.data())
    def test_fixed_nodes_and_levels_match_min_plus(self, instance, data):
        g = instance[0]
        a, b = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        dist = all_pairs_min_plus(g)
        fixed = classify_fixed_nodes(g, a, b)
        assert fixed == [bool(dist[a, v] + dist[v, b] == dist[a, b]) for v in range(g.n)]
        levels = level_partition(g, a, b)
        assert len(levels) == dist[a, b] + 1 and levels[0] == (a,)
        assert sorted(v for level in levels for v in level) == list(range(g.n))
        for depth, level in enumerate(levels):
            assert all(depth == dist[a, v] for v in level if fixed[v])


class TestAgainstOptimum:
    @settings(max_examples=100, deadline=None)
    @given(scan_instances(), st.integers(0, 2**32 - 1), st.data())
    def test_augmenters_within_the_optimum(self, instance, seed, data):
        g, leaders, seq = instance
        pairs = [(ell, v) for ell in leaders for v in seq.nodes() if ell != v]
        opt, _ = optimum_oracle(g, pairs)
        assert len(augment_intersection(g, leaders, seq).added) <= opt
        rand = augment_randomized(g, leaders, seq, seed=seed, repetitions=2)
        assert len(rand.added) <= opt <= rand.upper_bound_addable
        a, b = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        chain = augment_pair(g, a, b)
        assert chain.edges_after == intersection_oracle(g, [(a, b)])
        assert len(chain.added) <= optimum_oracle(g, [(a, b)])[0]
        assert chain.upper_bound_addable == legal_alone_oracle(g, [(a, b)])

    def test_level_rule_can_miss_the_pair_optimum(self):
        # Path 0-2-3-4-5-1 with the tail 1-6-7-8. The level rule puts 6, 7
        # and 8 on levels 4, 3 and the middle level 2; 8 on level 3 instead
        # meets one more node, so the chain is one edge short of the optimum.
        g = Graph(9, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (6, 7), (7, 8)])
        assert level_partition(g, 0, 1) == ((0,), (2,), (3, 8), (4, 7), (5, 6), (1,))
        size, added = optimum_oracle(g, [(0, 1)])
        assert (size, len(augment_pair(g, 0, 1).added)) == (9, 8)
        best = with_edges(g, added)
        assert intersection_oracle(best, [(0, 1)]) == best.edges


class TestIntersection:
    def test_complete_graph_unchanged(self):
        g = complete_graph(5)
        res = augment_intersection(g, (0, 1), pmi_setup(g, (0, 1)))
        assert res.edges_after == g.edges

    def test_path_unchanged(self):
        g = path_graph(3)
        res = augment_intersection(g, (0,), pmi_setup(g, (0,)))
        assert res.edges_after == g.edges
        assert res.added == frozenset()

    def test_star_center_leader_completes(self):
        g = star_graph(5)
        res = augment_intersection(g, (0,), pmi_setup(g, (0,)))
        assert len(res.edges_after) == 15
        assert len(res.added) == 10

    def test_distances_preserved(self):
        for seed in range(6):
            g = random_connected_graph(12, 0.25, seed=seed + 700)
            leaders = (0, 7)
            seq = pmi_setup(g, leaders)
            res = augment_intersection(g, leaders, seq)
            h = Graph(g.n, res.edges_after)
            assert g.edges <= res.edges_after
            for ell in leaders:
                before, after = bfs_distances(g, ell), bfs_distances(h, ell)
                for v in seq.nodes():
                    assert before[v] == after[v]
            after = bfs_oracle(h, leaders)
            assert is_pmi_oracle([[after[ell][v] for ell in leaders] for v in seq.nodes()]).ok

    @settings(max_examples=150, deadline=None)
    @given(scan_instances(min_n=2, max_n=12))
    def test_matches_oracles_property(self, instance):
        g, leaders, seq = instance
        pairs = [(ell, v) for ell in leaders for v in seq.nodes() if ell != v]
        res = augment_intersection(g, leaders, seq)
        assert res.edges_after == intersection_oracle(g, pairs)
        assert addable_edge_upper_bound(g, leaders, seq) == legal_alone_oracle(g, pairs)
        before = all_pairs_min_plus(g)
        rand = augment_randomized(g, leaders, seq, seed=len(pairs), repetitions=2)
        for h in (Graph(g.n, res.edges_after), Graph(g.n, rand.edges_after)):
            after = all_pairs_min_plus(h)
            assert all(after[ell, v] == before[ell, v] for ell, v in pairs)
            assert is_pmi_oracle([[after[ell, v] for ell in leaders] for v in seq.nodes()]).ok

    def test_invalid_pmi_rejected(self):
        g = path_graph(4)
        wrong_leader = pmi_setup(g, (3,))  # vectors do not match leader 0 distances
        for run in (augment_intersection, augment_randomized, addable_edge_upper_bound):
            with pytest.raises(ValueError, match="does not match"):
                run(g, (0,), wrong_leader)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda seq: (seq.vectors, (99,) + seq.witnesses[1:]),
             "witness 99 for node 0 is outside 0..1"),
            (lambda seq: (seq.vectors, (2,) + seq.witnesses[1:]),
             "witness 2 for node 0 is outside 0..1"),
            (lambda seq: (seq.vectors, (1,) + seq.witnesses[1:]),
             "witness 1 for node 0 does not hold"),
            (lambda seq: (seq.vectors[:1] + seq.vectors, seq.witnesses[:1] + seq.witnesses),
             "witness 0 for node 0 does not hold"),
            (lambda seq: (seq.vectors, seq.witnesses[:-1]), "4 vectors but 3 witnesses"),
        ],
        ids=["out-of-range", "leader-count", "false", "repeated-node", "count"],
    )
    def test_carried_witnesses_checked(self, edit, message):
        # A sequence checks its witnesses when it is built, so no augmenter sees a bad one.
        seq = pmi_setup(path_graph(4), (0, 3))
        assert (seq.nodes(), seq.witnesses) == ((0, 3, 1, 2), (0, 1, 0, 1))
        vectors, witnesses = edit(seq)
        builds = [
            lambda: PMISequence(vectors, witnesses),
            lambda: dataclasses.replace(seq, vectors=vectors, witnesses=witnesses),
        ]
        if len(vectors) == len(witnesses):  # a JSON entry carries its own witness
            items = [{"node": dv.node, "vector": list(dv.dist), "witness": w}
                     for dv, w in zip(vectors, witnesses)]
            builds.append(lambda: PMISequence.from_json(items))
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()


class TestRandomized:
    def test_path_unchanged_any_seed(self):
        g = path_graph(3)
        seq = pmi_setup(g, (0,))
        for seed in range(5):
            res = augment_randomized(g, (0,), seq, seed=seed, repetitions=2)
            assert res.edges_after == g.edges

    def test_star_center_leader_completes_any_seed(self):
        g = star_graph(5)
        seq = pmi_setup(g, (0,))
        for seed in range(5):
            res = augment_randomized(g, (0,), seq, seed=seed, repetitions=1)
            assert len(res.edges_after) == 15

    def test_deterministic_given_seed(self):
        g = random_connected_graph(10, 0.3, seed=4)
        leaders = (0, 9)
        seq = pmi_setup(g, leaders)
        first = augment_randomized(g, leaders, seq, seed=12, repetitions=3)
        second = augment_randomized(g, leaders, seq, seed=12, repetitions=3)
        assert first.edges_after == second.edges_after

    def test_matches_full_bfs_reference(self):
        for seed in range(5):
            g = random_connected_graph(9, 0.3, seed=seed + 800)
            leaders = (0, 5)
            seq = pmi_setup(g, leaders)
            res = augment_randomized(g, leaders, seq, seed=seed, repetitions=2)
            expected = reference_randomized_scan(g, leaders, seq, seed=seed, repetitions=2)
            assert res.edges_after == expected

    @settings(max_examples=200, deadline=None)
    @given(scan_instances(), st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_equals_full_bfs_reference_property(self, instance, seed, repetitions):
        g, leaders, seq = instance
        res = augment_randomized(g, leaders, seq, seed=seed, repetitions=repetitions)
        expected = reference_randomized_scan(g, leaders, seq, seed=seed, repetitions=repetitions)
        assert res.edges_after == expected

    def test_size_guard_fires_before_the_mask(self):
        g = Graph(DENSE_NODE_GUARD + 1, [(0, 1)])
        seq = PMISequence((DistanceVector(0, (0,)), DistanceVector(1, (1,))), (0, 0))
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
                augment_randomized(g, (0,), seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The boolean adjacency mask alone would take n * n bytes.
        assert peak < g.n * g.n // 8

    def test_one_maximal_within_repetition(self):
        g = random_connected_graph(10, 0.25, seed=31)
        leaders = (0, 3)
        seq = pmi_setup(g, leaders)
        res = augment_randomized(g, leaders, seq, seed=2, repetitions=1)
        h = Graph(g.n, res.edges_after)
        original = {
            (ell, v): bfs_distances(g, ell)[v] for ell in leaders for v in seq.nodes() if ell != v
        }
        for extra in complement_edges(h):
            probe = with_edges(h, [extra])
            broke = any(
                bfs_distances(probe, ell)[v] != d for (ell, v), d in original.items()
            )
            assert broke, f"edge {extra} was legal but never added"

    def test_best_of_c_nondecreasing(self):
        g = random_connected_graph(11, 0.25, seed=9)
        leaders = (0, 6)
        seq = pmi_setup(g, leaders)
        sizes = [
            len(augment_randomized(g, leaders, seq, seed=5, repetitions=c).edges_after)
            for c in (1, 2, 4, 8)
        ]
        assert sizes == sorted(sizes)

    def test_repetitions_validated(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            augment_randomized(g, (0,), pmi_setup(g, (0,)), repetitions=0)

    @pytest.mark.parametrize("name", ["seed", "repetitions"])
    @pytest.mark.parametrize("value", [True, 2.5], ids=["bool", "fraction"])
    def test_seed_and_repetitions_must_be_integers(self, name, value):
        g = path_graph(3)
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            augment_randomized(g, (0,), pmi_setup(g, (0,)), **{name: value})

    def test_negative_seed_names_itself(self):
        # NumPy's own refusal of a negative stream seed names neither the argument nor the value.
        g = path_graph(3)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            augment_randomized(g, (0,), pmi_setup(g, (0,)), seed=-1)

    def test_numpy_integer_arguments_report_python_ints(self):
        g = star_graph(4)
        res = augment_randomized(g, (0,), pmi_setup(g, (0,)), seed=np.int64(3),
                                 repetitions=np.int64(2))
        assert type(res.seed) is int and type(res.repetitions) is int
        assert json.loads(json.dumps(res.to_json()))["c"] == 2


def path_with_chords(n):
    """Path 0..n-1 plus a chord (i, i + 2) every six nodes from node 1: the
    end-to-end distance stays at least two thirds of n."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(1, n - 2, 6)])


def caterpillar(n):
    """Spine 0..s-1 with s = n - n // 3, and leaf s + i hung on spine node 2i + 1."""
    s = n - n // 3
    return Graph(n, [(i, i + 1) for i in range(s - 1)] + [(2 * i + 1, s + i) for i in range(n - s)])


def tented_path(span):
    """Spine 0..span, two tent nodes joined to both 0 and 1, and a leaf on
    every fourth spine node from 2 below ``span``: no node lies farther than
    ``span`` from either end."""
    s = span + 1
    leaves = list(range(2, span, 4))
    edges = [(i, i + 1) for i in range(span)] + [(0, s), (1, s), (0, s + 1), (1, s + 1)]
    return Graph(s + 2 + len(leaves), edges + [(i, s + 2 + k) for k, i in enumerate(leaves)])


def largest_cap(g, leaders, seq):
    """The largest per-source cap of the scan: the largest monitored distance less one."""
    return max([bfs_distances(g, ell)[v] - 1 for ell in leaders for v in seq.nodes() if ell != v],
               default=0)


class TestRandomizedFieldBoundaries:
    """The scan packs each node's capped distances into fields of
    ``(cap + 1).bit_length() + 1`` bits, ``cap`` being the largest
    monitored distance less one, so the widths step between caps 0 and 1,
    2 and 3, 6 and 7, 14 and 15, 30 and 31. A tented path of span cap + 1
    with end leaders lands on each side of every step, and a star with a
    centre and a leaf leader needs the whole width. Paths and caterpillars
    of 6/7, 14/15, 30/31 and 62/63 nodes with an end leader put caps near
    n - 2 into the fields."""

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31])
    def test_cap_sized_width_steps(self, cap):
        g = tented_path(cap + 1)
        leaders = (0, cap + 1)
        seq = pmi_setup(g, leaders)
        assert largest_cap(g, leaders, seq) == cap
        for seed in range(2):
            res = augment_randomized(g, leaders, seq, seed=seed, repetitions=2)
            expected = reference_randomized_scan(g, leaders, seq, seed=seed, repetitions=2)
            assert res.edges_after == expected
            assert len(res.added) > 0

    def test_relaxation_test_needs_a_guard_above_cap_plus_one(self):
        # Leaders: the centre and a leaf of a star, so the largest cap is 1.
        # Joining a monitored leaf (capped distance 0 to itself) to another
        # leaf (capped at 1) needs guard >= 3 in P[x] - P[y] - 2: one bit
        # narrower than (cap + 1).bit_length() + 1 borrows across fields.
        g = star_graph(4)
        seq = pmi_setup(g, (0, 4))
        assert largest_cap(g, (0, 4), seq) == 1
        for seed in range(2):
            res = augment_randomized(g, (0, 4), seq, seed=seed, repetitions=1)
            assert res.edges_after == reference_randomized_scan(g, (0, 4), seq, seed=seed,
                                                                repetitions=1)

    @pytest.mark.parametrize("n", [6, 7, 14, 15, 30, 31])
    @pytest.mark.parametrize("shape", ["path", "caterpillar"])
    def test_matches_full_bfs_reference(self, n, shape):
        g = path_with_chords(n) if shape == "path" else caterpillar(n)
        assert max(bfs_distances(g, 0)) >= 2 * n // 3
        for leaders in ((0, n - 1), (0, n // 3, n - 1)):
            seq = pmi_setup(g, leaders)
            for seed in range(2):
                res = augment_randomized(g, leaders, seq, seed=seed, repetitions=2)
                expected = reference_randomized_scan(g, leaders, seq, seed=seed, repetitions=2)
                assert res.edges_after == expected

    @pytest.mark.parametrize("n", [62, 63])
    def test_widest_step_on_a_caterpillar(self, n):
        g = caterpillar(n)
        leaders = (0, n - 1)
        seq = pmi_setup(g, leaders)
        res = augment_randomized(g, leaders, seq, seed=n, repetitions=1)
        assert res.edges_after == reference_randomized_scan(g, leaders, seq, seed=n, repetitions=1)

    @pytest.mark.parametrize("n", [6, 14, 30])
    def test_leader_that_is_a_monitored_node(self, n):
        g = caterpillar(n)
        leaders = (n // 3, 0, n - 1)
        seq = pmi_setup(g, leaders)
        assert set(leaders) & set(seq.nodes())
        res = augment_randomized(g, leaders, seq, seed=3, repetitions=2)
        assert res.edges_after == reference_randomized_scan(g, leaders, seq, seed=3, repetitions=2)

    @pytest.mark.parametrize("n", [6, 15])
    def test_no_monitored_pair_completes(self, n):
        g = path_with_chords(n)
        seq = PMISequence((DistanceVector(0, (0,)),), (0,))
        res = augment_randomized(g, (0,), seq, seed=1, repetitions=2)
        assert len(res.edges_after) == n * (n - 1) // 2
        assert res.edges_after == reference_randomized_scan(g, (0,), seq, seed=1, repetitions=2)


class TestRandomizedCaps:
    """The scan keeps each source's distances capped at the largest value a
    test reads, and walks neighbours only below the cap."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(12, 24), st.floats(0.2, 0.5), st.integers(0, 10**6), st.data(),
           st.integers(0, 2**32 - 1), st.integers(1, 2))
    def test_equals_full_bfs_reference_on_larger_graphs(self, n, p, graph_seed, data, seed,
                                                        repetitions):
        g = random_connected_graph(n, p, seed=graph_seed)
        leaders = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6,
                                           unique=True)))
        seq = pmi_setup(g, leaders)
        res = augment_randomized(g, leaders, seq, seed=seed, repetitions=repetitions)
        expected = reference_randomized_scan(g, leaders, seq, seed=seed, repetitions=repetitions)
        assert res.edges_after == expected

    @pytest.mark.parametrize("n, leader", [(20, 19), (24, 8)])
    def test_bfs_cascade_below_the_cap(self, n, leader):
        # One leader on a caterpillar: monitored spine nodes have caps of 7
        # or more, and a legal edge between far spine nodes or leaves pulls
        # whole runs of the spine closer to them, one BFS level at a time.
        g = caterpillar(n)
        seq = pmi_setup(g, (leader,))
        assert largest_cap(g, (leader,), seq) >= 7
        for seed in range(3):
            res = augment_randomized(g, (leader,), seq, seed=seed, repetitions=2)
            assert res.edges_after == reference_randomized_scan(g, (leader,), seq, seed=seed,
                                                                repetitions=2)

    def test_leader_whose_cap_is_zero(self):
        # Hub 0 joined to 1..6, tail 6-7-8-9. Leader 0 is next to both
        # monitored nodes, so its cap is 0; leader 9's is 4.
        g = Graph(10, [(0, v) for v in range(1, 7)] + [(6, 7), (7, 8), (8, 9)])
        seq = PMISequence((DistanceVector(6, (1, 3)), DistanceVector(1, (1, 5))), (1, 0))
        assert largest_cap(g, (0, 9), seq) == 4
        for seed in range(3):
            res = augment_randomized(g, (0, 9), seq, seed=seed, repetitions=2)
            assert res.edges_after == reference_randomized_scan(g, (0, 9), seq, seed=seed,
                                                                repetitions=2)
            assert res.added


def inert_pairs(g, leaders, seq):
    """The pairs legal alone that the scan adds without testing them."""
    at, floor = _instance(g, leaders, seq)
    legal, _ = _legal_alone(_missing_pairs(g), at, floor)
    return set(zip(*(side.tolist() for side in np.nonzero(_inert(at, floor, legal)))))


@st.composite
def inert_instances(draw):
    """A small dense G(n, p) draw whose monitored distances are all at most 5,
    where inert pairs abound, or a path with chords and an end leader, whose
    largest monitored distance is 6 or more, so the inert pass is skipped."""
    dense = draw(st.booleans())
    if dense:
        n = draw(st.integers(6, 20))
        g = random_connected_graph(n, draw(st.floats(0.3, 0.8)), seed=draw(st.integers(0, 10**6)))
        leaders = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True)))
    else:
        g = path_with_chords(draw(st.integers(12, 24)))
        leaders = (0, *draw(st.lists(st.integers(1, g.n - 1), max_size=3, unique=True)))
    seq = pmi_setup(g, leaders)
    assume((largest_cap(g, leaders, seq) <= 4) == dense)  # the largest floor is the cap plus one
    return g, leaders, seq


class TestInertPairs:
    """Pairs legal in every graph a repetition can reach are added without a
    test; the scan must still equal the full BFS replay."""

    @settings(max_examples=100, deadline=None)
    @given(inert_instances(), st.integers(0, 2**32 - 3), st.integers(1, 3))
    def test_equals_reference_and_every_repetition_takes_the_inert_pairs(self, instance, seed,
                                                                        repetitions):
        g, leaders, seq = instance
        res = augment_randomized(g, leaders, seq, seed=seed, repetitions=repetitions)
        assert res.edges_after == reference_randomized_scan(g, leaders, seq, seed=seed,
                                                            repetitions=repetitions)
        inert = inert_pairs(g, leaders, seq)
        if largest_cap(g, leaders, seq) >= 5:
            assert not inert  # a floor of 6 or more: the pass is skipped
        for one in range(seed, seed + 3):
            assert inert <= reference_randomized_scan(g, leaders, seq, seed=one, repetitions=1)

    def test_a7_instance_is_mostly_inert(self):
        # ER(50, 0.2) with 5 leaders, the shape of the A7 grid: most pairs legal
        # alone are inert, and adding them all at once keeps every monitored distance.
        g, leaders = generate(GenSpec("erdos-renyi", 50, p=0.2, seed=0)), (0, 10, 20, 30, 40)
        seq = pmi_setup(g, leaders)
        inert = inert_pairs(g, leaders, seq)
        res = augment_randomized(g, leaders, seq, seed=1, repetitions=2)
        assert 2 * len(inert) > res.upper_bound_addable and inert <= res.added
        before, after = bfs_oracle(g, leaders), bfs_oracle(with_edges(g, inert), leaders)
        assert all(after[ell][v] == before[ell][v] for ell in leaders for v in seq.nodes())

    def test_a_pair_wrongly_marked_inert_breaks_the_equality(self, monkeypatch):
        # Mutation check: on this instance the first legal pair that is not
        # inert, (0, 6), is rejected by the replay, so adding it untested shows.
        g, leaders = random_connected_graph(10, 0.3, seed=1), (0, 5)
        seq = pmi_setup(g, leaders)
        expected = reference_randomized_scan(g, leaders, seq, seed=1, repetitions=1)
        assert augment_randomized(g, leaders, seq, seed=1).edges_after == expected
        inert = _inert

        def one_more(at, floor, legal):
            mask = inert(at, floor, legal)
            extra = next(p for p in zip(*np.nonzero(legal)) if not mask[p])
            assert tuple(map(int, extra)) == (0, 6) and (0, 6) not in expected
            mask[extra] = True
            return mask

        monkeypatch.setattr(augmentation, "_inert", one_more)
        assert augment_randomized(g, leaders, seq, seed=1).edges_after != expected


class TestScanKernel:
    """``_scan`` takes any orders of missing pairs, inert pairs and pairs
    illegal alone included, and scans each one from the input graph."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(scan_instances(), inert_instances()), st.data())
    def test_each_order_equals_the_replay(self, instance, data):
        g, leaders, seq = instance
        at, floor = _instance(g, leaders, seq)
        _, need = _legal_alone(_missing_pairs(g), at, floor)
        missing = sorted(complement_edges(g))
        orders = []
        for _ in range(2):  # a permutation of a random subset of the missing pairs
            order = data.draw(st.permutations(missing))
            orders.append(order[: data.draw(st.integers(0, len(order)))])
        expected = [reference_scan(g, leaders, seq, order) for order in orders]
        split = [([x for x, _ in order], [y for _, y in order]) for order in orders]
        assert list(_scan(g, at, floor, need, split)) == expected
        assert list(_scan(g, at, floor, need, [])) == []


class TestUpperBound:
    def test_path_nothing_addable(self):
        g = path_graph(3)
        assert addable_edge_upper_bound(g, (0,), pmi_setup(g, (0,))) == 0

    def test_star_all_leaf_pairs_addable(self):
        g = star_graph(5)
        assert addable_edge_upper_bound(g, (0,), pmi_setup(g, (0,))) == 10

    def test_complete_graph_zero(self):
        g = complete_graph(4)
        assert addable_edge_upper_bound(g, (0,), pmi_setup(g, (0,))) == 0

    def test_counts_shortcuts_off_the_geodesics(self):
        # Path 0-1-2-3 with a pendant edge 0-4: (3, 4) joins no two nodes of a
        # monitored geodesic, yet added alone it shortens d(0, 3) to 2.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        seq = pmi_setup(g, (0,))
        assert seq.nodes() == (0, 1, 2, 3)
        assert addable_edge_upper_bound(g, (0,), seq) == 2
        for res in (
            augment_intersection(g, (0,), seq),
            augment_randomized(g, (0,), seq, seed=3, repetitions=2),
        ):
            assert res.upper_bound_addable == 2
            assert res.added == {(1, 4), (2, 4)}

    def test_sandwiches_both_algorithms(self):
        for seed in range(6):
            g = random_connected_graph(12, 0.3, seed=seed + 900)
            leaders = (0, 4, 8)
            seq = pmi_setup(g, leaders)
            bound = addable_edge_upper_bound(g, leaders, seq)
            res_i = augment_intersection(g, leaders, seq)
            res_r = augment_randomized(g, leaders, seq, seed=seed, repetitions=2)
            assert len(res_i.added) <= bound
            assert len(res_r.added) <= bound

    def test_matches_oracle(self):
        for seed in range(8):
            g = random_connected_graph(14, 0.15 + 0.03 * seed, seed=seed + 950)
            leaders = (0, 5, 9)
            seq = pmi_setup(g, leaders)
            pairs = [(ell, v) for ell in leaders for v in seq.nodes() if ell != v]
            bound = addable_edge_upper_bound(g, leaders, seq)
            assert bound == legal_alone_oracle(g, pairs)
            dist = bfs_distances(g, 0)
            b = max(range(g.n), key=lambda v: dist[v])
            assert augment_pair(g, 0, b).upper_bound_addable == legal_alone_oracle(g, [(0, b)])

    @settings(max_examples=40, deadline=None)
    @given(scan_instances(min_n=2, max_n=9))
    def test_shortcut_oracle_matches_recomputation(self, instance):
        g, leaders, seq = instance
        pairs = [(ell, v) for ell in leaders for v in seq.nodes() if ell != v]
        assert shortcut_legal_oracle(g, pairs) == legal_alone_oracle(g, pairs)

    def test_disconnected_input_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        seq = PMISequence((DistanceVector(0, (0,)), DistanceVector(1, (1,))), (0, 0))
        for run in (augment_intersection, augment_randomized, addable_edge_upper_bound):
            with pytest.raises(DisconnectedGraphError):
                run(g, (0,), seq)

    def test_size_guard(self):
        g = Graph(DENSE_NODE_GUARD + 1, [(0, 1)])
        seq = PMISequence((DistanceVector(0, (0,)), DistanceVector(1, (1,))), (0, 0))
        for run in (augment_intersection, augment_randomized, addable_edge_upper_bound):
            with pytest.raises(SizeGuardError, match=f"n <= {DENSE_NODE_GUARD}"):
                run(g, (0,), seq)


def path_with_random_chords(n, chords, leaders, seed):
    """Path 0..n-1 plus ``chords`` distinct random node pairs, and ``leaders``
    distinct random leaders, all drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n - 1 + chords:
        edges.add(tuple(sorted(rng.choice(n, 2, replace=False).tolist())))
    return Graph(n, edges), tuple(rng.choice(n, leaders, replace=False).tolist())


class TestDenseMasks:
    """The n x n masks behind T and the intersection, where the missing pairs
    far outnumber the monitored nodes (a long path) or the node pairs far
    outnumber the missing ones (a near-complete graph)."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: path_with_random_chords(400, 40, 3, seed=5),
            lambda: (random_connected_graph(120, 0.9, seed=3), (0, 40, 80, 119)),
        ],
        ids=["path-400-chords", "er-120-0.9"],
    )
    def test_bound_and_distances_against_oracles(self, make):
        g, leaders = make()
        seq = pmi_setup(g, leaders)
        pairs = [(ell, v) for ell in leaders for v in seq.nodes() if ell != v]
        res = augment_intersection(g, leaders, seq)
        assert res.added and res.upper_bound_addable == shortcut_legal_oracle(g, pairs)
        assert addable_edge_upper_bound(g, leaders, seq) == res.upper_bound_addable
        before, after = bfs_oracle(g, leaders), bfs_oracle(Graph(g.n, res.edges_after), leaders)
        assert all(after[ell][v] == before[ell][v] for ell, v in pairs)
        assert is_pmi_oracle([[after[ell][v] for ell in leaders] for v in seq.nodes()]).ok

    def test_near_complete_intersection_equals_oracle(self):
        g, leaders = random_connected_graph(120, 0.9, seed=3), (0, 40, 80, 119)
        seq = pmi_setup(g, leaders)
        pairs = [(ell, v) for ell in leaders for v in seq.nodes() if ell != v]
        assert augment_intersection(g, leaders, seq).edges_after == intersection_oracle(g, pairs)

    def test_peak_memory_at_n_1000(self):
        g, leaders = path_with_random_chords(1000, 100, 3, seed=0)
        seq = pmi_setup(g, leaders)
        # The scan runs on a near-complete graph instead, whose monitored
        # distances are at most 2, so every pair legal alone is inert and the
        # inert pass runs over all 1000 nodes. Under tracemalloc one scan of
        # the path takes ~15 s (0.6 s untraced), spent on its big-int fields.
        rng = np.random.default_rng(0)
        lo, hi = np.nonzero(np.triu(rng.random((1000, 1000)) < 0.995, 1))
        dense, hubs = Graph(1000, zip(lo.tolist(), hi.tolist())), (0, 500, 999)
        runs = [(augment_intersection, g, leaders, seq, 11_000_000),
                (addable_edge_upper_bound, g, leaders, seq, 11_000_000),
                (augment_randomized, dense, hubs, pmi_setup(dense, hubs), 20_000_000)]
        dense.edges  # the input's own frozenset, built once before tracing
        for run, graph, ends, pmi, bound in runs:
            tracemalloc.start()
            try:
                run(graph, ends, pmi)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Measured 7.68 MB for the intersection and 6.73 MB for the bound
            # (99 PMI nodes, 498 401 missing pairs): each n x n bool mask is
            # 1 MB and the packed words 1-2 MB; the bound holds the candidate
            # mask through the packed pass. The missing pairs as two int
            # arrays, or one int64 n x n temporary, would add 8 MB. The scan
            # measured 17.5 MB, as before the inert pass (2566 missing pairs,
            # 2565 legal alone and inert).
            assert peak < bound, run.__name__

    @pytest.mark.parametrize("run", ["pair", "intersection", "randomized", "bound"])
    def test_one_missing_pair_mask_per_call(self, monkeypatch, run):
        g, leaders = random_connected_graph(12, 0.4, seed=7), (0, 5)
        seq = pmi_setup(g, leaders)
        calls = {
            "pair": lambda: augment_pair(g, 0, 5),
            "intersection": lambda: augment_intersection(g, leaders, seq),
            "randomized": lambda: augment_randomized(g, leaders, seq, seed=1, repetitions=3),
            "bound": lambda: addable_edge_upper_bound(g, leaders, seq),
        }
        built = []

        def counted(graph):
            built.append(graph)
            return _missing_pairs(graph)

        monkeypatch.setattr(augmentation, "_missing_pairs", counted)
        calls[run]()
        assert built == [g]


@st.composite
def packed_tables(draw):
    """A random graph with ``_instance``-shaped tables ``at`` and ``floor`` at
    the edges of the packed masks: n on both sides of the row block, floors
    whose largest value (always present) sits on either side of a field-width
    step, and up to 12 x 4 monitored pairs, more than one word holds at the
    narrowest fields. Distances run to one past the largest floor."""
    n = draw(st.sampled_from([1, 2, 5, 17, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]))
    top = draw(st.sampled_from([1, 2, 3, 5, 6, 7, 14, 15, 16, 30, 31, 62, 63, 126, 127, 2046, 2047, 4094, 4095]))
    monitored, leaders = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    at = rng.integers(0, top + 2, size=(n, max(monitored, leaders) + draw(st.integers(0, 2))))
    floor = rng.integers(0, top + 1, size=(monitored, leaders))
    floor.flat[: min(floor.size, draw(st.integers(1, 3)))] = top
    lo, hi = np.nonzero(np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.5)), 1))
    return Graph(n, list(zip(lo.tolist(), hi.tolist()))), at, floor


class TestPackedMasks:
    """``_legal_alone`` and ``_chain`` test packed words of guard-bit fields;
    the references compare one monitored node or one pair at a time."""

    @settings(max_examples=60, deadline=None)
    @given(packed_tables())
    def test_masks_and_edge_order_match_the_per_pair_loops(self, tables):
        g, at, floor = tables
        got, want = _legal_alone(_missing_pairs(g), at, floor), reference_legal_alone(g, at, floor)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        added, legal = _chain(_missing_pairs(g), at, floor)
        assert list(added) == reference_chain(g, at, floor)
        assert np.array_equal(legal, want[0])


class TestKirchhoffAfterAugmentation:
    def test_strict_decrease_when_edges_added(self):
        for seed in range(5):
            g = random_connected_graph(10, 0.25, seed=seed + 1000)
            leaders = (0, 5)
            seq = pmi_setup(g, leaders)
            before = kirchhoff_index(g)
            for res in (
                augment_intersection(g, leaders, seq),
                augment_randomized(g, leaders, seq, seed=seed, repetitions=2),
            ):
                after = kirchhoff_index(Graph(g.n, res.edges_after))
                if res.added:
                    assert after < before - 1e-9
                else:
                    assert after == pytest.approx(before)


class TestSuccessProbabilityBound:
    def test_worked_number(self):
        assert success_probability_bound(100, 92, 0.75, 500) == pytest.approx(0.795, abs=0.01)

    def test_zero_repetitions(self):
        assert success_probability_bound(50, 10, 0.5, 0) == 0.0

    def test_tau_equals_total(self):
        for c in (1, 3, 10):
            assert success_probability_bound(7, 7, 0.9, c) == pytest.approx(1 - math.exp(-c))

    def test_monotone_in_repetitions(self):
        values = [success_probability_bound(100, 80, 0.75, c) for c in range(0, 400, 25)]
        assert values == sorted(values)

    def test_tau_above_total_rejected(self):
        with pytest.raises(ValueError):
            success_probability_bound(10, 11, 0.5, 1)

    def test_integer_exponent_rounds_up(self):
        # ratio*tau = 4.5 rounds to 5: probability must use the larger exponent
        loose = 1 - math.exp(-1 * (9 / 10) ** 5)
        assert success_probability_bound(10, 9, 0.5, 1) == pytest.approx(loose)

    @pytest.mark.parametrize("position, name", [(0, "total_legal"), (1, "optimal_size"),
                                                (3, "repetitions")])
    @pytest.mark.parametrize("value", [True, 2.5], ids=["bool", "fraction"])
    def test_counts_must_be_integers(self, position, name, value):
        args = [10, 5, 0.5, 2]
        args[position] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            success_probability_bound(*args)

    @pytest.mark.parametrize("ratio", [0, 1.5])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match=rf"^ratio must lie in \(0, 1\], got {ratio}$"):
            success_probability_bound(10, 5, ratio, 3)

    @pytest.mark.parametrize("ratio", [True, "0.5", None])
    def test_ratio_must_be_a_real_number(self, ratio):
        with pytest.raises(ValueError, match=f"^ratio must be a real number, got {ratio!r}$"):
            success_probability_bound(10, 5, ratio, 3)


class TestResultSerialization:
    def test_json_shape_and_runtime_zeroed(self):
        g = star_graph(4)
        seq = pmi_setup(g, (0,))
        res = augment_randomized(g, (0,), seq, seed=1, repetitions=2)
        data = res.to_json()
        assert list(data) == [
            "algorithm",
            "seed",
            "c",
            "edges_before",
            "edges_after",
            "added_edges",
            "upper_bound",
            "pmi_length",
            "runtime_ms",
        ]
        assert data["runtime_ms"] == 0.0
        assert data["edges_before"] == 4
        assert res.to_json(include_runtime=True)["runtime_ms"] >= 0.0
        assert data["added_edges"] == sorted(data["added_edges"])

    def test_runtime_is_within_the_wall_time_of_the_call(self):
        g, leaders = random_connected_graph(14, 0.3, seed=4), (0, 13)
        seq = pmi_setup(g, leaders)
        calls = [
            lambda: augment_pair(g, 0, 13),
            lambda: augment_intersection(g, leaders, seq),
            lambda: augment_randomized(g, leaders, seq, seed=1, repetitions=3),
        ]
        for call in calls:
            start = time.perf_counter()
            res = call()
            wall_ms = (time.perf_counter() - start) * 1000.0
            assert 0.0 <= res.runtime_ms <= wall_ms

    def test_randomized_defaults_to_one_repetition(self):
        g, leaders = random_connected_graph(14, 0.3, seed=4), (0, 13)
        seq = pmi_setup(g, leaders)
        res = augment_randomized(g, leaders, seq, seed=5)
        assert res.repetitions == 1
        assert res.to_json() == augment_randomized(g, leaders, seq, seed=5, repetitions=1).to_json()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_edge_fields_are_frozensets_matching_the_json(self, seed):
        g, leaders = random_connected_graph(14, 0.3, seed=seed), (0, 13)
        seq = pmi_setup(g, leaders)
        for res in (
            augment_pair(g, *leaders),
            augment_intersection(g, leaders, seq),
            augment_randomized(g, leaders, seq, seed=seed, repetitions=3),
        ):
            fields = (res.edges_before, res.edges_after, res.added)
            assert all(type(f) is frozenset for f in fields)
            assert {type(x) for f in fields for e in f for x in e} <= {int}
            assert res.edges_before == g.edges and res.edges_after == g.edges | res.added
            assert res.added and not res.added & g.edges and all(u < v for u, v in res.added)
            data = res.to_json()
            assert data["added_edges"] == [list(e) for e in sorted(res.added)]
            assert (data["edges_before"], data["edges_after"]) == tuple(
                map(len, (res.edges_before, res.edges_after))
            )
