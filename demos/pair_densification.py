#!/usr/bin/env python3
"""Walk through densifying a graph around a single protected node pair.

Builds a small random graph, splits its nodes into levels between two
far-apart nodes, induces the chain of cliques over those levels, and
cross-checks the result against exhaustive search.
"""

from netaug import (
    GenSpec,
    augment_pair,
    augment_pair_brute_force,
    bfs_distances,
    classify_fixed_nodes,
    erdos_renyi,
    is_connected,
    level_partition,
)


def main():
    print("Single-pair densification")
    print("=" * 40)

    spec = GenSpec(model="erdos-renyi", n=8, p=0.3, seed=18)
    g = erdos_renyi(spec)
    while not is_connected(g):
        spec = GenSpec(model="erdos-renyi", n=8, p=0.3, seed=spec.seed + 1)
        g = erdos_renyi(spec)
    print(f"graph: {g.n} nodes, {g.num_edges()} edges (seed {spec.seed})")

    dist = bfs_distances(g, 0)
    b = max(range(g.n), key=lambda v: dist[v])
    print(f"protected pair: (0, {b}) at distance {dist[b]}")

    fixed = classify_fixed_nodes(g, 0, b)
    on_geodesics = [v for v in range(g.n) if fixed[v]]
    print(f"nodes on some shortest path: {on_geodesics}")

    for i, level in enumerate(level_partition(g, 0, b)):
        print(f"  level {i}: {list(level)}")

    result = augment_pair(g, 0, b)
    print(f"chain solution: {len(result.edges_after)} edges "
          f"(+{len(result.added)}, bound {result.upper_bound_addable})")

    h_dist = bfs_distances(type(g)(g.n, result.edges_after), 0)
    print(f"pair distance afterwards: {h_dist[b]} (unchanged)")

    optimum, _ = augment_pair_brute_force(g, 0, b)
    print(f"exhaustive optimum: {optimum} edges -> gap {optimum - len(result.edges_after)}")


if __name__ == "__main__":
    main()
