#!/usr/bin/env python3
"""Show the full bound-preserving pipeline on one network.

Computes a PMI sequence for randomly placed leaders, densifies the graph
with both algorithms, then verifies with exact modular ranks that the rank
bound holds under random edge weights and that robustness (Kirchhoff index)
improved.
"""

import numpy as np

from netaug import (
    GenSpec,
    Graph,
    augment_intersection,
    augment_randomized,
    erdos_renyi,
    is_connected,
    kirchhoff_index,
    pmi_greedy,
    validate_ssc_bound,
)


def main():
    print("Controllability-preserving densification")
    print("=" * 40)

    seed = 6
    g = erdos_renyi(GenSpec(model="erdos-renyi", n=20, p=0.2, seed=seed))
    while not is_connected(g):
        seed += 1
        g = erdos_renyi(GenSpec(model="erdos-renyi", n=20, p=0.2, seed=seed))
    leaders = tuple(int(x) for x in np.random.default_rng(1).choice(20, size=3, replace=False))
    print(f"graph: {g.n} nodes, {g.num_edges()} edges; leaders {leaders}")

    seq = pmi_greedy(g, leaders)
    print(f"PMI sequence of length {len(seq)} over nodes {list(seq.nodes())}")
    print(f"=> controllable subspace has dimension at least {len(seq)} for ANY positive weights")

    results = {
        "intersection": augment_intersection(g, leaders, seq),
        "randomized (c=30)": augment_randomized(g, leaders, seq, seed=0, repetitions=30),
    }
    before_kf = kirchhoff_index(g)
    print(f"\nKirchhoff index before: {before_kf:.3f} (lower = more robust)")
    for name, res in results.items():
        h = Graph(g.n, res.edges_after)
        check = validate_ssc_bound(h, leaders, bound=len(seq), trials=25, seed=3)
        print(f"  {name}: +{len(res.added)} edges, Kirchhoff {kirchhoff_index(h):.3f}, "
              f"proved rank {check.min_rank} >= bound {len(seq)} on all 25 weight samples: "
              f"{'ok' if check.passed else 'VIOLATED'}")


if __name__ == "__main__":
    main()
