#!/usr/bin/env python3
"""Run a desk-scale ensemble study and print the aggregate table.

Mirrors the full evaluation protocol (random graphs, random leaders, both
algorithms, upper bound) at a size that finishes in seconds. Writes the
per-trial CSV next to this script.
"""

from pathlib import Path

from netaug import ExperimentConfig, records_to_csv, run_experiment

#: The study's grid; the tests check that it reproduces ensemble_records.csv.
CONFIG = ExperimentConfig(
    model="erdos-renyi",
    n=30,
    parameters=(0.2, 0.3),
    leader_counts=(2, 4, 6),
    instances=10,
    repetitions=10,
    master_seed=2024,
)


def main():
    print("Ensemble study (desk scale)")
    print("=" * 40)

    records, aggregates = run_experiment(CONFIG)

    out = Path(__file__).with_name("ensemble_records.csv")
    out.write_text(records_to_csv(records))
    print(f"{len(records)} trials written to {out.name}\n")

    header = f"{'p':>5} {'leaders':>7} {'bound':>6} {'|E|':>6} {'intersect':>10} {'random':>8} {'max':>7}"
    print(header)
    print("-" * len(header))
    for agg in aggregates:
        print(
            f"{agg.parameter:>5} {agg.num_leaders:>7} {agg.mean_pmi_length:>6.1f} "
            f"{agg.mean_edges_before:>6.1f} {agg.mean_edges_after_intersection:>10.1f} "
            f"{agg.mean_edges_after_randomized:>8.1f} "
            f"{agg.mean_edges_before + agg.mean_upper_bound:>7.1f}"
        )
    print("\n('max' = original edges plus the addable-edge upper bound)")


if __name__ == "__main__":
    main()
