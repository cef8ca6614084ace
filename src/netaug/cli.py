"""Command line front end.

Subcommands: ``gen`` (random graph to edge-list file), ``pmi`` (PMI sequence
as JSON), ``augment`` (run one augmenter, JSON result), ``validate`` (random
weight rank check, JSON report), ``experiment`` (ensemble study, CSV).
Exit codes: 0 success, 1 domain error (bad values or input fields), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .augmentation import augment_intersection, augment_randomized
from .controllability import PMISequence, pmi_exact, pmi_greedy, validate_ssc_bound
from .experiments import ExperimentConfig, aggregates_to_csv, records_to_csv, run_experiment
from .graphs import GenSpec, generate, parse_edge_list, write_edge_list

_MODEL_ALIASES = {
    "er": "erdos-renyi",
    "erdos-renyi": "erdos-renyi",
    "ba": "barabasi-albert",
    "barabasi-albert": "barabasi-albert",
}


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _read_json(path: str, loader):
    """``loader`` applied to the JSON in ``path``; a missing field or a value
    of the wrong shape is a domain error."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        return loader(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: wrong JSON shape: {exc}") from None


def _pmi_for(graph, leaders, method: str):
    return pmi_exact(graph, leaders) if method == "exact" else pmi_greedy(graph, leaders)


def _cmd_gen(args) -> int:
    model = _MODEL_ALIASES[args.model]
    if model == "erdos-renyi":
        if args.p is None:
            raise ValueError("--p is required for the erdos-renyi model")
        spec = GenSpec(model=model, n=args.n, p=args.p, seed=args.seed)
    else:
        if args.gamma is None:
            raise ValueError("--gamma is required for the barabasi-albert model")
        spec = GenSpec(model=model, n=args.n, gamma=args.gamma, seed=args.seed)
    _write_output(write_edge_list(generate(spec)), args.output)
    return 0


def _cmd_pmi(args) -> int:
    graph = _read_graph(args.graph)
    seq = _pmi_for(graph, args.leaders, args.method)
    _write_output(json.dumps(seq.to_json(), indent=2) + "\n", args.output)
    return 0


def _augment_json(result, include_runtime: bool) -> str:
    """``json.dumps(result.to_json(include_runtime), indent=2)`` and a newline.

    The generic encoder takes tens of milliseconds on an edge list of ~17k
    pairs; one join renders the list in its layout, spliced into the rest.
    """
    data = result.to_json(include_runtime)
    text = json.dumps({**data, "added_edges": []}, indent=2)
    if data["added_edges"]:
        body = ",\n".join(f"    [\n      {u},\n      {v}\n    ]" for u, v in data["added_edges"])
        text = text.replace('"added_edges": []', f'"added_edges": [\n{body}\n  ]', 1)
    return text + "\n"


def _cmd_augment(args) -> int:
    graph = _read_graph(args.graph)
    if args.pmi is not None:
        seq = _read_json(args.pmi, PMISequence.from_json)
    else:
        seq = _pmi_for(graph, args.leaders, args.pmi_method)
    if args.algorithm == "intersect":
        result = augment_intersection(graph, args.leaders, seq)
    else:
        result = augment_randomized(
            graph, args.leaders, seq, seed=args.seed, repetitions=args.repetitions
        )
    _write_output(_augment_json(result, args.time), args.output)
    return 0


def _cmd_validate(args) -> int:
    graph = _read_graph(args.graph)
    bound = args.bound
    if bound is None:
        bound = len(pmi_greedy(graph, args.leaders))
    report = validate_ssc_bound(
        graph, args.leaders, bound, trials=args.trials, seed=args.seed
    )
    _write_output(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    return 0


def _cmd_experiment(args) -> int:
    config = _read_json(args.config, ExperimentConfig.from_json)
    if args.full:
        config = dataclasses.replace(config, instances=100, repetitions=150)
    if args.time:
        config = dataclasses.replace(config, measure_runtime=True)
    records, aggregates = run_experiment(config)
    _write_output(records_to_csv(records), args.output or config.output_path)
    if args.aggregates:
        _write_output(aggregates_to_csv(aggregates), args.aggregates)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netaug",
        description="Densify networks while preserving a distance-based controllability bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random graph as an edge-list file")
    gen.add_argument("--model", choices=sorted(_MODEL_ALIASES), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--gamma", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    pmi = sub.add_parser("pmi", help="compute a PMI sequence as JSON")
    pmi.add_argument("-g", "--graph", required=True)
    pmi.add_argument("--leaders", type=int, nargs="+", required=True)
    pmi.add_argument("--method", choices=("greedy", "exact"), default="greedy")
    pmi.add_argument("-o", "--output", default=None)
    pmi.set_defaults(func=_cmd_pmi)

    aug = sub.add_parser("augment", help="add edges while preserving the bound")
    aug.add_argument("-g", "--graph", required=True)
    aug.add_argument("--leaders", type=int, nargs="+", required=True)
    aug.add_argument("--algorithm", choices=("intersect", "random"), default="intersect")
    aug.add_argument("--pmi-method", choices=("greedy", "exact"), default="greedy")
    aug.add_argument("--pmi", default=None,
                     help="load a precomputed PMI sequence (JSON) instead of computing one")
    aug.add_argument("--seed", type=int, default=0)
    aug.add_argument("-c", "--repetitions", type=int, default=30)
    aug.add_argument("--time", action="store_true", help="report measured runtime")
    aug.add_argument("-o", "--output", default=None)
    aug.set_defaults(func=_cmd_augment)

    val = sub.add_parser("validate", help="rank check under random edge weights")
    val.add_argument("-g", "--graph", required=True)
    val.add_argument("--leaders", type=int, nargs="+", required=True)
    val.add_argument("--trials", type=int, default=25)
    val.add_argument("--bound", type=int, default=None,
                     help="claimed bound; defaults to the greedy PMI length")
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("-o", "--output", default=None)
    val.set_defaults(func=_cmd_validate)

    exp = sub.add_parser("experiment", help="run an ensemble study from a config JSON")
    exp.add_argument("-c", "--config", required=True)
    exp.add_argument("-o", "--output", default=None)
    exp.add_argument("--aggregates", default=None, help="also write per-cell means here")
    exp.add_argument("--full", action="store_true",
                     help="full-scale settings: 100 instances, 150 repetitions")
    exp.add_argument("--time", action="store_true", help="record measured runtimes")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
