"""Command line front end.

Subcommands: ``gen`` (random graph to edge-list file), ``pmi`` (PMI sequence
as JSON), ``augment`` (run one augmenter, JSON result), ``validate`` (random
weight rank check, JSON report), ``experiment`` (ensemble study, CSV). Every
``experiment`` setting, scale and runtime columns included, comes from its
config JSON; the command itself only names the input and output files.
Exit codes: 0 success, 1 domain error (bad values or input fields), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .augmentation import _sorted_pairs, augment_intersection, augment_randomized
from .controllability import PMISequence, pmi_exact, pmi_greedy, validate_ssc_bound
from .experiments import ExperimentConfig, aggregates_to_csv, records_to_csv, run_experiment
from .errors import DisconnectedGraphError
from .graphs import GenSpec, Graph, _guard_dense, generate, parse_edge_list, write_edge_list

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


def _read_graph(path: str, guard: str | None = None) -> Graph:
    """The graph in ``path``, connected as every command needs: a header counting
    more nodes than its distinct edges can connect is refused before any per-node
    allocation, after the size guard named by ``guard`` if the caller has one."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    g = parse_edge_list(text)
    if guard is not None:
        _guard_dense(g.n, guard)
    if g.n > g.num_edges() + 1:
        raise DisconnectedGraphError(f"{path}: {g.num_edges()} distinct edges cannot connect n={g.n}")
    return g


def _read_json(path: str, loader):
    """``loader`` applied to the JSON in ``path``; text that does not decode or
    parse, a missing field, a value of the wrong shape or one the loader
    refuses is a domain error naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return loader(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: wrong JSON shape: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


#: One added edge as ``json.dumps(indent=2)`` lays it out inside the result.
_EDGE_ITEM = "    [\n      %d,\n      %d\n    ]"


def _augment_json(result, include_runtime: bool) -> str:
    """``json.dumps(result.to_json(include_runtime), indent=2)`` and a newline.

    The generic encoder takes tens of milliseconds on an edge list of ~17k
    pairs. The rest of the result is encoded with no edges; the added pairs,
    sorted as one int array, are rendered by one ``%`` over a repeated
    template and spliced in.
    """
    data = dataclasses.replace(result, added=frozenset()).to_json(include_runtime)
    text = json.dumps(data, indent=2)
    if result.added:
        flat = _sorted_pairs(result.added).ravel().tolist()
        body = ",\n".join([_EDGE_ITEM] * len(result.added)) % tuple(flat)
        text = text.replace('"added_edges": []', f'"added_edges": [\n{body}\n  ]', 1)
    return text + "\n"


def _cmd_augment(args) -> int:
    seq = None if args.pmi is None else _read_json(args.pmi, PMISequence.from_json)
    graph = _read_graph(args.graph, guard="edge augmentation")
    if seq is None:
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
    records, aggregates = run_experiment(config)
    _write_output(records_to_csv(records), args.output)
    if args.aggregates:
        _write_output(aggregates_to_csv(aggregates), args.aggregates)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` does not change it."""
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
    pmi_source = aug.add_mutually_exclusive_group()
    pmi_source.add_argument("--pmi-method", choices=("greedy", "exact"), default="greedy")
    pmi_source.add_argument("--pmi", default=None,
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
