"""Seeded ensemble runner: random graphs -> PMI -> both augmenters -> CSV records.

Every trial is driven by a seed derived as
``sha256("{master}|{model}|{parameter!r}|{num_leaders}|{trial}")[:8]``,
so extending the parameter grid or the leader list never perturbs existing
trials, and a fixed config reproduces its CSV byte for byte. Wall-clock
columns are written as 0 unless ``measure_runtime`` is set, to keep default
outputs reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .augmentation import augment_intersection, augment_randomized
from .controllability import kirchhoff_index, pmi_greedy
from .errors import DisconnectedGraphError
from .graphs import GenSpec, Graph, _integer, _json_int, generate, is_connected

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentAggregate",
    "trial_seed",
    "run_experiment",
    "records_to_csv",
    "aggregates_to_csv",
]

#: Resampling gives up after this many disconnected draws.
MAX_RESAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid description for one ensemble study.

    ``parameters`` holds edge probabilities for the Erdos-Renyi model or
    attachment counts for Barabasi-Albert. Neither grid may repeat a value as
    a number (``1`` and ``1.0`` are one cell), which would rerun the same
    trials. Every setting is checked at construction, the grid values by the
    ``GenSpec`` each trial draws from; any bad value raises ``ValueError``.
    A grid, any iterable but a string or a mapping, is stored as a tuple and
    NumPy scalars as the Python numbers they hold (``.item()``), so a config
    reproduces the trial seeds, CSV and JSON of its JSON form.
    Defaults are desk scale; the paper-scale study sets ``instances`` to 100
    and ``repetitions`` to 150.
    """

    model: str
    n: int
    parameters: tuple[float, ...]
    leader_counts: tuple[int, ...]
    instances: int = 20
    repetitions: int = 30
    master_seed: int = 0
    measure_runtime: bool = False

    def __post_init__(self):
        plain = lambda v: v.item() if isinstance(v, np.generic) else v
        for name in ("parameters", "leader_counts"):  # a string would be split into characters
            grid = getattr(self, name)
            if isinstance(grid, (str, Mapping)) or not isinstance(grid, Iterable):
                raise ValueError(f"{name} must be a sequence of values, got {grid!r}")
            object.__setattr__(self, name, tuple(map(plain, grid)))
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for value in self.parameters:
            _spec(self, value, 0)
        for count in self.leader_counts:
            if not 1 <= _integer(count, "leader_counts entry") <= self.n:
                raise ValueError(f"leader count {count} impossible for n={self.n}")
        for name, values in (("parameters", self.parameters), ("leader_counts", self.leader_counts)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} repeats the value {repeated[0]!r}")
        numbers = {
            "n": int(self.n),  # checked by GenSpec
            "instances": _integer(self.instances, "instances", 1),
            "repetitions": _integer(self.repetitions, "repetitions", 1),
            "master_seed": _integer(self.master_seed, "master_seed"),
            "measure_runtime": plain(self.measure_runtime),
        }
        for name, value in numbers.items():
            object.__setattr__(self, name, value)
        if not isinstance(self.measure_runtime, bool):
            raise ValueError(
                f"measure_runtime must be true or false, got {self.measure_runtime!r}"
            )

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """The config whose fields are the keys of ``data``; a missing required
        field raises ``KeyError``, an unknown one ``ValueError``."""
        values = {
            f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING
        }
        for key in data:
            if key not in values:
                names = ", ".join(f.name for f in fields(cls))
                raise ValueError(f"unknown field {key!r}; the fields are {names}")
        for name in ("n", "instances", "repetitions", "master_seed"):
            if name in values:
                values[name] = _json_int(values[name], name)
        if isinstance(counts := values["leader_counts"], list):  # __post_init__ refuses the rest
            values["leader_counts"] = [_json_int(x, "leader_counts entry") for x in counts]
        return cls(**values)

    def to_json(self) -> dict:
        lists = {"parameters": list(self.parameters), "leader_counts": list(self.leader_counts)}
        return {**asdict(self), **lists}


@dataclass(frozen=True)
class ExperimentRecord:
    """One trial's outcome; the CSV columns are exactly these fields in order."""

    model: str
    parameter: float
    n: int
    num_leaders: int
    trial: int
    seed: int
    pmi_length: int
    edges_before: int
    edges_after_intersection: int
    edges_after_randomized: int
    upper_bound: int
    kirchhoff_before: float
    kirchhoff_after_intersection: float
    kirchhoff_after_randomized: float
    runtime_intersection_ms: float = 0.0
    runtime_randomized_ms: float = 0.0
    resamples: int = 0


@dataclass(frozen=True)
class ExperimentAggregate:
    """Per-(parameter, leader count) means over the trials."""

    model: str
    parameter: float
    num_leaders: int
    trials: int
    mean_pmi_length: float
    mean_edges_before: float
    mean_edges_after_intersection: float
    mean_edges_after_randomized: float
    mean_upper_bound: float
    mean_kirchhoff_before: float
    mean_kirchhoff_after_intersection: float
    mean_kirchhoff_after_randomized: float


def trial_seed(master_seed: int, model: str, parameter, num_leaders: int, trial: int) -> int:
    """Stable 64-bit seed for one grid cell and trial (sha256 of the key string)."""
    key = f"{master_seed}|{model}|{parameter!r}|{num_leaders}|{trial}"
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def _spec(config: ExperimentConfig, parameter, seed: int) -> GenSpec:
    """The ``GenSpec`` a trial of ``parameter`` draws from. The config keeps
    its parameters uncast, since ``trial_seed`` hashes their repr."""
    if config.model == "erdos-renyi":
        return GenSpec(model=config.model, n=config.n, p=parameter, seed=seed)
    gamma = _json_int(parameter, "attachment count")
    return GenSpec(model=config.model, n=config.n, gamma=gamma, seed=seed)


def _draw_graph(config: ExperimentConfig, parameter, rng) -> tuple[Graph, int]:
    """Draw one connected instance and the number of disconnected draws before it."""
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        g = generate(_spec(config, parameter, int(rng.integers(0, 2**63))))
        if is_connected(g):
            return g, attempt
    raise DisconnectedGraphError(
        f"no connected sample in {MAX_RESAMPLE_ATTEMPTS} attempts "
        f"(model={config.model}, parameter={parameter})"
    )


def run_experiment(
    config: ExperimentConfig,
) -> tuple[list[ExperimentRecord], list[ExperimentAggregate]]:
    """Run the full grid; returns per-trial records plus per-cell means.

    Per trial: draw a connected graph, pick leaders uniformly without
    replacement, compute the greedy PMI sequence, run both augmenters and the
    addable-edge bound, and score robustness before and after. Fully
    deterministic given the config.
    """
    records: list[ExperimentRecord] = []
    for parameter in config.parameters:
        for num_leaders in config.leader_counts:
            for trial in range(config.instances):
                seed = trial_seed(
                    config.master_seed, config.model, parameter, num_leaders, trial
                )
                rng = np.random.default_rng(seed)
                g, resamples = _draw_graph(config, parameter, rng)
                leaders = tuple(
                    int(x) for x in rng.choice(g.n, size=num_leaders, replace=False)
                )
                pmi = pmi_greedy(g, leaders)
                alg_seed = int(rng.integers(0, 2**63))
                res_int = augment_intersection(g, leaders, pmi)
                res_rand = augment_randomized(
                    g, leaders, pmi, seed=alg_seed, repetitions=config.repetitions
                )
                g_int = Graph(g.n, res_int.edges_after)
                g_rand = Graph(g.n, res_rand.edges_after)
                records.append(
                    ExperimentRecord(
                        model=config.model,
                        parameter=parameter,
                        n=config.n,
                        num_leaders=num_leaders,
                        trial=trial,
                        seed=seed,
                        pmi_length=len(pmi),
                        edges_before=g.num_edges(),
                        edges_after_intersection=len(res_int.edges_after),
                        edges_after_randomized=len(res_rand.edges_after),
                        upper_bound=res_int.upper_bound_addable,
                        kirchhoff_before=kirchhoff_index(g),
                        kirchhoff_after_intersection=kirchhoff_index(g_int),
                        kirchhoff_after_randomized=kirchhoff_index(g_rand),
                        runtime_intersection_ms=res_int.runtime_ms
                        if config.measure_runtime
                        else 0.0,
                        runtime_randomized_ms=res_rand.runtime_ms
                        if config.measure_runtime
                        else 0.0,
                        resamples=resamples,
                    )
                )
    records.sort(key=lambda r: (r.parameter, r.num_leaders, r.trial))
    return records, _aggregate(records)


def _aggregate(records: list[ExperimentRecord]) -> list[ExperimentAggregate]:
    """One aggregate per cell; each ``mean_<name>`` field averages record field ``<name>``."""
    cells: dict[tuple, list[ExperimentRecord]] = {}
    for rec in records:
        cells.setdefault((rec.model, rec.parameter, rec.num_leaders), []).append(rec)
    means = [f.name for f in fields(ExperimentAggregate) if f.name.startswith("mean_")]
    return [
        ExperimentAggregate(
            model=model,
            parameter=parameter,
            num_leaders=num_leaders,
            trials=len(cell),
            **{
                name: sum(getattr(r, name.removeprefix("mean_")) for r in cell) / len(cell)
                for name in means
            },
        )
        for (model, parameter, num_leaders), cell in sorted(cells.items())
    ]


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _rows_to_csv(items, cls) -> str:
    names = [f.name for f in fields(cls)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for item in items:
        writer.writerow([_format(getattr(item, name)) for name in names])
    return buf.getvalue()


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Comma-separated records, header row, floats at 6 significant digits."""
    return _rows_to_csv(records, ExperimentRecord)


def aggregates_to_csv(aggregates: list[ExperimentAggregate]) -> str:
    return _rows_to_csv(aggregates, ExperimentAggregate)
