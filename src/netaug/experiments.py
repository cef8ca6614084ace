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
from dataclasses import dataclass, fields

import numpy as np

from .augmentation import augment_intersection, augment_randomized
from .controllability import kirchhoff_index, pmi_greedy
from .errors import DisconnectedGraphError
from .graphs import GenSpec, Graph, _json_int, generate, is_connected

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
    attachment counts for Barabasi-Albert. Defaults are desk scale; the
    full-scale study in the CLI (``--full``) bumps ``instances`` to 100 and
    ``repetitions`` to 150.
    """

    model: str
    n: int
    parameters: tuple[float, ...]
    leader_counts: tuple[int, ...]
    instances: int = 20
    repetitions: int = 30
    master_seed: int = 0
    resample_until_connected: bool = True
    measure_runtime: bool = False
    output_path: str | None = None

    def __post_init__(self):
        if self.model not in ("erdos-renyi", "barabasi-albert"):
            raise ValueError(f"unknown model {self.model!r}")
        if not self.parameters:
            raise ValueError("parameter grid must not be empty")
        for value in self.parameters:
            if self.model == "erdos-renyi" and not 0.0 <= value <= 1.0:
                raise ValueError(f"edge probability must lie in [0, 1], got {value!r}")
            if self.model == "barabasi-albert" and not (
                1 <= value < self.n and float(value).is_integer()
            ):
                raise ValueError(
                    f"attachment count must be an integer with 1 <= gamma < n, got {value!r}"
                )
        if not self.leader_counts:
            raise ValueError("leader count list must not be empty")
        for count in self.leader_counts:
            if not (1 <= count <= self.n):
                raise ValueError(f"leader count {count} impossible for n={self.n}")
        if self.instances < 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        # Numbers only, kept uncast: trial_seed hashes each parameter's repr.
        parameters = tuple(data["parameters"])
        for value in parameters:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"parameters must be numbers, got {value!r}")
        for flag in ("resample_until_connected", "measure_runtime"):
            if not isinstance(data.get(flag, False), bool):
                raise ValueError(f"{flag} must be true or false, got {data[flag]!r}")
        return cls(
            model=data["model"],
            n=_json_int(data["n"], "n"),
            parameters=parameters,
            leader_counts=tuple(
                _json_int(x, "leader_counts entry") for x in data["leader_counts"]
            ),
            instances=_json_int(data.get("instances", 20), "instances"),
            repetitions=_json_int(data.get("repetitions", 30), "repetitions"),
            master_seed=_json_int(data.get("master_seed", 0), "master_seed"),
            resample_until_connected=data.get("resample_until_connected", True),
            measure_runtime=data.get("measure_runtime", False),
            output_path=data.get("output_path"),
        )

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "parameters": list(self.parameters),
            "leader_counts": list(self.leader_counts),
            "instances": self.instances,
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "resample_until_connected": self.resample_until_connected,
            "measure_runtime": self.measure_runtime,
            "output_path": self.output_path,
        }


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


def _draw_graph(config: ExperimentConfig, parameter, rng) -> tuple[Graph, int]:
    """Draw one instance, resampling disconnected graphs when configured."""
    attempts = MAX_RESAMPLE_ATTEMPTS if config.resample_until_connected else 1
    for attempt in range(attempts):
        gen_seed = int(rng.integers(0, 2**63))
        if config.model == "erdos-renyi":
            spec = GenSpec(model=config.model, n=config.n, p=float(parameter), seed=gen_seed)
        else:
            spec = GenSpec(model=config.model, n=config.n, gamma=int(parameter), seed=gen_seed)
        g = generate(spec)
        if is_connected(g):
            return g, attempt
    if config.resample_until_connected:
        raise DisconnectedGraphError(
            f"no connected sample in {MAX_RESAMPLE_ATTEMPTS} attempts "
            f"(model={config.model}, parameter={parameter})"
        )
    raise DisconnectedGraphError(
        "drew a disconnected sample and resample_until_connected is off"
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
    cells: dict[tuple, list[ExperimentRecord]] = {}
    for rec in records:
        cells.setdefault((rec.model, rec.parameter, rec.num_leaders), []).append(rec)

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    out = []
    for (model, parameter, num_leaders), cell in sorted(cells.items()):
        out.append(
            ExperimentAggregate(
                model=model,
                parameter=parameter,
                num_leaders=num_leaders,
                trials=len(cell),
                mean_pmi_length=mean(r.pmi_length for r in cell),
                mean_edges_before=mean(r.edges_before for r in cell),
                mean_edges_after_intersection=mean(
                    r.edges_after_intersection for r in cell
                ),
                mean_edges_after_randomized=mean(
                    r.edges_after_randomized for r in cell
                ),
                mean_upper_bound=mean(r.upper_bound for r in cell),
                mean_kirchhoff_before=mean(r.kirchhoff_before for r in cell),
                mean_kirchhoff_after_intersection=mean(
                    r.kirchhoff_after_intersection for r in cell
                ),
                mean_kirchhoff_after_randomized=mean(
                    r.kirchhoff_after_randomized for r in cell
                ),
            )
        )
    return out


def _format(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
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
