"""Workloads, the measurement loop and the figures of one benchmark run.

The package is driven only through public functions: ``netaug.*`` and
``netaug.cli.cli``. Each workload builds its inputs from the workload seed,
then runs operations until the time budget is spent. An operation is timed
on its own; the checks in ``checks.py`` run after it, outside the timing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import netaug
import netaug.cli
from checks import CHECKS, Instance
from spans import Tracer, installed, layer_metrics

#: Set-up runs this many times per run; setup_s is the median.
SETUP_PASSES = 5

#: Per-trial verdicts: the checks on each edge set, plus whether the reported
#: figures (CSV row or CLI JSON) match the returned edge sets.
VERDICTS = (*CHECKS, "records")


@dataclass
class Trial:
    """Checked outcome of one ensemble trial or one pipeline instance."""

    verdicts: dict[str, bool]
    added_intersection: int = 0
    added_randomized: int = 0
    upper_bound: int = 0
    kirchhoff_drop: float = 0.0
    validations: list[tuple[bool, int]] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def _failed_trials(count: int) -> list[Trial]:
    return [Trial(verdicts={name: False for name in (*VERDICTS, "repeatable")}) for _ in range(count)]


@contextmanager
def capturing(module, names, sink: list):
    """Record ``(args, result)`` of calls to ``module.<name>`` made inside the package."""
    saved = {name: getattr(module, name) for name in names}

    def recorder(fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, result))
            return result

        return call

    for name, fn in saved.items():
        setattr(module, name, recorder(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def digest(items) -> str:
    """sha256 of the canonical JSON of ``items`` (no wall-clock fields)."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _edges(items) -> set[tuple[int, int]]:
    return {(int(u), int(v)) for u, v in items}


@dataclass(frozen=True)
class Ensemble:
    """``netaug experiment`` on the A7 grid shape, one grid instance per operation.

    Each operation is a whole CLI run (config JSON in, CSV out) with its own
    ``master_seed``, so every operation draws fresh graphs.
    """

    n: int = 50
    p: float = 0.2
    leader_counts: tuple[int, ...] = (2, 5, 8)
    repetitions: int = 30
    pool: int = 64
    min_ops: int = 1

    @property
    def trials_per_op(self) -> int:
        return len(self.leader_counts)

    def setup(self, seed: int, workdir: Path):
        """Write one config per operation; returns (cases, certificate cases)."""
        cases = []
        for i in range(self.pool):
            config = {
                "model": "erdos-renyi",
                "n": self.n,
                "parameters": [self.p],
                "leader_counts": list(self.leader_counts),
                "instances": 1,
                "repetitions": self.repetitions,
                "master_seed": seed * self.pool + i,
            }
            path = workdir / f"ensemble-{i}.json"
            path.write_text(json.dumps(config))
            cases.append((path, workdir / f"ensemble-{i}.csv"))
        return cases, []

    def op(self, case):
        config_path, csv_path = case
        captured: list = []
        with capturing(netaug.experiments, ("augment_intersection", "augment_randomized"), captured):
            code = netaug.cli.cli(["experiment", "-c", str(config_path), "-o", str(csv_path)])
        if code != 0:
            raise RuntimeError(f"netaug experiment exited with {code}")
        return csv_path.read_text(encoding="utf-8"), captured

    def certify(self, payload) -> list:
        """Rank-validate each randomized result (the reference operation only)."""
        _, captured = payload
        return [
            netaug.validate_ssc_bound(netaug.Graph(args[0].n, result.edges_after), args[1], len(args[2]))
            for args, result in captured[1::2]
        ]

    def check(self, payload) -> list[Trial]:
        text, captured = payload
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(captured) != 2 * len(rows):
            return _failed_trials(max(1, len(rows)))
        trials = []
        for row, (args, inter), (_, rand) in zip(rows, captured[0::2], captured[1::2]):
            g, leaders, pmi = args[:3]
            inst = Instance(g.n, g.edges, leaders, pmi.to_json())
            before = float(row["kirchhoff_before"])
            after_i = inst.check(inter.edges_after, inter.upper_bound_addable, before,
                                 float(row["kirchhoff_after_intersection"]))
            after_r = inst.check(rand.edges_after, rand.upper_bound_addable, before,
                                 float(row["kirchhoff_after_randomized"]))
            records = (
                int(row["num_leaders"]) == len(leaders)
                and int(row["pmi_length"]) == len(pmi)
                and int(row["edges_before"]) == g.num_edges()
                and int(row["edges_after_intersection"]) == len(inter.edges_after)
                and int(row["edges_after_randomized"]) == len(rand.edges_after)
                and int(row["upper_bound"]) == inter.upper_bound_addable == rand.upper_bound_addable
            )
            verdicts = {name: after_i[name] and after_r[name] for name in after_i}
            verdicts["records"] = records
            trials.append(Trial(
                verdicts=verdicts,
                added_intersection=len(inter.added),
                added_randomized=len(rand.added),
                upper_bound=rand.upper_bound_addable,
                kirchhoff_drop=(before - float(row["kirchhoff_after_randomized"])) / before,
                outputs={
                    "pmi": pmi.to_json(),
                    "intersection_added": sorted(inter.added),
                    "randomized_added": sorted(rand.added),
                    "upper_bound": rand.upper_bound_addable,
                },
            ))
        trials[0].outputs["csv_sha256"] = digest(text)
        return trials


@dataclass(frozen=True)
class Pipeline:
    """The README quickstart per instance: PMI, CLI intersection, randomized, Kirchhoff, validate.

    Graphs and their edge-list files are built at set-up. An operation runs
    one instance per entry of ``parameters`` (edge probability or attachment
    count), so every timed sample has the same mix. ``paths`` lists path
    lengths run once per run, after the timed loop, as certificate cases
    with one end leader.
    """

    model: str
    n: int
    parameters: tuple
    leaders: int
    repetitions: int
    validate_trials: int = 25
    paths: tuple[int, ...] = ()
    pool: int = 16
    min_ops: int = 2

    @property
    def trials_per_op(self) -> int:
        return len(self.parameters)

    def _draw(self, seed: int, i: int, parameter, workdir: Path):
        rng = np.random.default_rng(netaug.trial_seed(seed, self.model, parameter, self.leaders, i))
        for _ in range(100):
            gen_seed = int(rng.integers(0, 2**63))
            if self.model == "erdos-renyi":
                spec = netaug.GenSpec(model=self.model, n=self.n, p=parameter, seed=gen_seed)
            else:
                spec = netaug.GenSpec(model=self.model, n=self.n, gamma=parameter, seed=gen_seed)
            g = netaug.generate(spec)
            if netaug.is_connected(g):
                break
        else:
            raise RuntimeError(f"no connected draw for instance {i}")
        leaders = tuple(int(x) for x in rng.choice(self.n, size=self.leaders, replace=False))
        return self._case(f"{i}-{parameter}", g, leaders, int(rng.integers(0, 2**63)), workdir)

    @staticmethod
    def _case(label, g, leaders, alg_seed, workdir: Path):
        path = workdir / f"graph-{label}.txt"
        path.write_text(netaug.write_edge_list(g), encoding="utf-8")
        return {"label": label, "graph": g, "leaders": leaders, "seed": alg_seed,
                "path": path, "workdir": workdir}

    def setup(self, seed: int, workdir: Path):
        """Draw the instance pool and write its edge lists; returns (cases, certificate cases)."""
        cases = [[self._draw(seed, i, par, workdir) for par in self.parameters] for i in range(self.pool)]
        paths = [
            [self._case(f"P{k}", netaug.Graph(k, [(i, i + 1) for i in range(k - 1)]), (0,), seed, workdir)]
            for k in self.paths
        ]
        return cases, paths

    def op(self, group):
        return [self._instance(case) for case in group]

    def _instance(self, case):
        g, leaders, workdir = case["graph"], case["leaders"], case["workdir"]
        pmi = netaug.pmi_greedy(g, leaders)
        pmi_path, out_path = workdir / "pmi.json", workdir / "intersection.json"
        pmi_path.write_text(json.dumps(pmi.to_json(), indent=2) + "\n", encoding="utf-8")
        code = netaug.cli.cli([
            "augment", "-g", str(case["path"]), "--leaders", *map(str, leaders),
            "--algorithm", "intersect", "--pmi", str(pmi_path), "-o", str(out_path),
        ])
        if code != 0:
            raise RuntimeError(f"netaug augment exited with {code}")
        inter = json.loads(out_path.read_text(encoding="utf-8"))
        rand = netaug.augment_randomized(g, leaders, pmi, seed=case["seed"], repetitions=self.repetitions)
        inter_edges = g.edges | _edges(inter["added_edges"])
        rand_graph = netaug.Graph(g.n, rand.edges_after)
        kirchhoff = (
            netaug.kirchhoff_index(g),
            netaug.kirchhoff_index(netaug.Graph(g.n, inter_edges)),
            netaug.kirchhoff_index(rand_graph),
        )
        report = netaug.validate_ssc_bound(rand_graph, leaders, len(pmi), trials=self.validate_trials)
        return case, pmi.to_json(), inter, inter_edges, rand, kirchhoff, report

    def certify(self, payloads) -> list:
        return []

    def check(self, payloads) -> list[Trial]:
        return [self._check(payload) for payload in payloads]

    @staticmethod
    def _check(payload) -> Trial:
        case, pmi_json, inter, inter_edges, rand, (before, after_i, after_r), report = payload
        g = case["graph"]
        inst = Instance(g.n, g.edges, case["leaders"], pmi_json)
        verdicts_i = inst.check(inter_edges, inter["upper_bound"], before, after_i)
        verdicts_r = inst.check(rand.edges_after, rand.upper_bound_addable, before, after_r)
        verdicts = {name: verdicts_i[name] and verdicts_r[name] for name in verdicts_i}
        verdicts["records"] = (
            inter["edges_before"] == g.num_edges()
            and inter["edges_after"] == len(inter_edges)
            and inter["upper_bound"] == rand.upper_bound_addable
            and inter["pmi_length"] == len(pmi_json)
            and rand.added == rand.edges_after - g.edges
        )
        return Trial(
            verdicts=verdicts,
            added_intersection=len(inter_edges) - g.num_edges(),
            added_randomized=len(rand.added),
            upper_bound=rand.upper_bound_addable,
            kirchhoff_drop=(before - after_r) / before,
            validations=[(report.passed, report.min_rank - report.claimed_bound)],
            outputs={
                "pmi": pmi_json,
                "intersection_added": sorted(_edges(inter["added_edges"])),
                "randomized_added": sorted(rand.added),
                "upper_bound": rand.upper_bound_addable,
            },
        )


WORKLOADS = {
    # The ensemble users run: ~95% of its time is the randomized scan.
    "ensemble_a7": Ensemble(),
    # One large augment -> validate run: intersection, bound, validation,
    # Kirchhoff and the CLI carry most of the time, the scan little.
    "pipeline_large": Pipeline(model="erdos-renyi", n=200, parameters=(10 / 199,), leaders=5,
                               repetitions=2),
    # Trees and near-trees: rejection-heavy scan (~1/3 of candidates kept on
    # trees against ~7/8 on ER) and long PMI sequences; the paths are the
    # long-path certificates the float rank validator fails today.
    "sparse_ba": Pipeline(model="barabasi-albert", n=100, parameters=(1, 2), leaders=8,
                          repetitions=1, paths=(30, 60), min_ops=1),
}


def warm_up_lapack():
    """One call each into the LAPACK routines the package uses (SVD, symmetric eigenvalues)."""
    matrix = np.arange(1.0, 17.0).reshape(4, 4)
    np.linalg.svd(matrix, compute_uv=False)
    np.linalg.eigvalsh(matrix + matrix.T)


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Op:
    seconds: float
    trials: list[Trial]
    timed: bool
    traced_seconds: float = 0.0
    error: str | None = None

    @property
    def failed(self) -> int:
        return sum(not all(t.verdicts.values()) for t in self.trials)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _run_op(workload, case, label, tracer, certify, timed, traced_first=False) -> Op:
    """Run, time and check one operation; in a traced run, run it again under the tracer."""
    traced_first = tracer is not None and traced_first
    try:
        if not traced_first:
            payload, seconds = _timed(workload.op, case)
        if tracer is None:
            reports = workload.certify(payload) if certify else []
            trials = workload.check(payload)
            return Op(seconds, _with_validations(trials, reports), timed)
        tracer.instance = label
        with installed(tracer):
            tracer.phase = "op" if timed else "check"
            traced_payload, traced_seconds = _timed(workload.op, case)
            tracer.phase = "check"
            reports = workload.certify(traced_payload) if certify else []
        if traced_first:
            # Alternate which copy runs first: a repeated run is a little
            # faster, and the overhead must not absorb that.
            payload, seconds = _timed(workload.op, case)
        trials = workload.check(payload)
        same = [t.outputs for t in workload.check(traced_payload)] == [t.outputs for t in trials]
        for t in trials:
            t.verdicts["repeatable"] = same
        return Op(seconds, _with_validations(trials, reports), timed, traced_seconds)
    except Exception:  # an operation that raises counts as failed; keep measuring
        return Op(0.0, _failed_trials(workload.trials_per_op), timed, error=traceback.format_exc())


def _with_validations(trials: list[Trial], reports) -> list[Trial]:
    trials[0].validations.extend((r.passed, r.min_rank - r.claimed_bound) for r in reports)
    return trials


def execute(workload, seed: int, seconds: float, trace: bool, workdir: Path, import_s: float = 0.0) -> dict:
    """One benchmark run: set-up passes, the timed loop, then the certificate cases."""
    tracer = Tracer() if trace else None
    setups = []
    for i in range(SETUP_PASSES):
        start = time.perf_counter()
        if tracer is not None and i == SETUP_PASSES - 1:
            tracer.instance = tracer.phase = "setup"
            with installed(tracer):
                cases, certificates = workload.setup(seed, workdir)
        else:
            cases, certificates = workload.setup(seed, workdir)
        warm_up_lapack()
        setups.append(import_s + time.perf_counter() - start)

    ops: list[Op] = []
    walls: list[float] = []
    loop_start = time.perf_counter()
    for index in itertools.count():
        elapsed = time.perf_counter() - loop_start
        if index >= workload.min_ops and elapsed + statistics.median(walls) > seconds:
            break
        op_start = time.perf_counter()
        case = cases[index % len(cases)]
        op = _run_op(workload, case, str(index), tracer, index < workload.min_ops,
                     timed=True, traced_first=index % 2 == 1)
        if index >= workload.min_ops:
            for trial in op.trials:
                trial.outputs = {}  # only the first operations feed the digest
        ops.append(op)
        walls.append(time.perf_counter() - op_start)
    loop_seconds = time.perf_counter() - loop_start
    for case in certificates:
        ops.append(_run_op(workload, case, case[0]["label"], tracer, False, timed=False))
    return summarize(workload, ops, setups, loop_seconds, tracer)


def summarize(workload, ops: list[Op], setups: list[float], loop_seconds: float, tracer) -> dict:
    timed = [op for op in ops if op.timed and op.error is None]
    trials = [t for op in ops for t in op.trials]
    timed_trials = [t for op in timed for t in op.trials]
    attempted = len(trials)
    failed = sum(op.failed for op in ops)
    per_trial = [op.seconds / len(op.trials) for op in timed if op.trials]
    validations = [v for t in trials for v in t.validations]
    reference = [t.outputs for op in ops[: workload.min_ops] for t in op.trials]
    reference += [t.outputs for op in ops if not op.timed for t in op.trials]

    def ratio(num, den):
        return num / den if den else 0.0

    q1, q2, q3 = _quartiles(per_trial) if per_trial else (0.0, 0.0, 0.0)
    s1, s2, s3 = _quartiles(setups)
    end_to_end = {
        "setup_s": (s2, "s", len(setups), s1, s3),
        "ensemble_trials_per_s": (
            ratio(sum(len(op.trials) for op in timed), sum(op.seconds for op in timed)), "1/s", len(timed_trials)),
        "instance_s_p50": (q2, "s", len(per_trial), q1, q3),
        "fill_ratio_randomized": (
            ratio(sum(t.added_randomized for t in timed_trials), sum(t.upper_bound for t in timed_trials)),
            "ratio", len(timed_trials)),
        "fill_ratio_intersection": (
            ratio(sum(t.added_intersection for t in timed_trials), sum(t.upper_bound for t in timed_trials)),
            "ratio", len(timed_trials)),
        "kirchhoff_drop": (
            ratio(sum(t.kirchhoff_drop for t in timed_trials), len(timed_trials)), "ratio", len(timed_trials)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "op_fail_ratio": ratio(failed, attempted),
        "certify_fail_ratio": ratio(sum(not passed for passed, _ in validations), len(validations)),
        "validations": len(validations),
        "verdicts": {
            name: [sum(t.verdicts[name] for t in trials), attempted]
            for name in (*VERDICTS, "repeatable") if tracer is not None or name != "repeatable"
        },
        "outputs_sha256": digest(reference),
        "loop_seconds": loop_seconds,
        "end_to_end": end_to_end,
        "errors": [op.error for op in ops if op.error],
    }
    if tracer is not None:
        op_trials = max(1, len(timed_trials))
        layers = layer_metrics(tracer, op_trials)
        overhead = sum(op.traced_seconds - op.seconds for op in timed) / op_trials
        layers["tracing_overhead_s"] = (overhead, "s")
        result["per_layer"] = layers
        result["trace"] = tracer.to_json()
    return result


def report_lines(result: dict, trace: bool) -> list[str]:
    """Human-readable summary: metrics with unit and sample count, then verdicts."""
    lines = []
    for name, (value, unit, samples, *quartiles) in result["end_to_end"].items():
        extra = f" p25={quartiles[0]:.6g} p75={quartiles[1]:.6g}" if quartiles else ""
        lines.append(f"metric {name} = {value:.6g} {unit} (samples={samples}{extra})")
    if trace:
        for name, (value, unit) in result["per_layer"].items():
            lines.append(f"layer {name} = {value:.6g} {unit}")
    for name, (passed, total) in result["verdicts"].items():
        lines.append(f"check {name}: {passed}/{total} {'PASS' if passed == total else 'FAIL'}")
    lines.append(f"op_fail_ratio = {result['op_fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    lines.append(f"certify_fail_ratio = {result['certify_fail_ratio']:.6g} (validations={result['validations']})")
    lines.append(f"outputs_sha256 = {result['outputs_sha256']}")
    lines.extend(f"error: {e.strip().splitlines()[-1]}" for e in result["errors"])
    return lines


def final_line(result: dict, trace: bool) -> str:
    """The last stdout line: end-to-end metrics, or per-layer metrics when tracing."""
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["per_layer"].items()}
    else:
        metrics = {name: {"value": v[0], "unit": v[1]} for name, v in result["end_to_end"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
