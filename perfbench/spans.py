"""Opt-in spans around every public netaug function, recorded from outside the package.

``installed(tracer)`` replaces each public function in each netaug module
namespace (``netaug``, ``netaug.graphs``, ``netaug.controllability``,
``netaug.augmentation``, ``netaug.experiments``, ``netaug.cli``) with a
wrapper. A wrapper sits under the name its caller module looks it up by, so
``netaug.experiments.augment_randomized`` and
``netaug.augmentation.addable_edge_upper_bound`` are both recorded even
though the calls happen inside the package. Spans stay in memory; the run
writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import FunctionType

MODULES = (
    "netaug",
    "netaug.graphs",
    "netaug.controllability",
    "netaug.augmentation",
    "netaug.experiments",
    "netaug.cli",
)

# canonical_edge runs once per edge (millions of calls inside intersection);
# a span per call would cost far more than the work it measures.
UNTRACED = frozenset({"canonical_edge"})


def _randomized_probe(bound, result):
    g, leaders, pmi = bound["g"], bound["leaders"], bound["pmi"]
    complement = g.n * (g.n - 1) // 2 - g.num_edges()
    return {
        "repetitions": result.repetitions,
        "complement": complement,
        "accepted": len(result.added),
        "pairs": sum(1 for ell in leaders for v in pmi.nodes() if ell != v),
    }


def _validate_probe(bound, result):
    return {"margin": result.min_rank - result.claimed_bound, "passed": result.passed}


def _pmi_probe(bound, result):
    return {"length": len(result)}


# Span name -> function of (bound arguments, result) giving numbers to keep.
PROBES = {
    "augmentation.augment_randomized": _randomized_probe,
    "controllability.validate_ssc_bound": _validate_probe,
    "controllability.pmi_greedy": _pmi_probe,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter store; ``instance`` and ``phase`` tag every new span."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.calls: Counter[str] = Counter()
        self.instance = ""
        self.phase = "setup"
        self._stack: list[int] = []

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            self.calls[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.instance, self.phase)
            if probe is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.spans[index].attrs = probe(bound, result)
            return result

        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def to_json(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "spans": [
                [s.name, s.start, s.end, s.parent, s.instance, s.phase, s.attrs]
                for s in self.spans
            ],
        }


@contextmanager
def installed(tracer: Tracer):
    """Wrap every public netaug function in every module namespace; undo on exit."""
    saved = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for attr, obj in list(vars(module).items()):
            if (
                isinstance(obj, FunctionType)
                and obj.__module__.startswith("netaug.")
                and not attr.startswith("_")
                and obj.__name__ not in UNTRACED
            ):
                saved.append((module, attr, obj))
                setattr(module, attr, tracer.wrap(obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in reversed(saved):
            setattr(module, attr, obj)


def layer_metrics(tracer: Tracer, op_trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans: ``name -> (value, unit)``.

    Times per call average every traced call (set-up pass, measured
    operations and the benchmark's own checks). Counts and ratios cover the
    measured operations; counts and the layer self times are per trial.
    """
    spans = tracer.spans
    own = tracer.self_seconds()

    def named(name, phase=None):
        return [
            (s, own[i])
            for i, s in enumerate(spans)
            if s.name == name and (phase is None or s.phase == phase)
        ]

    def mean_seconds(name, use_self=False):
        hits = named(name)
        if not hits:
            return 0.0
        return sum(o if use_self else s.seconds for s, o in hits) / len(hits)

    def per_trial(total):
        return total / op_trials

    def layer_self(layer):
        return per_trial(sum(o for s, o in zip(spans, own) if s.name.startswith(layer + ".")))

    rand = named("augmentation.augment_randomized")
    reps = sum(s.attrs["repetitions"] for s, _ in rand)
    rand_op = named("augmentation.augment_randomized", "op")
    validations = named("controllability.validate_ssc_bound")
    pmis = named("controllability.pmi_greedy")
    return {
        "augmentation.randomized_s_per_rep": (sum(o for _, o in rand) / reps if reps else 0.0, "s"),
        "augmentation.intersection_s": (mean_seconds("augmentation.augment_intersection", use_self=True), "s"),
        "augmentation.upper_bound_s": (mean_seconds("augmentation.addable_edge_upper_bound"), "s"),
        "augmentation.upper_bound_calls": (per_trial(len(named("augmentation.addable_edge_upper_bound", "op"))), "count"),
        "augmentation.candidates_scanned": (
            per_trial(sum(s.attrs["repetitions"] * s.attrs["complement"] for s, _ in rand_op)), "count"),
        "augmentation.accept_ratio": (
            sum(s.attrs["accepted"] for s, _ in rand_op) / max(1, sum(s.attrs["complement"] for s, _ in rand_op)),
            "ratio"),
        "augmentation.monitored_pairs": (
            sum(s.attrs["pairs"] for s, _ in rand_op) / len(rand_op) if rand_op else 0.0, "count"),
        "controllability.validate_s": (mean_seconds("controllability.validate_ssc_bound"), "s"),
        "controllability.rank_margin_min": (min((s.attrs["margin"] for s, _ in validations), default=0), "count"),
        "controllability.certify_fail_ratio": (
            sum(not s.attrs["passed"] for s, _ in validations) / len(validations) if validations else 0.0, "ratio"),
        "controllability.kirchhoff_s": (mean_seconds("controllability.kirchhoff_index"), "s"),
        "controllability.pmi_greedy_s": (mean_seconds("controllability.pmi_greedy"), "s"),
        "controllability.pmi_length": (sum(s.attrs["length"] for s, _ in pmis) / len(pmis) if pmis else 0.0, "count"),
        "graphs.generate_s": (mean_seconds("graphs.generate"), "s"),
        "graphs.bfs_calls": (per_trial(len(named("graphs.bfs_distances", "op"))), "count"),
        "graphs.complement_calls": (per_trial(len(named("graphs.complement_edges", "op"))), "count"),
        "graphs.complement_s": (mean_seconds("graphs.complement_edges"), "s"),
        "experiments.self_s": (layer_self("experiments"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
    }
