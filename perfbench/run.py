#!/usr/bin/env python3
"""Run one netaug benchmark workload and print its figures.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline_large --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Human-readable lines (environment, metrics with unit and sample count,
check verdicts, output digest) come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones. The full
result, spans included when tracing, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

#: An import cannot be repeated in one process, so set-up times it this many
#: times in fresh interpreters and takes the median.
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import netaug; print(time.perf_counter() - start)"
)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Median time to import netaug (numpy included) in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        probe = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(SOURCE)],
                               capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def environment(numpy, threads: int, seed: int, seconds: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": cpu_count(),
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": threads,
        "workload_seed": seed,
        "run_seconds": seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble_a7", "pipeline_large", "sparse_ba"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Pin BLAS (and anything else OpenMP-based) to the cores this process may
    # use, before numpy loads; the workload itself is single-threaded Python.
    threads = cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    # Compile from source every run: the checkout stays clean and import
    # cost does not depend on which run came first.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SOURCE))

    try:
        import netaug
    except ImportError as exc:
        print(f"error: cannot import netaug from {SOURCE}: {exc}", file=sys.stderr)
        return 2
    if not Path(netaug.__file__).resolve().is_relative_to(SOURCE):
        print(f"error: netaug was imported from {netaug.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    import numpy

    import bench

    import_s = import_seconds()

    env = environment(numpy, threads, args.seed, args.seconds)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.execute(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["environment"] = env
    result["workload"] = args.workload
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result) + "\n", encoding="utf-8")
    for line in bench.report_lines(result, bool(args.trace)):
        print(line)
    print(f"result written to {record.relative_to(ROOT)}")
    print(bench.final_line(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
