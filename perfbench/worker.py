"""One workload process: set up the inputs, run a warm-up pass and then
timed passes over the workload's fixed operation list, check the outputs,
and print the result as one JSON line.

Started by ``run.py``, which pins the environment (one BLAS thread, no
``COARSELAB_THREADS``) before this interpreter imports numpy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
MIN_PASSES = 3
# a slow host may stretch the timed passes past --seconds to reach
# MIN_PASSES, but not past this multiple of it, so a run's length stays bounded
MAX_STRETCH = 1.2
REFERENCE_LOOP = 1_000_000


class Context:
    def __init__(self, seed, small, workdir, tracer):
        import numpy as np

        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.small = small
        self.workdir = workdir
        self.tracer = tracer


def import_program():
    """Import coarselab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "coarselab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coarselab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coarselab

    if Path(coarselab.__file__).resolve().parent != SRC / "coarselab":
        raise SystemExit(f"error: imported coarselab from {coarselab.__file__}, not from {SRC}")
    return coarselab


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(ops, tracer, pass_dir, expected_failures):
    """Run every operation once; returns (wall seconds, results, failures)."""
    pass_dir.mkdir(parents=True)
    results, failures = {}, {}
    gc.collect()
    t0 = time.perf_counter()
    with tracer.span("pass"):
        for name, fn in ops:
            with tracer.span(f"op:{name}"):
                try:
                    results[name] = fn(tracer, pass_dir, results)
                except Exception as exc:  # an operation's fault is recorded, not fatal
                    failures[name] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    unexpected = sorted(set(failures) - expected_failures)
    return wall, results, failures, unexpected


def layer_metrics(tracer, roots, pass_walls):
    """Per-pass layer sums and counts, then the median over passes."""
    per_pass = []
    for root, wall in zip(roots, pass_walls):
        durations, counts = tracer.totals(root)
        row = {f"{name}_s": value for name, value in durations.items() if not name.startswith(("op:", "pass"))}
        for name, value in counts.items():
            row[name] = value
        exact = row.get("spectral.expansion_exact_s", 0.0)
        row["spectral.subsets_per_s"] = counts.get("spectral.subsets", 0) / exact if exact else 0.0
        lp_time = sum(row.get(f"amenability.{k}_s", 0.0)
                      for k in ("folner_exact", "folner_float", "diam_table", "growth"))
        row["amenability.lp_solves_per_s"] = counts.get("amenability.lp_solves", 0) / lp_time if lp_time else 0.0
        row["trace.pass_s"] = wall
        per_pass.append(row)
    names = sorted({k for row in per_pass for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in per_pass) for k in names}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import_program()
    from spans import NullTracer, Tracer

    wl = importlib.import_module(f"workloads.{args.workload}")
    tracer = Tracer() if args.trace else NullTracer()
    workdir = Path(args.workdir)
    ctx = Context(args.seed, args.small, workdir, tracer)
    with tracer.span("setup"):
        state = wl.setup(ctx)
    print(READY, flush=True)
    if args.setup_only:
        return 0

    ref_s = [reference_loop()]
    ops = wl.operations(state)
    expected = wl.EXPECTED_FAILURES
    attempted = failed = 0
    problems = []

    # warm-up pass: discarded from the timings; every timed pass must give
    # the same results, and the last one is checked
    warm_dir = workdir / "pass-0"
    _wall, results, failures, unexpected = run_pass(ops, tracer, warm_dir, expected)
    attempted += len(ops)
    failed += len(failures)
    problems += [f"{name} failed: {failures[name]}" for name in unexpected]
    reference = wl.fingerprint(results, warm_dir)
    first_failures = failures

    walls, roots = [], []
    elapsed = 0.0
    k = 0
    while True:
        if walls:
            next_end = elapsed + statistics.median(walls)
            if next_end > args.seconds and (k >= MIN_PASSES or next_end > MAX_STRETCH * args.seconds):
                break
        k += 1
        pass_dir = workdir / f"pass-{k}"
        ref_s.append(reference_loop())
        roots.append(len(tracer.spans) if tracer.enabled else None)
        wall, results, failures, unexpected = run_pass(ops, tracer, pass_dir, expected)
        walls.append(wall)
        elapsed += wall
        attempted += len(ops)
        failed += len(failures)
        problems += [f"pass {k}: {name} failed: {failures[name]}" for name in unexpected]
        if wl.fingerprint(results, pass_dir) != reference:
            problems.append(f"pass {k}: outputs differ from the warm-up pass")
        shutil.rmtree(workdir / f"pass-{k - 1}", ignore_errors=True)

    # read before the checks run, so that their arrays do not count
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if unexpected:
        problems.append(f"pass {k}: outputs not checked, since operations failed")
    else:
        problems += wl.check(state, results, pass_dir)
    out = {
        "walls": walls,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": first_failures,
        "problems": problems,
        "reference_loop_s": statistics.median(ref_s),
        "env": environment(),
    }
    if tracer.enabled:
        out["layers"] = layer_metrics(tracer, roots, walls)
        trace_path = workdir / "trace.json"
        trace_path.write_text(json.dumps(tracer.dump()))
        out["trace_file"] = str(trace_path.relative_to(ROOT)) if trace_path.is_relative_to(ROOT) else str(trace_path)
    print(RESULT + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
