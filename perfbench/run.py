"""coarselab benchmark: one workload per invocation, measured in fresh
processes, printed as one JSON line.

    python3 perfbench/run.py --workload obstruction --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

With ``--trace 0`` the result carries the end-to-end metrics (setup_s,
wall_s, peak_rss_mb); with ``--trace 1`` the per-layer metrics of a traced
run.  ``--selfcheck`` runs every workload's correctness checks at reduced
size.  Diagnostic lines start with ``#``; the last line is the result.
See perfbench/README.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from workloads import NAMES  # noqa: E402

DEADLINE_S = 170.0    # the whole invocation, including every child process
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COARSELAB_THREADS"}
    env.update(PIN)
    return env


class Child:
    """A worker process whose set-up time is measured from its spawn."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        self.setup_s = None
        self.result = None

    def finish(self):
        """Read the worker's protocol lines until it exits; kill it at the deadline."""
        try:
            for line in self._lines():
                if line == "PERFBENCH-READY":
                    self.setup_s = time.perf_counter() - self.t0
                elif line.startswith("PERFBENCH-RESULT "):
                    self.result = json.loads(line[len("PERFBENCH-RESULT "):])
            self.proc.wait(timeout=max(1.0, self.deadline - time.time()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
        return self.proc.returncode

    def _lines(self):
        # the worker prints two short protocol lines; a timer kills it if it
        # overruns the deadline
        timer = threading.Timer(max(0.0, self.deadline - time.time()), self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                yield line.rstrip("\n")
        finally:
            timer.cancel()


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def listed_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def measure(workload, seed, seconds, trace) -> int:
    deadline = time.time() + DEADLINE_S
    workdir = OUT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    common = ["--workload", workload, "--seed", seed]

    def probe(i):
        """Set-up time of a set-up-only process, or None if it failed."""
        child = Child(common + ["--setup-only", "--workdir", workdir / f"probe-{i}"], deadline)
        return child.setup_s if child.finish() == 0 else None

    # one set-up probe before the measuring process and one after it, so the
    # three set-up samples span the run's window of host speed
    setups = [probe(0)]
    main = Child(common + ["--seconds", seconds, "--trace", trace, "--workdir", workdir / "run"], deadline)
    code = main.finish()
    if code != 0 or main.setup_s is None or main.result is None:
        return fail(f"{workload} worker exited with {code} without a result")
    setups += [main.setup_s, probe(1)]
    if None in setups:
        return fail(f"a set-up probe of {workload} failed")
    res = main.result
    walls = res["walls"]
    end_to_end, per_layer = listed_metrics()
    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    print(f"# reference_loop_s {res['reference_loop_s']:.4f} (median before each pass; host-speed diagnostic, not a metric)")
    print(f"# setup_samples_s {[round(s, 4) for s in setups]}")
    print(f"# pass_walls_s {[round(w, 4) for w in walls]}")
    if res["failures"]:
        print(f"# failing operations (per pass) {json.dumps(res['failures'], sort_keys=True)}")
    for problem in res["problems"]:
        print(f"# CHECK FAILED {problem}")
    if trace:
        layers = res["layers"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in per_layer.items()}
        print(f"# trace file {res['trace_file']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def selfcheck() -> int:
    """Every workload's checks at reduced size, one timed pass each."""
    deadline = time.time() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _end_to_end, per_layer = listed_metrics()
    ok = [w["name"] for w in bench["workloads"]] == list(NAMES)
    if not ok:
        print("selfcheck: BENCHMARK.json and perfbench/workloads list different workloads")
    for workload in NAMES:
        workdir = OUT / "selfcheck" / workload
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        # --seconds 0: the warm-up pass and then a single timed pass
        child = Child(["--workload", workload, "--seed", 0, "--small", "--seconds", 0, "--trace", 1,
                       "--workdir", workdir], deadline)
        code = child.finish()
        res = child.result
        good = code == 0 and res is not None and not res["problems"]
        unlisted = sorted(set(res["layers"]) - set(per_layer)) if good else []
        if res is None:
            detail = "worker failed"
        elif not good:
            detail = "; ".join(res["problems"])
        elif unlisted:
            detail = f"layer metrics missing from BENCHMARK.json: {unlisted}"
            good = False
        else:
            detail = f"{res['attempted']} operations, {res['failed']} failed as expected"
        ok &= good
        print(f"selfcheck {workload}: {'ok' if good else 'FAILED'} ({time.perf_counter() - t0:.1f} s, {detail})")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coarselab" / "__init__.py").is_file():
        return fail(f"no coarselab sources under {ROOT / 'src'}")
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
