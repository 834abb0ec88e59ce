"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {deep,cli,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; schemewalk is imported from ./src,
so nothing needs installing.  Each workload runs in a fresh interpreter with
one BLAS thread (see README.md).  With --trace 0 the last line of standard
output is the end-to-end result; with --trace 1 it holds the per-layer
metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("deep", "cli", "verify")
BLAS_THREADS = 1  # one client in one process; never above the core count
SETUP_SAMPLES = 5  # fresh interpreters timed to ready; the median is setup_s
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: argparse.Namespace, mode: str, extra: tuple[str, ...] = ()) -> dict:
    """Start worker.py in a fresh interpreter; returns its result and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def import_ms() -> float:
    """Median fresh `import schemewalk.cli` minus median bare `import numpy`, in ms."""
    def sample(module: str) -> float:
        code = ("import time; t = time.perf_counter(); import " + module +
                "; print(time.perf_counter() - t)")
        times = []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True, timeout=60, check=True)
            times.append(float(proc.stdout))
        return statistics.median(times)

    return 1e3 * (sample("schemewalk.cli") - sample("numpy"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "schemewalk" / "__init__.py").is_file():
        print(f"error: no schemewalk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        out = OUT / f"trace-{args.workload}-{args.seed}.tsv"
        result = run_worker(args, "trace", ("--trace-out", str(out)))
        metrics = result["metrics"]
        metrics["cli.import_ms"] = import_ms()
        print(f"spans written to {out.relative_to(ROOT)} ({result['wrapped']} functions wrapped)")
    else:
        setups = [run_worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, "run")
        setups.append(result["setup_s"])
        metrics = {name: result[name] for name in ("solves_per_s", "solve_p50_ms", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name in units:
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
