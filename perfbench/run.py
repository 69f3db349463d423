"""Training benchmark for dlrmkit: three workloads, end-to-end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload desk-serial --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` measures the per-layer metrics from spans recorded around the
program's layer functions. ``--workload all`` runs every workload, untraced
and traced, each in a fresh process, and prints a table. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (steps) and ``metrics``. The exit code is 0 when every check
passed, 1 when one failed and 2 when ``src/dlrmkit`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# BLAS and OpenMP use one thread: at the default two threads on a shared
# 2-vCPU machine, single desk steps took up to 1.8 times the median.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("desk-serial", "desk-4dev", "synth-train")
ROOT = Path(__file__).resolve().parent.parent


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload untraced and traced, each run in a fresh process."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}, "
                      "no result")
                status = 1
                continue
            out = json.loads(lines[-1])
            status = max(status, proc.returncode)
            summary[f"{name}/trace{trace}"] = out
            print(f"== {name} trace={trace}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}")
            for metric, m in out["metrics"].items():
                print(f"  {metric:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse(argv)
    os.environ.update(THREAD_ENV)
    src = ROOT / "src"
    if not (src / "dlrmkit" / "__init__.py").is_file():
        print(f"error: no dlrmkit sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import dlrmkit
    import numpy

    import bench

    result = bench.run(bench.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace))
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result.rounds)} rounds, {result.attempted} steps attempted, "
          f"{result.failed} failed")
    print(f"dlrmkit {dlrmkit.__version__}, numpy {numpy.__version__}, "
          f"{threads}, {os.cpu_count()} CPUs")
    for msg in result.failures:
        print(f"CHECK FAILED: {msg}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps(bench.result_json(result)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
