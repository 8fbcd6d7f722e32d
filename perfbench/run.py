"""Benchmark entry point.

    python3 perfbench/run.py --workload fp-brooks --seed 1 --seconds 50 --trace 0

Runs one workload (or `--workload all`: each workload in turn) in fresh,
single-threaded processes, one after another.  Setup is measured in several
processes of its own and in every round of the measured process, which runs
the measured rounds and checks their outputs; setup_s is the mean.  The
last line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
Exits non-zero without a result when the program's source is missing or a
check cannot run.
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
BENCH = HERE / "bench.py"

# Processes that set up per run, the measured process included.  The extra
# ones run half before and half after the measured process, so they sample
# the machine's speed across the run.  On relxy-generic one setup costs
# seconds, so only the measured process sets up, once per round.
SETUPS = {"fp-brooks": 7, "relx-half-sign": 7, "relxy-generic": 1}
DEADLINE_S = 170


def child(args: list[str], deadline: float) -> dict:
    """Run bench.py in a fresh process; return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    extra = 0 if trace else SETUPS[name] - 1
    setups = []

    def setup_samples(count: int) -> None:
        for _ in range(count):
            setups.extend(child(base + ["--setup-only"], deadline)["setup_s"])

    setup_samples(extra // 2)
    res = child(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.extend(res["setup_s"])
    setup_samples(extra - extra // 2)
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.fmean(setups), "unit": "s"}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qcext" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        return 2

    names = sorted(SETUPS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    if args.workload == "all":
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
