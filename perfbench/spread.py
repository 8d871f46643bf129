"""Run-to-run spread of the end-to-end metrics.

From the repository root::

    python3 perfbench/spread.py --workload federation-outage --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median over the runs and the interquartile
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from ``BENCHMARK.json``.  A spread at or above
the bound is marked ``OVER`` (``setup_s`` is exempt: only its median is
gated); the exit status is 1 when any is.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from arith import median, quartile_spread  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
            f"{completed.stdout[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run-to-run spread of end-to-end metrics")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,5,9'")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    over = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        print(f"== {workload}: {len(runs)} runs")
        for entry in spec["end_to_end"]:
            values = [run[entry["name"]] for run in runs]
            spread = quartile_spread(values)
            flag = ""
            if entry["name"] != "setup_s" and spread >= entry["bound"]:
                flag = "OVER"
                over = True
            print(f"   {entry['name']:<14} median {median(values):>12.6g} {entry['unit']:<5} "
                  f"spread {spread:6.3f}  bound {entry['bound']:.3f}  "
                  f"spread/bound {spread / entry['bound']:5.2f} {flag}", flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
