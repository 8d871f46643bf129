"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload serve-degraded --seed 1 --seconds 40 --trace 0

``--trace 0`` times the measured call untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics (writing the spans to ``perfbench/out/``).  Metric names,
units and the default ``--seconds`` come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 when every output check passed, 1 when one
failed, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from arith import FAMILIES, median, self_time_by_name

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("serve-steady", "serve-degraded", "federation-outage", "solve-exact")

#: Input builds per run; ``setup_s`` reports their median plus imports.
SETUP_REPEATS = 5
#: Upper bound on measured calls per run.
MAX_CALLS = 500

#: Per-layer times that do not contain one another; the largest names the
#: dominant layer of a traced run.
LEAF_LAYERS = (
    "sim.dispatch_self_s", "engine.admission_s", "engine.routing_s", "engine.transfer_s",
    "engine.server_s", "engine.control_s", "engine.retry_s", "serving.deploy_s",
    "report.build_s", "federation.plan_s", "federation.merge_s",
    "placement.tensor_build_s", "placement.bnb_s", "placement.leaf_s",
)

#: Simulated outcomes reported as ``outcome.<name>`` per-layer metrics.
OUTCOME_LAYER = ("sim_p50_s", "sim_p99_s", "sim_samples", "goodput_rps",
                 "failed_share", "sharing_memory_saving", "placement_objective_s")

#: Outcome counts a workload may not report; they read 0 there.
COUNT_LAYER = (
    "serving.admitted", "serving.retries", "serving.timed_out", "serving.migrations",
    "serving.scaling_events", "serving.brownout_changes", "serving.useful_ratio",
    "federation.forwarded", "placement.bnb_nodes", "placement.bnb_leaves",
    "placement.bnb_pruned", "placement.bnb_prune_ratio",
)

perf = time.perf_counter


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(budget_s: float, once: Callable[[], float]) -> int:
    """Call ``once`` (which returns its own duration) at least once, and
    again while one more call of the last call's length fits in the budget.
    Returns the number of calls."""
    start = perf()
    calls = 0
    while True:
        last = once()
        calls += 1
        if perf() - start + last > budget_s or calls >= MAX_CALLS:
            return calls


class Run:
    """Measured calls of one workload, their checks and their digests."""

    def __init__(self, workload: Any, inputs: Any) -> None:
        self.workload = workload
        self.inputs = inputs
        self.walls: List[float] = []
        self.failures: List[List[str]] = []
        self.reference: Optional[str] = None
        self.first: Any = None

    def record(self, result: Any, wall: float, label: str) -> None:
        failures = self.workload.check(result, self.inputs)
        digest = self.workload.digest(result)
        if self.reference is None:
            self.reference = digest
            self.first = result
        elif digest != self.reference:
            failures.append(f"{label} call {len(self.walls)}: simulated outputs differ "
                            "from the first call of this seed")
        self.walls.append(wall)
        self.failures.append(failures)

    def untraced(self) -> float:
        start = perf()
        result = self.workload.measure(self.inputs)
        wall = perf() - start
        self.record(result, wall, "untraced")
        return wall


def traced_metrics(run: Run, budget_s: float, label: str) -> Dict[str, float]:
    """Pairs of one untraced and one traced call until the budget runs
    out.  Per-layer metrics are medians over the traced calls; the tracing
    overhead is the difference of the two sides' median walls.  Writes the
    spans of the last traced call to ``perfbench/out/``."""
    from tracing import Tracer, installed

    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    per_call: List[Dict[str, float]] = []
    last: List[Tracer] = []

    def once() -> float:
        untraced_walls.append(run.untraced())
        tracer = Tracer()
        with installed(tracer):
            start = perf()
            with tracer.span("measured"):
                result = run.workload.measure(run.inputs, tracer.span)
            wall = perf() - start
        run.record(result, wall, "traced")
        traced_walls.append(wall)
        per_call.append(layer_metrics(run, tracer, result))
        last[:] = [tracer]
        return untraced_walls[-1] + wall

    repeat(budget_s, once)
    metrics = {name: median([call[name] for call in per_call]) for name in per_call[0]}
    metrics["trace.wall_s"] = median(traced_walls)
    metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    tracer = last[0]
    origin = min(start for _i, _p, _n, start, _e in tracer.spans)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{label}.json"
    with open(path, "w") as handle:
        json.dump({
            "env": fingerprint(),
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start_s": start - origin, "end_s": end - origin}
                for sid, parent, name, start, end in tracer.spans
            ],
            "self_s": self_time_by_name(tracer.spans),
            "handler_family_s": tracer.family_s,
            "handler_family_calls": tracer.family_calls,
            "aggregates": tracer.totals,
            "metrics": metrics,
        }, handle, indent=1)
    print(f"spans written to {path.relative_to(ROOT)}")
    dominant = max(LEAF_LAYERS, key=lambda name: metrics[name])
    print(f"dominant layer: {dominant} = {metrics[dominant]:.3f} s, "
          f"{metrics[dominant] / metrics['trace.wall_s']:.0%} of the traced call")
    return metrics


def layer_metrics(run: Run, tracer: Any, result: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced call."""
    inputs = run.inputs
    handler_s = sum(tracer.family_s.values())
    leaf_calls, leaf_s = tracer.total("placement.leaf")
    replica_s = tracer.span_total("placement.replica")
    m: Dict[str, float] = {
        "workload.generate_s": inputs.generate_s,
        "sim.events": tracer.events,
        "sim.heap_pushes": tracer.heap_pushes,
        "sim.ready_pushes": tracer.ready_pushes,
        "sim.events_per_arrival": tracer.events / inputs.items,
        "sim.heap_peak": tracer.heap_peak,
        "sim.dispatch_self_s": tracer.loop_s - handler_s,
    }
    for family in FAMILIES:
        m[f"engine.{family}_s"] = tracer.family_s[family]
        m[f"engine.{family}_calls"] = tracer.family_calls[family]
    m.update({
        "serving.deploy_s": tracer.span_total("serving.deploy"),
        "report.build_s": tracer.span_total("report.build"),
        "federation.plan_s": tracer.span_total("federation.plan"),
        "federation.cluster_run_s": tracer.span_total("serving.run", "federation.run"),
        "federation.merge_s": tracer.span_total("federation.merge"),
        "placement.tensor_build_s": tracer.span_total("placement.tensor_build"),
        "placement.bnb_s": tracer.span_total("placement.bnb"),
        "placement.replica_s": replica_s,
        "placement.leaf_pricings": leaf_calls,
        "placement.leaf_s": leaf_s,
        "placement.leaf_share": leaf_s / replica_s if replica_s else 0.0,
    })
    m.update(dict.fromkeys(COUNT_LAYER, 0.0))
    m.update(run.workload.counts(result))
    return m


def outcomes_of(run: Run) -> Dict[str, float]:
    """Simulated outcomes of the run's first call (every call of a seed
    must match it, which the digest check enforces)."""
    failed_checks = sum(1 for f in run.failures if f)
    return run.workload.outcomes(run.first, run.inputs, failed_checks)


def print_outcomes(outcomes: Dict[str, float]) -> None:
    """The simulated outcomes, each percentile with its sample count."""
    n = int(outcomes["sim_samples"])
    print("  simulated outcomes (exact per seed):")
    if n:
        print(f"    sim_p50_s                {outcomes['sim_p50_s']:.9g} sim_s  (p50, n={n})")
        print(f"    sim_p99_s                {outcomes['sim_p99_s']:.9g} sim_s  "
              f"(p{outcomes['sim_tail_percentile']:g}, n={n}, "
              f"{int(outcomes['sim_tail_beyond'])} beyond)")
    for name, unit in (("goodput_rps", "req/sim_s"), ("failed_share", "ratio"),
                       ("sharing_memory_saving", "ratio"), ("placement_objective_s", "sim_s")):
        print(f"    {name:<24} {outcomes[name]:.9g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    # One process, one thread: keep numpy's BLAS pools out of the timings.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    start = perf()
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf() - start

    workload = WORKLOADS[args.workload]
    builds = []
    generates = []
    for _ in range(SETUP_REPEATS):
        start = perf()
        inputs = workload.build(args.seed)
        builds.append(perf() - start)
        generates.append(inputs.generate_s)
    setup_s = import_s + median(builds)
    inputs.generate_s = median(generates)

    run = Run(workload, inputs)
    label = f"{args.workload}-seed{args.seed}"
    env = fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"items={inputs.items} env={json.dumps(env, sort_keys=True)}")

    if args.trace:
        metrics = traced_metrics(run, seconds, label)
        outcomes = outcomes_of(run)
        metrics.update({f"outcome.{name}": float(outcomes[name]) for name in OUTCOME_LAYER})
        declared = spec["per_layer"]
    else:
        repeat(seconds, run.untraced)
        wall = median(run.walls)
        metrics = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
        outcomes = outcomes_of(run)
        declared = spec["end_to_end"]

    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")

    failed = sum(1 for f in run.failures if f)
    for index, failures in enumerate(run.failures):
        for failure in failures:
            print(f"CHECK FAILED (call {index}): {failure}")
    walls = run.walls
    print(f"calls={len(walls)} wall median={median(walls):.6f}s "
          f"min={min(walls):.6f}s max={max(walls):.6f}s "
          f"items/s={inputs.items / median(walls):.6g}")
    for entry in declared:
        print(f"  {entry['name']:<32} {metrics[entry['name']]:>16.6f} {entry['unit']:<10} "
              f"({entry['better']} is better)")
    print_outcomes(outcomes)
    record = {"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "calls": len(walls), "walls_s": walls, "metrics": metrics,
              "outcomes": outcomes, "setup_builds_s": builds, "import_s": import_s}
    print("record " + json.dumps(record, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
