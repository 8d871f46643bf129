"""Golden serving cases: the frozen oracle for the serving engine.

Each case names one seeded serving run; ``serving_digests.json`` next to
this file holds the :meth:`~repro.serving.report.ServingReport.digest` of
its report.  The digests were frozen while the flat event-loop engine and
an independent generator-process engine still agreed on every case, so a
digest match means the same event order and the same floats as that
retired oracle.

Regenerate (every case, then rewrite the JSON) with::

    python tests/golden/serving_cases.py

A regeneration changes what "correct" means: record in CHANGES.md which
digests changed and why.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serving import (  # noqa: E402
    BrownoutPolicy,
    RetryPolicy,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    fault_scenario,
    generate_churn,
)

GOLDEN_PATH = Path(__file__).with_name("serving_digests.json")

#: The two-model mix of the serving suites (``tests/conftest.py``).
MODELS = ("clip-vit-b16", "encoder-vqa-small")


def serve(*, models=MODELS, kind="poisson", rate=0.4, duration=30.0, seed=0,
          churn_rate=0.0, faults=None, runtime_kwargs=None):
    """One seeded run: a generated trace, optional churn and a named fault
    scenario (both seeded by ``seed``), served by a fresh runtime."""
    trace = WorkloadGenerator(
        list(models), kind=kind, rate_rps=rate, duration_s=duration, seed=seed
    ).generate()
    runtime = ServingRuntime(list(models), **(runtime_kwargs or {}))
    churn = ()
    if churn_rate:
        churn = generate_churn(
            runtime.device_names, requester=runtime.requester,
            rate_per_s=churn_rate, duration_s=duration, seed=seed,
        )
    plan = fault_scenario(faults, duration_s=duration, seed=seed) if faults else None
    return runtime.run(trace, churn_events=churn, faults=plan)


_RETRY = RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05)

#: The workload x churn x autoscale x batching x fault grid.
EQUIVALENCE_CONFIGS: Dict[str, dict] = {
    "poisson-plain": dict(kind="poisson"),
    "bursty-batch-window": dict(kind="bursty", runtime_kwargs=dict(batch_window_s=0.05)),
    "diurnal-no-admission": dict(
        kind="diurnal", runtime_kwargs=dict(slo=SLOPolicy(admission=False))),
    "poisson-churn": dict(kind="poisson", churn_rate=0.08, seed=4),
    "bursty-churn-window": dict(
        kind="bursty", churn_rate=0.06, seed=2, runtime_kwargs=dict(batch_window_s=0.1)),
    "poisson-autoscale": dict(
        kind="poisson", rate=1.5, seed=5, runtime_kwargs=dict(autoscale=True, replicate=False)),
    "bursty-autoscale-churn": dict(
        kind="bursty", rate=0.8, churn_rate=0.05, seed=7,
        runtime_kwargs=dict(autoscale=True, replicate=False)),
    "diurnal-churn-no-energy": dict(
        kind="diurnal", churn_rate=0.05, seed=9, runtime_kwargs=dict(track_energy=False)),
    "poisson-single-copy": dict(kind="poisson", runtime_kwargs=dict(replicate=False), seed=11),
    "bursty-no-batching": dict(kind="bursty", runtime_kwargs=dict(max_batch_size=1), seed=13),
    # Congestion-aware deployment: the queue-aware planner closure runs
    # inside the deploy path.
    "bursty-congestion-aware": dict(
        kind="bursty", rate=1.2, seed=17,
        runtime_kwargs=dict(congestion_aware=True, replicate=False)),
    "poisson-congestion-aware-no-admission": dict(
        kind="poisson", rate=0.8, seed=19,
        runtime_kwargs=dict(congestion_aware=True, slo=SLOPolicy(admission=False))),
    # Fault scenarios: correlated regional crash/recovery, straggler
    # windows, and link degradation/partition, with and without the
    # degradation machinery (timeouts, retry budgets, brownout).
    "bursty-regional-outage": dict(
        kind="bursty", rate=0.6, seed=7, faults="regional-outage",
        runtime_kwargs=dict(slo=SLOPolicy(admission=False))),
    "poisson-stragglers-retry": dict(
        kind="poisson", rate=0.8, seed=3, faults="flash-crowd-stragglers",
        runtime_kwargs=dict(retry=_RETRY)),
    "bursty-flaky-links-graceful": dict(
        kind="bursty", rate=0.6, seed=7, faults="flaky-links",
        runtime_kwargs=dict(
            slo=SLOPolicy(admission=False), retry=_RETRY,
            brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.5, low_backlog_s=0.5))),
    "poisson-outage-autoscale-retry": dict(
        kind="poisson", rate=1.2, seed=11, faults="regional-outage",
        runtime_kwargs=dict(
            autoscale=True, replicate=False, retry=RetryPolicy(timeout_s=8.0, max_retries=5))),
    "bursty-stragglers-churn-brownout": dict(
        kind="bursty", rate=0.8, seed=2, churn_rate=0.05, faults="flash-crowd-stragglers",
        runtime_kwargs=dict(
            brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.0, low_backlog_s=0.25))),
    # A run that exercises scale-up (with load cost), scale-down and a
    # churn-driven migration.
    "scale-up-down": dict(
        kind="poisson", rate=1.5, duration=60.0, seed=6,
        runtime_kwargs=dict(autoscale=True, replicate=False, scale_down_idle_rounds=2)),
    **{
        f"seed-{seed}-poisson-churn": dict(
            kind="poisson", rate=0.6, duration=25.0, seed=seed, churn_rate=0.1)
        for seed in (0, 1, 2)
    },
}

FAULT_GRID_SCENARIOS = ("regional-outage", "flash-crowd-stragglers", "flaky-links")


def fault_grid_config(scenario: str, autoscale: bool) -> dict:
    """One cell of the fault-type x autoscale conservation grid."""
    runtime_kwargs = dict(
        slo=SLOPolicy(admission=False),
        retry=RetryPolicy(timeout_s=4.0, max_retries=2, backoff_s=0.05),
        brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.0, low_backlog_s=0.25),
    )
    if autoscale:
        runtime_kwargs.update(autoscale=True, replicate=False)
    return dict(kind="bursty", rate=0.8, duration=20.0, seed=9, faults=scenario,
                runtime_kwargs=runtime_kwargs)


def fault_case(scenario: str, autoscale: bool) -> str:
    return f"fault-grid/{scenario}-autoscale-{'on' if autoscale else 'off'}"


#: The overloaded 8k-arrival Poisson trace of the serving benchmark.
OVERLOAD_8K = dict(
    models=("clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16"),
    kind="poisson", rate=20.0, duration=400.0, seed=0,
)

#: The energy-ledger run of ``tests/test_energy.py``.
ENERGY_SPAN = dict(kind="poisson", rate=0.5, duration=12.0, seed=3,
                   runtime_kwargs=dict(slo=SLOPolicy(admission=False)))


def sweep_case(label: str, duration_s: float) -> str:
    """The golden case name of one ``scripts/run_benchmarks.py`` serving
    sweep row."""
    return f"bench-sweep/{label}-{duration_s:g}s"


def resilience_graceful_outage():
    """The regional-outage, degradation-on row of the resilience study."""
    from repro.experiments.resilience import run_resilience_study

    return run_resilience_study(scenarios=["regional-outage"])[1][2]


def all_cases() -> Dict[str, Callable]:
    """Every golden case name -> a callable returning its report."""
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    import run_benchmarks

    cases: Dict[str, Callable] = {}
    for name, config in EQUIVALENCE_CONFIGS.items():
        cases[f"equivalence/{name}"] = functools.partial(serve, **config)
    for scenario in FAULT_GRID_SCENARIOS:
        for autoscale in (False, True):
            cases[fault_case(scenario, autoscale)] = functools.partial(
                serve, **fault_grid_config(scenario, autoscale)
            )
    cases["energy/span-integral"] = functools.partial(serve, **ENERGY_SPAN)
    cases["bench/overload-8k"] = functools.partial(serve, **OVERLOAD_8K)
    cases["resilience/regional-outage-graceful"] = resilience_graceful_outage
    for label, kind, rate, duration in (
        run_benchmarks.SERVING_SMOKE_SWEEP + run_benchmarks.SERVING_FULL_SWEEP
    ):
        cases[sweep_case(label, duration)] = functools.partial(
            serve, models=run_benchmarks.SERVING_MODELS, kind=kind, rate=rate,
            duration=duration, seed=0,
        )
    return cases


def golden_digests() -> Dict[str, str]:
    """The frozen digests, case name -> sha256 hex."""
    return json.loads(GOLDEN_PATH.read_text())


def main() -> int:
    old = golden_digests() if GOLDEN_PATH.exists() else {}
    digests = {}
    for name, build in sorted(all_cases().items()):
        start = time.perf_counter()
        digest = build().digest()
        wall = time.perf_counter() - start
        status = "new" if name not in old else ("same" if old[name] == digest else "CHANGED")
        print(f"{name:50s} {digest[:16]}  {status:7s} {wall:6.1f}s", flush=True)
        digests[name] = digest
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
