"""The four benchmark workloads.

Each workload builds its inputs from the seed (:meth:`build`), makes one
measured call into the program (:meth:`measure`), and afterwards, outside
the timed region, digests, checks and summarizes what the call returned.
The program is driven only through its public entry points.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Sequence

import numpy as np

from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.core.placement.bnb import BnBStats, branch_and_bound_placement
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.replicas import replica_branch_and_bound
from repro.core.placement.tensors import CostTensors
from repro.experiments.federation import study_fault_plans, study_runtime
from repro.experiments.scaling import synthetic_instance
from repro.federation.runtime import FEDERATION_MODELS
from repro.profiles.devices import edge_device_names
from repro.serving.faults import BrownoutPolicy
from repro.serving.runtime import ServingRuntime
from repro.serving.scenarios import fault_scenario
from repro.serving.slo import RetryPolicy
from repro.serving.workload import WorkloadGenerator

from arith import failed_share, samples_beyond, tail_percentile

perf = time.perf_counter

#: A span factory: ``span(name)`` returns a context manager.
SpanFn = Callable[[str], ContextManager[Any]]


def no_span(_name: str) -> ContextManager[Any]:
    return nullcontext()


#: The three module-sharing models of both single-cluster workloads.
SERVE_MODELS = ("clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16")

#: Pinned exact objectives (sim seconds) of the two solve-exact instances.
PINNED_BNB_OBJECTIVE = 2.43586520116746
PINNED_REPLICA_OBJECTIVE = 2.4204013233939565


@dataclass
class Inputs:
    """What :meth:`Workload.build` made for one seed."""

    seed: int
    items: int            # arrivals (traffic) or instances (solve-exact)
    generate_s: float     # host seconds spent in WorkloadGenerator.generate
    data: Dict[str, Any] = field(default_factory=dict)


def sharing_memory_saving(models: Sequence[str]) -> float:
    """1 - resident params with module sharing / without, on the testbed."""
    params = {}
    for share in (True, False):
        cluster = build_testbed(edge_device_names(), requester="jetson-a")
        params[share] = S2M3Engine(cluster, list(models), share=share).deploy().total_params
    return 1.0 - params[True] / params[False]


def latency_outcomes(latencies: Sequence[float]) -> Dict[str, float]:
    """Median and tail of completed-request latencies (sim seconds), with
    the tail percentile chosen so at least 10 samples lie beyond it."""
    n = len(latencies)
    if n == 0:
        return {"sim_p50_s": 0.0, "sim_p99_s": 0.0, "sim_samples": 0,
                "sim_tail_percentile": 0.0, "sim_tail_beyond": 0}
    array = np.asarray(latencies, dtype=np.float64)
    q = tail_percentile(n)
    return {
        "sim_p50_s": float(np.percentile(array, 50)),
        "sim_p99_s": float(np.percentile(array, q)) if q is not None else float(array.max()),
        "sim_samples": n,
        "sim_tail_percentile": q if q is not None else 100.0,
        "sim_tail_beyond": samples_beyond(n, q) if q is not None else 0,
    }


def _sha(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Workload:
    """Base: subclasses fill in every method."""

    name = ""

    def build(self, seed: int) -> Inputs:
        raise NotImplementedError

    def measure(self, inputs: Inputs, span: SpanFn = no_span) -> Any:
        raise NotImplementedError

    def digest(self, result: Any) -> str:
        """A digest of every simulated output of one call."""
        raise NotImplementedError

    def check(self, result: Any, inputs: Inputs) -> List[str]:
        """Output-check failures of one call (empty when correct)."""
        raise NotImplementedError

    def outcomes(self, result: Any, inputs: Inputs, failed_checks: int) -> Dict[str, float]:
        """Simulated outcomes: latency, goodput, failures, sharing, objective."""
        raise NotImplementedError

    def counts(self, result: Any) -> Dict[str, float]:
        """Per-layer outcome counts read from the result."""
        raise NotImplementedError


# ======================================================================
# Single-cluster serving
# ======================================================================
class ServeWorkload(Workload):
    """One testbed cluster serving the three-model mix from a trace."""

    def __init__(self, name: str, kind: str, rate_rps: float, duration_s: float,
                 faults: bool, runtime_kwargs: Dict[str, Any]) -> None:
        self.name = name
        self.kind = kind
        self.rate_rps = rate_rps
        self.duration_s = duration_s
        self.faults = faults
        self.runtime_kwargs = runtime_kwargs

    def build(self, seed: int) -> Inputs:
        start = perf()
        trace = WorkloadGenerator(
            list(SERVE_MODELS), kind=self.kind, rate_rps=self.rate_rps,
            duration_s=self.duration_s, seed=seed,
        ).generate()
        generate_s = perf() - start
        plan = (
            fault_scenario("regional-outage", self.duration_s, seed) if self.faults else None
        )
        runtime = ServingRuntime(list(SERVE_MODELS), **self.runtime_kwargs)
        return Inputs(seed, len(trace), generate_s,
                      {"trace": trace, "faults": plan, "runtime": runtime})

    def measure(self, inputs: Inputs, span: SpanFn = no_span) -> Any:
        data = inputs.data
        return data["runtime"].run(data["trace"], faults=data["faults"])

    def digest(self, report: Any) -> str:
        # Request ids come from a process-wide counter, so they differ
        # between repeats; every other per-request field must not.
        rows = [
            (r.model_name, r.arrival_time, r.slo_s, r.admitted, r.rejected_reason,
             r.finish_time, r.retries, r.timed_out)
            for r in report.records
        ]
        return _sha((report.metrics_tuple(), rows, report.migrations, report.churn,
                     report.scaling, report.brownout, report.energy))

    def check(self, report: Any, inputs: Inputs) -> List[str]:
        failures = []
        if report.arrivals != inputs.items:
            failures.append(f"report has {report.arrivals} arrivals, trace {inputs.items}")
        ended = report.completed + report.rejected + report.timed_out
        if ended != report.arrivals:
            failures.append(
                f"conservation: completed+rejected+timed_out={ended} != arrivals={report.arrivals}"
            )
        return failures

    def outcomes(self, report: Any, inputs: Inputs, failed_checks: int) -> Dict[str, float]:
        out = latency_outcomes([r.latency for r in report.records if r.completed])
        out.update(
            goodput_rps=report.goodput_rps,
            failed_share=failed_share(report.arrivals, report.rejected,
                                      report.timed_out, failed_checks),
            sharing_memory_saving=sharing_memory_saving(SERVE_MODELS),
            placement_objective_s=0.0,
        )
        return out

    def counts(self, report: Any) -> Dict[str, float]:
        attempts = report.admitted + report.retries
        return {
            "serving.admitted": report.admitted,
            "serving.retries": report.retries,
            "serving.timed_out": report.timed_out,
            "serving.migrations": len(report.migrations),
            "serving.scaling_events": len(report.scaling),
            "serving.brownout_changes": len(report.brownout),
            "serving.useful_ratio": report.completed / attempts if attempts else 0.0,
        }


# ======================================================================
# Federation
# ======================================================================
FEDERATION_DURATION_S = 3000.0


class FederationWorkload(Workload):
    """The federation study topology under its regional-outage plan."""

    name = "federation-outage"

    def build(self, seed: int) -> Inputs:
        runtime = study_runtime(spillover=True, duration_s=FEDERATION_DURATION_S)
        plans = study_fault_plans("regional-outage", FEDERATION_DURATION_S)
        start = perf()
        traces = runtime.local_traces(seed)
        generate_s = perf() - start
        items = sum(len(trace) for trace in traces.values())
        return Inputs(seed, items, generate_s, {"runtime": runtime, "plans": plans})

    def measure(self, inputs: Inputs, span: SpanFn = no_span) -> Any:
        data = inputs.data
        # The runtime regenerates the same local traces from the seed.
        return data["runtime"].run(inputs.seed, fault_plans=data["plans"], parallel=False)

    def digest(self, report: Any) -> str:
        return report.digest()

    def check(self, report: Any, inputs: Inputs) -> List[str]:
        failures = []
        for c in report.clusters:
            ended = c.completed + c.rejected + c.timed_out
            if ended != c.arrivals:
                failures.append(f"{c.name}: completed+rejected+timed_out={ended} != {c.arrivals}")
            routed = c.local_arrivals + c.forwarded_in - c.forwarded_out
            if routed != c.arrivals:
                failures.append(f"{c.name}: local+in-out={routed} != served {c.arrivals}")
        out = sum(c.forwarded_out for c in report.clusters)
        into = sum(c.forwarded_in for c in report.clusters)
        if out != into:
            failures.append(f"forwarding: {out} out != {into} in")
        if report.local_arrivals != inputs.items:
            failures.append(
                f"federation: {report.local_arrivals} local arrivals, traces {inputs.items}"
            )
        ended = report.completed + report.rejected + report.timed_out
        if ended != report.local_arrivals:
            failures.append(f"federation: {ended} ended != {report.local_arrivals} arrivals")
        return failures

    def outcomes(self, report: Any, inputs: Inputs, failed_checks: int) -> Dict[str, float]:
        latencies = [x for c in report.clusters for x in c.e2e_latencies]
        out = latency_outcomes(latencies)
        out.update(
            goodput_rps=report.goodput_rps,
            failed_share=failed_share(report.local_arrivals, report.rejected,
                                      report.timed_out, failed_checks),
            sharing_memory_saving=sharing_memory_saving(FEDERATION_MODELS),
            placement_objective_s=0.0,
        )
        return out

    def counts(self, report: Any) -> Dict[str, float]:
        admitted = sum(c.admitted for c in report.clusters)
        retries = sum(c.retries for c in report.clusters)
        attempts = admitted + retries
        return {
            "serving.admitted": admitted,
            "serving.retries": retries,
            "serving.timed_out": report.timed_out,
            # Cluster summaries do not carry control-plane logs.
            "serving.migrations": 0,
            "serving.scaling_events": 0,
            "serving.brownout_changes": 0,
            "serving.useful_ratio": report.completed / attempts if attempts else 0.0,
            "federation.forwarded": report.forwarded,
        }


# ======================================================================
# Exact placement
# ======================================================================
@dataclass
class SolveResult:
    bnb_placement: Any
    bnb_objective: float
    bnb_stats: BnBStats
    replica_placement: Any
    replica_objective: float


class SolveWorkload(Workload):
    """Two exact solves on pinned synthetic instances.

    The instances do not depend on the seed: solve time swings by two
    orders of magnitude between random instances of one size, which would
    leave nothing for a regression gate to compare.
    """

    name = "solve-exact"

    def build(self, seed: int) -> Inputs:
        single = synthetic_instance(10, 24, seed=1, n_requests=4)
        replica = synthetic_instance(5, 8, seed=1, n_requests=6)
        return Inputs(seed, 2, 0.0, {"single": single, "replica": replica})

    @staticmethod
    def _tensors(instance: Any) -> CostTensors:
        # Pricing the requests once fills the lazy per-request tensors that
        # both searches read, so their build is timed on its own.
        tensors = CostTensors(instance.problem, instance.network)
        tensors.objective(list(instance.requests), greedy_placement(instance.problem))
        return tensors

    def measure(self, inputs: Inputs, span: SpanFn = no_span) -> Any:
        single = inputs.data["single"]
        replica = inputs.data["replica"]
        stats = BnBStats()
        with span("placement.tensor_build"):
            tensors = self._tensors(single)
        with span("placement.bnb"):
            bnb_placement, bnb_objective = branch_and_bound_placement(
                single.problem, list(single.requests), single.network,
                tensors=tensors, stats=stats,
            )
        with span("placement.tensor_build"):
            tensors = self._tensors(replica)
        with span("placement.replica"):
            replica_placement, replica_objective = replica_branch_and_bound(
                replica.problem, list(replica.requests), replica.network,
                max_copies=2, tensors=tensors,
            )
        return SolveResult(bnb_placement, bnb_objective, stats,
                           replica_placement, replica_objective)

    def digest(self, result: SolveResult) -> str:
        return _sha((
            sorted(result.bnb_placement.as_dict().items()), result.bnb_objective,
            sorted(result.replica_placement.as_dict().items()), result.replica_objective,
        ))

    def check(self, result: SolveResult, inputs: Inputs) -> List[str]:
        failures = []
        if result.bnb_objective != PINNED_BNB_OBJECTIVE:
            failures.append(
                f"branch_and_bound objective {result.bnb_objective!r} != {PINNED_BNB_OBJECTIVE!r}"
            )
        if result.replica_objective != PINNED_REPLICA_OBJECTIVE:
            failures.append(
                f"replica objective {result.replica_objective!r} != {PINNED_REPLICA_OBJECTIVE!r}"
            )
        return failures

    def outcomes(self, result: SolveResult, inputs: Inputs, failed_checks: int) -> Dict[str, float]:
        out = latency_outcomes(())
        out.update(
            goodput_rps=0.0,
            failed_share=failed_share(inputs.items, 0, 0, failed_checks),
            sharing_memory_saving=0.0,
            placement_objective_s=result.bnb_objective + result.replica_objective,
        )
        return out

    def counts(self, result: SolveResult) -> Dict[str, float]:
        stats = result.bnb_stats
        branches = stats.nodes + stats.leaves + stats.pruned
        return {
            "placement.bnb_nodes": stats.nodes,
            "placement.bnb_leaves": stats.leaves,
            "placement.bnb_pruned": stats.pruned,
            "placement.bnb_prune_ratio": stats.pruned / branches if branches else 0.0,
        }


# ======================================================================
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Poisson below the knee: nearly every arrival takes the admitted path.
        # Run by hand only; perfbench/README.md says why it is not gated.
        ServeWorkload(
            "serve-steady", kind="poisson", rate_rps=0.5, duration_s=20000.0,
            faults=False, runtime_kwargs={},
        ),
        # Bursty MMPP at about 1.5 rps mean (base 0.75 rps, x6 bursts) under a
        # regional outage: most arrivals end at admission, the control plane
        # ticks throughout.
        ServeWorkload(
            "serve-degraded", kind="bursty", rate_rps=0.75, duration_s=6000.0,
            faults=True,
            runtime_kwargs={
                "retry": RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05),
                "brownout": BrownoutPolicy(),
                "autoscale": True,
            },
        ),
        FederationWorkload(),
        SolveWorkload(),
    )
}
