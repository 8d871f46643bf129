"""Federation: cross-cluster conservation contract, merge bit-identity,
WAN topology/router validation, and the CLI subcommand.

The centerpiece mirrors ``tests/test_serving_faults.py``: a property grid
over every (workload kind x spillover on/off x regional-outage on/off)
cell asserting that no request is created or lost by crossing the WAN —
per cluster ``completed + rejected + timed_out == arrivals`` with
``arrivals == local - forwarded_out + forwarded_in``, and globally
``sum(completed + rejected + timed_out + forwarded_out - forwarded_in)
== sum(local arrivals)`` — plus same-seed digest determinism and
``merge(parallel) == merge(sequential)`` bit-identity.
"""

import dataclasses
import math
import random

import pytest
from conftest import SERVING_MODELS, TESTBED_DEVICES, small_federation

from repro.__main__ import main
from repro.federation import (
    ClusterRoute,
    ClusterSpec,
    FederationRuntime,
    FederationTopology,
    SpilloverDecision,
    WanLink,
    live_fraction,
    merge_reports,
    plan_spillover,
)
from repro.profiles.devices import edge_device_names
from repro.serving.churn import FAIL, RECOVER
from repro.serving.faults import FaultPlan, regional_outage
from repro.serving.slo import SLOPolicy
from repro.serving.workload import WORKLOAD_KINDS, Arrival, ArrivalTrace

#: Grid shape: short but hot enough that spillover cells actually forward.
GRID_DURATION_S = 30.0
GRID_SEED = 7


def _grid_runtime(kind, spillover):
    return FederationRuntime(
        small_federation(rate_rps=1.2, capacity_rps=1.6, period_s=GRID_DURATION_S),
        models=tuple(SERVING_MODELS),
        duration_s=GRID_DURATION_S,
        workload_kind=kind,
        diurnal_period_s=GRID_DURATION_S,
        diurnal_amplitude=0.8,
        slo=SLOPolicy(admission=False),
        spillover=spillover,
    )


def _grid_faults(outage):
    if not outage:
        return {}
    return {
        "us-west": FaultPlan.ordered(
            regional_outage(
                ("desktop", "jetson-b"),
                0.25 * GRID_DURATION_S,
                0.75 * GRID_DURATION_S,
                region="us-west",
            )
        )
    }


def _reference_live_fraction(plan, device_names, at_s):
    """The per-instant device-pool scan the planner's budgets used to run
    once per window (oracle for the one-sweep budgets)."""
    if plan is None or not plan.events:
        return 1.0
    pool = list(device_names)
    down = []
    for event in plan.events:
        if event.time > at_s:
            break
        if event.kind == FAIL and event.device in pool and event.device not in down:
            down.append(event.device)
        elif event.kind == RECOVER and event.device in down:
            down.remove(event.device)
    if not pool:
        return 1.0
    return max(0.0, (len(pool) - len(down)) / len(pool))


def _reference_plan_spillover(
    topology, traces, fault_plans=None, *, window_s=1.0, payload_mb=2.0
):
    """The rescanning spillover planner, kept as the oracle for
    :func:`plan_spillover`: every overflowing (window, cluster) rescans the
    cluster's whole trace and re-derives its peers' WAN prices per request.
    Argument validation is the planner's own and is not repeated here."""
    names = sorted(traces)
    fault_plans = dict(fault_plans or {})
    duration_s = traces[names[0]].duration_s
    n_windows = max(1, int(math.ceil(duration_s / window_s)))
    budgets = {}
    for name in names:
        spec = topology.cluster(name)
        devices = (
            list(spec.device_names) if spec.device_names is not None
            else edge_device_names()
        )
        plan = fault_plans.get(name)
        budgets[name] = [
            spec.capacity_rps * window_s
            * _reference_live_fraction(plan, devices, (w + 0.5) * window_s)
            for w in range(n_windows)
        ]
    occupancy = {name: [0] * n_windows for name in names}
    for name in names:
        for arrival in traces[name].arrivals:
            w = min(n_windows - 1, int(arrival.time / window_s))
            occupancy[name][w] += 1

    decisions = {name: [] for name in names}
    forwarded_out_idx = {name: set() for name in names}
    for w in range(n_windows):
        for name in names:
            budget = int(math.floor(budgets[name][w] + 1e-9))
            overflow = occupancy[name][w] - budget
            if overflow <= 0:
                continue
            window_arrivals = [
                (index, arrival)
                for index, arrival in enumerate(traces[name].arrivals)
                if min(n_windows - 1, int(arrival.time / window_s)) == w
                and index not in forwarded_out_idx[name]
            ]
            for index, arrival in window_arrivals[-overflow:] if overflow < len(
                window_arrivals
            ) else window_arrivals:
                choice = None
                for peer in topology.neighbors(name):
                    delay = topology.wan_delay_s(name, peer, payload_mb)
                    lands_at = arrival.time + delay
                    if lands_at >= duration_s:
                        continue
                    peer_w = min(n_windows - 1, int(lands_at / window_s))
                    spare = (
                        int(math.floor(budgets[peer][peer_w] + 1e-9))
                        - occupancy[peer][peer_w]
                    )
                    if spare < 1:
                        continue
                    candidate = (-spare, delay, peer, peer_w, lands_at)
                    if choice is None or candidate < choice:
                        choice = candidate
                if choice is None:
                    continue
                _neg_spare, delay, peer, peer_w, lands_at = choice
                occupancy[name][w] -= 1
                occupancy[peer][peer_w] += 1
                forwarded_out_idx[name].add(index)
                decisions[name].append(
                    SpilloverDecision(
                        origin=name,
                        destination=peer,
                        index=index,
                        departure_s=arrival.time,
                        arrival_s=lands_at,
                        extra_s=delay + topology.return_delay_s(name, peer),
                    )
                )

    routes = {}
    inbound = {name: [] for name in names}
    for name in names:
        for decision in decisions[name]:
            inbound[decision.destination].append(decision)
    for name in names:
        kept = [
            (arrival.time, arrival.model_name, 0.0)
            for index, arrival in enumerate(traces[name].arrivals)
            if index not in forwarded_out_idx[name]
        ]
        landed = [
            (
                decision.arrival_s,
                traces[decision.origin].arrivals[decision.index].model_name,
                decision.extra_s,
            )
            for decision in sorted(
                inbound[name], key=lambda d: (d.arrival_s, d.origin, d.index)
            )
        ]
        merged = sorted(kept + landed, key=lambda row: row[0])
        routes[name] = ClusterRoute(
            name=name,
            trace=ArrivalTrace(
                arrivals=tuple(Arrival(time=t, model_name=m) for t, m, _ in merged),
                duration_s=duration_s,
                kind=traces[name].kind,
                seed=traces[name].seed,
            ),
            wan_extra_s=tuple(extra for _, _, extra in merged),
            local_arrivals=len(traces[name].arrivals),
            forwarded_out=len(decisions[name]),
            forwarded_in=len(inbound[name]),
            decisions=tuple(decisions[name]),
        )
    return routes


def _reference_neighbors(topology, name):
    """The per-call neighbour derivation (re-sorts every link key)."""
    if name not in topology.names():
        raise KeyError(name)
    out = []
    for key in sorted(topology._link_by_pair):
        if name in key:
            out.append(key[0] if key[1] == name else key[1])
    return tuple(sorted(out))


class TestConservationContract:
    """The property grid: conservation must hold in every cell."""

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    @pytest.mark.parametrize("spillover", [False, True])
    @pytest.mark.parametrize("outage", [False, True])
    def test_no_request_created_or_lost(self, kind, spillover, outage):
        report = _grid_runtime(kind, spillover).run(
            GRID_SEED, fault_plans=_grid_faults(outage)
        )
        for cluster in report.clusters:
            assert cluster.arrivals == (
                cluster.local_arrivals - cluster.forwarded_out + cluster.forwarded_in
            )
            assert (
                cluster.completed + cluster.rejected + cluster.timed_out
                == cluster.arrivals
            )
        ledger = sum(
            c.completed + c.rejected + c.timed_out + c.forwarded_out - c.forwarded_in
            for c in report.clusters
        )
        assert ledger == report.local_arrivals
        assert sum(c.forwarded_out for c in report.clusters) == sum(
            c.forwarded_in for c in report.clusters
        )
        if not spillover:
            assert report.forwarded == 0

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_same_seed_same_digest(self, kind):
        first = _grid_runtime(kind, True).run(GRID_SEED)
        second = _grid_runtime(kind, True).run(GRID_SEED)
        assert first.digest() == second.digest()
        assert first.digest() != _grid_runtime(kind, True).run(GRID_SEED + 1).digest()

    @pytest.mark.parametrize("outage", [False, True])
    def test_parallel_merge_bit_identical_to_sequential(self, outage):
        runtime = _grid_runtime("diurnal", True)
        plans = _grid_faults(outage)
        sequential = runtime.run(GRID_SEED, fault_plans=plans, parallel=False)
        parallel = runtime.run(GRID_SEED, fault_plans=plans, parallel=True)
        assert parallel.digest() == sequential.digest()
        assert parallel == sequential

    def test_spillover_actually_forwards_under_load(self):
        """The hot diurnal grid must exercise the WAN path, or the grid
        above would be vacuously conserving."""
        report = _grid_runtime("diurnal", True).run(GRID_SEED)
        assert report.forwarded > 0

    def test_merge_rejects_tampered_ledgers(self):
        report = _grid_runtime("diurnal", True).run(GRID_SEED)
        clusters = list(report.clusters)
        lossy = dataclasses.replace(clusters[0], completed=clusters[0].completed - 1)
        with pytest.raises(RuntimeError):
            merge_reports([lossy] + clusters[1:], spillover=True)
        unbalanced = dataclasses.replace(
            clusters[0],
            forwarded_in=clusters[0].forwarded_in + 1,
            arrivals=clusters[0].arrivals + 1,
            completed=clusters[0].completed + 1,
        )
        with pytest.raises(RuntimeError):
            merge_reports([unbalanced] + clusters[1:], spillover=True)
        with pytest.raises(ValueError):
            merge_reports(clusters + [clusters[0]], spillover=True)
        with pytest.raises(ValueError):
            merge_reports([], spillover=True)


class TestTopology:
    def test_lookup_and_neighbors(self, federation_topology):
        assert federation_topology.names() == ("ap-south", "eu-central", "us-west")
        assert federation_topology.neighbors("us-west") == ("ap-south", "eu-central")
        assert federation_topology.cluster("eu-central").phase_offset_s == 20.0
        assert federation_topology.link("us-west", "eu-central") is not None
        assert federation_topology.link("eu-central", "us-west") is not None

    def test_wan_pricing(self, federation_topology):
        # 70 ms latency + 2 MB * 8 / 200 Mbps = 70 ms + 80 ms.
        delay = federation_topology.wan_delay_s("us-west", "eu-central", 2.0)
        assert delay == pytest.approx(0.07 + 2.0 * 8.0 / 200.0)
        assert federation_topology.return_delay_s("us-west", "eu-central") == 0.07
        with pytest.raises(ValueError):
            federation_topology.wan_delay_s("us-west", "eu-central", -1.0)

    def test_validation(self):
        spec = ClusterSpec("solo", rate_rps=1.0, capacity_rps=1.0)
        with pytest.raises(ValueError):
            ClusterSpec("", rate_rps=1.0, capacity_rps=1.0)
        with pytest.raises(ValueError):
            ClusterSpec("x", rate_rps=0.0, capacity_rps=1.0)
        with pytest.raises(ValueError):
            ClusterSpec("x", rate_rps=1.0, capacity_rps=1.0, phase_offset_s=float("nan"))
        with pytest.raises(ValueError):
            ClusterSpec("x", rate_rps=1.0, capacity_rps=1.0, device_names=())
        with pytest.raises(ValueError):
            WanLink("a", "a", latency_s=0.1, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            WanLink("a", "b", latency_s=0.0, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            FederationTopology(clusters=())
        with pytest.raises(ValueError):
            FederationTopology(clusters=(spec, spec))
        with pytest.raises(ValueError):
            FederationTopology(
                clusters=(spec,),
                links=(WanLink("solo", "ghost", latency_s=0.1, bandwidth_mbps=10.0),),
            )
        dup = WanLink("a", "b", latency_s=0.1, bandwidth_mbps=10.0)
        rev = WanLink("b", "a", latency_s=0.2, bandwidth_mbps=20.0)
        with pytest.raises(ValueError):
            FederationTopology(
                clusters=(
                    ClusterSpec("a", rate_rps=1.0, capacity_rps=1.0),
                    ClusterSpec("b", rate_rps=1.0, capacity_rps=1.0),
                ),
                links=(dup, rev),
            )

    def test_unlinked_pair_has_no_price(self):
        topo = FederationTopology(
            clusters=(
                ClusterSpec("a", rate_rps=1.0, capacity_rps=1.0),
                ClusterSpec("b", rate_rps=1.0, capacity_rps=1.0),
            )
        )
        assert topo.link("a", "b") is None
        assert topo.neighbors("a") == ()
        with pytest.raises(ValueError):
            topo.wan_delay_s("a", "b", 1.0)

    def test_neighbors_match_per_call_derivation(self, federation_topology):
        partial = FederationTopology(
            clusters=tuple(
                ClusterSpec(name, rate_rps=1.0, capacity_rps=1.0)
                for name in ("d", "c", "b", "a")
            ),
            links=(
                WanLink("c", "a", latency_s=0.1, bandwidth_mbps=10.0),
                WanLink("b", "c", latency_s=0.1, bandwidth_mbps=10.0),
            ),
        )
        assert partial.neighbors("c") == ("a", "b")
        assert partial.neighbors("d") == ()
        for topo in (federation_topology, partial):
            for name in topo.names():
                assert topo.neighbors(name) == _reference_neighbors(topo, name)
            with pytest.raises(KeyError):
                topo.neighbors("ghost")
            with pytest.raises(KeyError):
                _reference_neighbors(topo, "ghost")


class TestRouter:
    def test_live_fraction_tracks_outage_window(self):
        plan = FaultPlan.ordered(
            regional_outage(("desktop", "jetson-b"), 10.0, 20.0, region="r")
        )
        assert live_fraction(plan, TESTBED_DEVICES, 5.0) == 1.0
        assert live_fraction(plan, TESTBED_DEVICES, 10.0) == 0.5  # events at t apply
        assert live_fraction(plan, TESTBED_DEVICES, 15.0) == 0.5
        assert live_fraction(plan, TESTBED_DEVICES, 20.0) == 1.0
        assert live_fraction(plan, TESTBED_DEVICES, 25.0) == 1.0
        assert live_fraction(None, TESTBED_DEVICES, 15.0) == 1.0

    def test_no_forwarding_below_capacity(self, federation_topology):
        runtime = FederationRuntime(
            federation_topology, duration_s=30.0, workload_kind="poisson"
        )
        traces = runtime.local_traces(seed=1)
        # Re-plan against a copy with huge capacity: nothing overflows.
        routes = plan_spillover(_roomy(federation_topology), traces)
        for name, route in routes.items():
            assert route.forwarded_out == 0
            assert route.forwarded_in == 0
            assert route.trace == traces[name]
            assert all(extra == 0.0 for extra in route.wan_extra_s)

    def test_forwarded_arrivals_pay_wan_and_stay_sorted(self, federation_topology):
        runtime = FederationRuntime(
            federation_topology,
            duration_s=30.0,
            workload_kind="diurnal",
            diurnal_period_s=30.0,
            diurnal_amplitude=0.8,
        )
        traces = runtime.local_traces(seed=GRID_SEED)
        routes = plan_spillover(federation_topology, traces)
        assert sum(r.forwarded_out for r in routes.values()) > 0
        for route in routes.values():
            times = [a.time for a in route.trace.arrivals]
            assert times == sorted(times)
            assert all(t < route.trace.duration_s for t in times)
            assert all(extra >= 0.0 for extra in route.wan_extra_s)
        for route in routes.values():
            for decision in route.decisions:
                link_delay = federation_topology.wan_delay_s(
                    decision.origin, decision.destination, 2.0
                )
                assert decision.arrival_s == decision.departure_s + link_delay
                assert decision.extra_s == pytest.approx(
                    link_delay
                    + federation_topology.return_delay_s(
                        decision.origin, decision.destination
                    )
                )

    def test_spillover_off_is_identity(self, federation_topology):
        runtime = FederationRuntime(
            federation_topology, duration_s=20.0, workload_kind="bursty"
        )
        traces = runtime.local_traces(seed=2)
        routes = plan_spillover(federation_topology, traces, spillover=False)
        for name, route in routes.items():
            assert route.trace == traces[name]
            assert route.forwarded_out == route.forwarded_in == 0

    def test_validation(self, federation_topology):
        runtime = FederationRuntime(federation_topology, duration_s=20.0)
        traces = runtime.local_traces(seed=0)
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, traces, window_s=0.0)
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, dict(list(traces.items())[:2]))
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, traces, {"ghost": None})
        name = "us-west"
        short = dataclasses.replace(traces[name], duration_s=5.0)
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, {**traces, name: short})
        route = plan_spillover(federation_topology, traces)[name]
        with pytest.raises(ValueError):
            ClusterRoute(
                name=name,
                trace=route.trace,
                wan_extra_s=route.wan_extra_s[:-1],
                local_arrivals=route.local_arrivals,
                forwarded_out=route.forwarded_out,
                forwarded_in=route.forwarded_in,
            )
        with pytest.raises(ValueError):
            ClusterRoute(
                name=name,
                trace=route.trace,
                wan_extra_s=route.wan_extra_s,
                local_arrivals=route.local_arrivals + 1,
                forwarded_out=route.forwarded_out,
                forwarded_in=route.forwarded_in,
            )


def _roomy(topology):
    """The same topology with capacity nothing can overflow."""
    return FederationTopology(
        clusters=tuple(
            dataclasses.replace(spec, capacity_rps=1000.0)
            for spec in topology.clusters
        ),
        links=topology.links,
    )


def _assert_matches_reference(topology, traces, fault_plans=None, **pricing):
    """``plan_spillover`` must equal the rescanning oracle on every
    :class:`ClusterRoute` field, in the same key order."""
    routes = plan_spillover(topology, traces, fault_plans, **pricing)
    reference = _reference_plan_spillover(topology, traces, fault_plans, **pricing)
    assert list(routes) == list(reference)
    for name, want in reference.items():
        for field in dataclasses.fields(ClusterRoute):
            assert getattr(routes[name], field.name) == getattr(want, field.name), (
                name,
                field.name,
            )
    return routes


def _oracle_runtime(kind, duration_s, window_s=1.0):
    return FederationRuntime(
        small_federation(rate_rps=1.2, capacity_rps=1.6, period_s=duration_s),
        models=tuple(SERVING_MODELS),
        duration_s=duration_s,
        workload_kind=kind,
        diurnal_period_s=duration_s,
        diurnal_amplitude=0.8,
        window_s=window_s,
    )


def _us_west_outage(duration_s):
    return {
        "us-west": FaultPlan.ordered(
            regional_outage(
                ("desktop", "jetson-b"),
                0.25 * duration_s,
                0.75 * duration_s,
                region="us-west",
            )
        )
    }


class TestPlannerOracle:
    """The bucketed planner against the rescanning reference, bit for bit."""

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("window_s", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("outage", [False, True])
    def test_matches_reference_grid(self, kind, seed, window_s, outage):
        runtime = _oracle_runtime(kind, 60.0, window_s)
        _assert_matches_reference(
            runtime.topology,
            runtime.local_traces(seed),
            _us_west_outage(60.0) if outage else None,
            window_s=window_s,
            payload_mb=runtime.payload_mb,
        )

    def test_matches_reference_on_long_diurnal_run(self):
        """Hundreds of overflowing windows, so the grid above cannot pass
        by never overflowing."""
        runtime = _oracle_runtime("diurnal", 600.0)
        routes = _assert_matches_reference(
            runtime.topology, runtime.local_traces(3), _us_west_outage(600.0)
        )
        forwarding_windows = {
            (decision.origin, int(decision.departure_s / runtime.window_s))
            for route in routes.values()
            for decision in route.decisions
        }
        assert len(forwarding_windows) >= 100

    def test_matches_reference_on_unsorted_traces(self):
        """``ArrivalTrace`` does not enforce time order; neither may the
        window buckets."""
        runtime = _oracle_runtime("diurnal", 60.0)
        traces = {}
        for name, trace in runtime.local_traces(GRID_SEED).items():
            arrivals = list(trace.arrivals)
            random.Random(name).shuffle(arrivals)
            traces[name] = dataclasses.replace(trace, arrivals=tuple(arrivals))
        times = [a.time for a in traces["us-west"].arrivals]
        assert times != sorted(times)
        routes = _assert_matches_reference(runtime.topology, traces)
        assert sum(route.forwarded_out for route in routes.values()) > 0

    def test_matches_reference_on_negative_times(self):
        """Arrivals before ``-window_s`` lie outside the trace contract; the
        planner still counts them where the rescan did and never forwards
        them."""
        runtime = _oracle_runtime("diurnal", 30.0)
        traces = runtime.local_traces(GRID_SEED)
        early = (Arrival(time=-1.5, model_name=SERVING_MODELS[0]),) * 3
        traces["us-west"] = dataclasses.replace(
            traces["us-west"], arrivals=early + traces["us-west"].arrivals
        )
        routes = _assert_matches_reference(runtime.topology, traces)
        assert all(d.index >= len(early) for d in routes["us-west"].decisions)

    @pytest.mark.parametrize("payload_mb", [-1.0, float("nan"), float("inf")])
    def test_bad_payload_rejected_before_planning(self, federation_topology, payload_mb):
        """Rejected whether or not any window overflows (the per-request WAN
        pricing used to catch it only once one did)."""
        runtime = _oracle_runtime("diurnal", 30.0)
        traces = runtime.local_traces(GRID_SEED)
        roomy = _roomy(federation_topology)
        assert not any(r.forwarded_out for r in plan_spillover(roomy, traces).values())
        assert any(
            r.forwarded_out for r in plan_spillover(federation_topology, traces).values()
        )
        for topology in (roomy, federation_topology):
            with pytest.raises(ValueError, match="payload_mb"):
                plan_spillover(topology, traces, payload_mb=payload_mb)
            with pytest.raises(ValueError, match="payload_mb"):
                plan_spillover(topology, traces, spillover=False, payload_mb=payload_mb)

    def test_zero_payload_prices_latency_only(self, federation_topology):
        traces = _oracle_runtime("diurnal", 30.0).local_traces(GRID_SEED)
        routes = _assert_matches_reference(federation_topology, traces, payload_mb=0.0)
        for route in routes.values():
            for decision in route.decisions:
                link = federation_topology.link(decision.origin, decision.destination)
                assert decision.arrival_s == decision.departure_s + link.latency_s


class TestRuntimeAndCli:
    def test_runtime_validation(self, federation_topology):
        with pytest.raises(ValueError):
            FederationRuntime(federation_topology, duration_s=0.0)
        with pytest.raises(ValueError):
            FederationRuntime(federation_topology, models=())
        for window_s in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="window_s"):
                FederationRuntime(federation_topology, window_s=window_s)
        for payload_mb in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="payload_mb"):
                FederationRuntime(federation_topology, payload_mb=payload_mb)
        assert FederationRuntime(federation_topology, payload_mb=0.0).payload_mb == 0.0
        # nan passed the ``<= 0`` check and hung run() in trace generation.
        for name in ("duration_s", "diurnal_period_s"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    FederationRuntime(federation_topology, **{name: value})

    def test_per_cluster_seeds_are_independent(self, federation_topology):
        """Cluster streams derive from the cluster name: distinct per
        cluster, stable across topology changes elsewhere."""
        runtime = FederationRuntime(
            federation_topology, duration_s=20.0, workload_kind="poisson"
        )
        traces = runtime.local_traces(seed=0)
        assert len({trace.seed for trace in traces.values()}) == len(traces)
        streams = {
            name: tuple((a.time, a.model_name) for a in trace.arrivals)
            for name, trace in traces.items()
        }
        assert len(set(streams.values())) == len(streams)

    def test_e2e_latency_includes_wan_penalty(self, federation_topology):
        """With spillover on, forwarded requests pay WAN forward+return in
        their end-to-end latency: total e2e time must exceed the same
        clusters' serving-only time whenever anything was forwarded."""
        runtime = FederationRuntime(
            federation_topology,
            duration_s=30.0,
            workload_kind="diurnal",
            diurnal_period_s=30.0,
            diurnal_amplitude=0.8,
            slo=SLOPolicy(admission=False),
        )
        report = runtime.run(GRID_SEED)
        assert report.forwarded > 0
        routes = runtime.plan(GRID_SEED)
        wan_total = sum(sum(route.wan_extra_s) for route in routes.values())
        assert wan_total > 0.0
        # Everything completed (admission off, no faults), so the summed
        # end-to-end latency must carry at least the full WAN penalty on
        # top of strictly positive serving time.
        assert report.completed == report.local_arrivals
        total_e2e = sum(sum(c.e2e_latencies) for c in report.clusters)
        assert total_e2e > wan_total
        assert report.latency.count == report.completed

    def test_cli_study_and_single_run(self, capsys):
        assert main(["federation", "--duration", "20", "--seed", "3"]) == 0
        single = capsys.readouterr().out
        assert "federation run — 3 clusters" in single
        assert "digest" in single
        assert main(["federation", "--duration", "20", "--seed", "3"]) == 0
        assert capsys.readouterr().out == single  # CLI is deterministic
        assert (
            main(["federation", "--study", "--duration", "20", "--seed", "3"]) == 0
        )
        study = capsys.readouterr().out
        assert "offset-diurnal" in study and "regional-outage" in study
        assert "spillover off" in study and "WAN spillover on" in study

    def test_cli_outage_and_no_spillover(self, capsys):
        assert main([
            "federation", "--duration", "20", "--outage", "--no-spillover",
        ]) == 0
        out = capsys.readouterr().out
        assert "spillover off" in out
        assert "regional-outage" in out
