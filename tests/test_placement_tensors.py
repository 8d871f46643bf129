"""Cost tensors, branch-and-bound, and incremental objective: exactness.

The contract of the whole vectorized layer is *bit identity* with the
scalar reference paths — same floats, same argmin, same tie-breaks — so
these tests compare with ``==`` on floats, not ``pytest.approx``.
"""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import branch_and_bound_placement
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.optimal import (
    MAX_ASSIGNMENTS,
    enumerate_placements,
    optimal_placement,
)
from repro.core.placement.problem import PlacementProblem
from repro.core.placement.tensors import CostTensors, IncrementalObjective
from repro.core.placement.variants import random_placement
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.devices import edge_device_names
from repro.profiles.devices import testbed_device_names as _testbed_device_names
from repro.utils.errors import PlacementError
from repro.utils.seeding import rng_for

from conftest import seeded_noisy_problem

#: Randomized paper-scale instances: (models, devices, noise seed).
MODEL_SETS = [
    ["clip-vit-b16"],
    ["imagebind"],
    ["llava-v1.5-7b"],
    ["clip-rn50x64"],
    ["clip-vit-b16", "encoder-vqa-small"],
    ["flint-v0.5-1b"],
]


def noisy_problem(models, devices, seed, sigma=0.06):
    return seeded_noisy_problem("tensor-prop", models, seed, sigma=sigma, devices=devices)


def paper_scale_instances():
    for models in MODEL_SETS:
        for devices in (edge_device_names(), _testbed_device_names()):
            for seed in range(2):
                yield models, devices, seed


class TestTensorBitIdentity:
    def test_objective_route_and_latency_match_scalar(self):
        network = Network()
        for models, devices, seed in paper_scale_instances():
            problem = noisy_problem(models, devices, seed)
            model = LatencyModel(problem, network)
            requests = [
                InferenceRequest.for_model(name, source)
                for name in models
                for source in ("jetson-a", "desktop")
            ]
            for placement in (
                greedy_placement(problem),
                replicate_with_leftover(problem, greedy_placement(problem)),
                random_placement(problem, seed=seed),
            ):
                assert model.objective(requests, placement) == model.objective_scalar(
                    requests, placement
                )
                for request in requests:
                    assert model.total_latency(request, placement) == (
                        model.total_latency_scalar(request, placement)
                    )
                    assert (
                        model.route(request, placement).hosts
                        == model.route_scalar(request, placement).hosts
                    )

    def test_compute_seconds_matches_scalar(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16", "imagebind"], edge_device_names(), 1)
        model = LatencyModel(problem, network)
        requests = [
            InferenceRequest.for_model("clip-vit-b16", "jetson-a"),
            InferenceRequest.for_model("imagebind", "desktop"),
        ]
        for request in requests:
            for module in request.model.module_names:
                for device in problem.devices:
                    assert model.compute_seconds(request, module, device.name) == (
                        model.compute_seconds_scalar(request, module, device.name)
                    )

    def test_nonparallel_mode_matches_scalar(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16", "imagebind"], edge_device_names(), 3)
        model = LatencyModel(problem, network, parallel=False)
        requests = [
            InferenceRequest.for_model("clip-vit-b16", "jetson-a"),
            InferenceRequest.for_model("imagebind", "jetson-a"),
        ]
        placement = greedy_placement(problem)
        assert model.objective(requests, placement) == model.objective_scalar(
            requests, placement
        )

    def test_total_latency_equals_breakdown_total(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], edge_device_names(), 0)
        model = LatencyModel(problem, network)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        placement = greedy_placement(problem)
        assert model.total_latency(request, placement) == (
            model.breakdown(request, placement).total
        )

    def test_compute_seconds_matches_manual_formula(self):
        problem = noisy_problem(["clip-vit-b16"], edge_device_names(), 1)
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        module = next(m for m in problem.modules if m.name == "clip-trf-38m")
        device = problem.device("laptop")
        expected = device.compute_seconds(
            module, work_scale=request.model.scale_for(module.name)
        ) * problem.compute_noise.get((module.name, device.name), 1.0)
        assert model.compute_seconds(request, "clip-trf-38m", "laptop") == expected

    def test_jitter_falls_back_to_scalar(self):
        network = Network()
        network.set_jitter(lambda s, d: 2.0)
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model = LatencyModel(problem, network)
        assert model.tensors is None
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        placement = greedy_placement(problem)
        assert model.total_latency(request, placement) == (
            model.total_latency_scalar(request, placement)
        )

    def test_tensors_rebuild_when_topology_changes(self):
        from repro.profiles.communication import LinkProfile

        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model = LatencyModel(problem, network)
        first = model.tensors
        assert first is model.tensors  # cached while nothing changes
        network.add_link(LinkProfile("laptop", "desktop", 1e9, 0.0001))
        second = model.tensors
        assert second is not first
        placement = greedy_placement(problem)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        assert model.total_latency(request, placement) == (
            model.total_latency_scalar(request, placement)
        )


class TestBranchAndBoundExactness:
    def test_matches_brute_force_on_randomized_paper_scale(self):
        network = Network()
        for models, devices, seed in paper_scale_instances():
            problem = noisy_problem(models, devices, seed)
            requests = [InferenceRequest.for_model(name, "jetson-a") for name in models]
            brute_placement, brute_objective = optimal_placement(
                problem, requests, network, solver="brute"
            )
            bnb_placement, bnb_objective = optimal_placement(
                problem, requests, network, solver="bnb"
            )
            assert bnb_objective == brute_objective, (models, devices, seed)
            assert bnb_placement.as_dict() == brute_placement.as_dict(), (
                models, devices, seed,
            )

    def test_matches_brute_force_multi_source_nonparallel(self):
        instance = synthetic_instance(5, 6, seed=2, n_requests=6)
        requests = list(instance.requests)
        for parallel in (True, False):
            brute_placement, brute_objective = optimal_placement(
                instance.problem, requests, instance.network,
                parallel=parallel, solver="brute",
            )
            bnb_placement, bnb_objective = optimal_placement(
                instance.problem, requests, instance.network,
                parallel=parallel, solver="bnb",
            )
            assert bnb_objective == brute_objective
            assert bnb_placement.as_dict() == brute_placement.as_dict()

    def test_solves_beyond_brute_force_cap(self):
        # 10 modules x 5 devices = 9.7M assignments: enumeration refuses,
        # branch-and-bound solves and never loses to greedy.
        instance = synthetic_instance(10, 5, seed=0)
        assert 5 ** 10 > MAX_ASSIGNMENTS
        with pytest.raises(PlacementError, match="branch_and_bound"):
            list(enumerate_placements(instance.problem))
        placement, objective = branch_and_bound_placement(
            instance.problem, list(instance.requests), instance.network
        )
        model = LatencyModel(instance.problem, instance.network)
        greedy_objective = model.objective(
            list(instance.requests), greedy_placement(instance.problem)
        )
        assert objective <= greedy_objective
        assert objective == model.objective(list(instance.requests), placement)

    def test_infeasible_instance_raises(self):
        problem = PlacementProblem.from_models(
            ["llava-v1.5-7b"], ["jetson-a", "jetson-b"]
        )
        request = InferenceRequest.for_model("llava-v1.5-7b", "jetson-a")
        with pytest.raises(PlacementError):
            branch_and_bound_placement(problem, [request])

    def test_requires_requests(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        with pytest.raises(PlacementError):
            branch_and_bound_placement(problem, [])

    def test_rejects_unknown_solver(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        with pytest.raises(ValueError):
            optimal_placement(problem, [request], solver="magic")

    def test_rejects_mismatched_shared_tensors(self):
        # A prebuilt tensor cache must match the call's problem, network,
        # and parallel flag — a silent override would change results.
        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        parallel_tensors = CostTensors(problem, network, parallel=True)
        for solver in ("bnb", "brute"):
            with pytest.raises(PlacementError, match="parallel"):
                optimal_placement(
                    problem, [request], network,
                    parallel=False, solver=solver, tensors=parallel_tensors,
                )
            with pytest.raises(PlacementError, match="network"):
                optimal_placement(
                    problem, [request], Network(),
                    solver=solver, tensors=parallel_tensors,
                )
        other = PlacementProblem.from_models(["imagebind"], edge_device_names())
        with pytest.raises(PlacementError, match="problem"):
            optimal_placement(
                other,
                [InferenceRequest.for_model("imagebind", "jetson-a")],
                network, tensors=parallel_tensors,
            )

    def test_rejects_stale_shared_tensors(self):
        from repro.profiles.communication import LinkProfile

        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        stale = CostTensors(problem, network, parallel=True)
        network.add_link(LinkProfile("laptop", "desktop", 1e9, 0.0001))
        with pytest.raises(PlacementError, match="stale"):
            optimal_placement(problem, [request], network, tensors=stale)

    def test_jittered_network_dispatches_to_scalar_brute(self):
        network = Network()
        network.set_jitter(lambda s, d: 2.0)  # deterministic jitter
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        with pytest.raises(PlacementError, match="jitter"):
            optimal_placement(problem, [request], network, solver="bnb")
        # auto falls back to brute force's scalar pricing, which honors the
        # jitter hook per transfer.
        auto_placement, auto_objective = optimal_placement(problem, [request], network)
        brute_placement, brute_objective = optimal_placement(
            problem, [request], network, solver="brute"
        )
        assert auto_objective == brute_objective
        assert auto_placement.as_dict() == brute_placement.as_dict()

    def test_matching_shared_tensors_accepted(self):
        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        model = LatencyModel(problem, network)
        shared_placement, shared_objective = optimal_placement(
            problem, [request], network, tensors=model.tensors
        )
        fresh_placement, fresh_objective = optimal_placement(problem, [request], network)
        assert shared_objective == fresh_objective
        assert shared_placement.as_dict() == fresh_placement.as_dict()


class TestMissingThroughputParity:
    def _instance_with_gap(self):
        # A device whose throughput table lacks the text-encoder kind: the
        # scalar path raises ConfigurationError when pricing it; the tensor
        # path must do the same instead of returning inf.
        from repro.core.catalog import get_model
        from repro.core.modules import ModuleKind
        from repro.profiles.devices import DeviceProfile, get_device_profile
        from repro.utils.units import GB, MB

        spec = get_model("clip-vit-b16")
        gapped = DeviceProfile(
            name="gapped",
            description="no text-encoder throughput entry",
            memory_bytes=int(8 * GB),
            throughput={
                (ModuleKind.VISION_ENCODER, "*"): 20.0,
                (ModuleKind.DISTANCE, "*"): 1000.0,
                (ModuleKind.CLASSIFIER, "*"): 1000.0,
            },
            load_throughput_bps=100.0 * MB,
        )
        base = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        problem = PlacementProblem(
            modules=base.modules,
            devices=base.devices + (gapped,),
            models=base.models,
        )
        from repro.core.placement.problem import Placement

        placement = Placement(
            {
                "clip-vit-b16-vision": ("desktop",),
                "clip-trf-38m": ("gapped",),
                "cosine-similarity": ("laptop",),
            }
        )
        request = InferenceRequest(model=spec, source="jetson-a")
        return problem, placement, request

    def test_tensor_objective_raises_like_scalar(self):
        from repro.utils.errors import ConfigurationError

        problem, placement, request = self._instance_with_gap()
        # The testbed network has no "gapped" node, so give it a link.
        from repro.profiles.communication import LinkProfile

        network = Network()
        network.add_link(LinkProfile("gapped", "pan-router", 1e9, 0.001))
        tensorized = LatencyModel(problem, network)
        scalar = LatencyModel(problem, network, use_tensors=False)
        with pytest.raises(ConfigurationError, match="throughput"):
            scalar.objective([request], placement)
        with pytest.raises(ConfigurationError, match="throughput"):
            tensorized.objective([request], placement)
        with pytest.raises(ConfigurationError, match="throughput"):
            tensorized.route(request, placement)


class TestEnumerationRewrite:
    def test_order_matches_itertools_product_reference(self):
        import itertools

        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        modules = list(problem.modules)
        device_names = [d.name for d in problem.devices]
        reference = []
        capacities = {d.name: d.memory_bytes for d in problem.devices}
        for combo in itertools.product(device_names, repeat=len(modules)):
            residual = dict(capacities)
            feasible = True
            for module, host in zip(modules, combo):
                residual[host] -= module.memory_bytes
                if residual[host] < 0:
                    feasible = False
                    break
            if feasible:
                reference.append(
                    {m.name: (h,) for m, h in zip(modules, combo)}
                )
        ours = [p.as_dict() for p in enumerate_placements(problem)]
        assert ours == reference

    def test_residual_vector_restored_between_yields(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        first = [p.as_dict() for p in enumerate_placements(problem)]
        second = [p.as_dict() for p in enumerate_placements(problem)]
        assert first == second


def _random_candidates(rng, n_members, pool, max_size=3):
    """Per-member sorted candidate sets drawn from ``pool`` — a small pool
    makes encoders collide on one device, so the LPT waits do the work."""
    largest = min(max_size, len(pool))
    return [
        sorted(
            int(d)
            for d in rng.choice(pool, size=rng.integers(1, largest + 1), replace=False)
        )
        for _ in range(n_members)
    ]


def _random_waits(rng, n_devices):
    """Per-device queue waits as Python floats, some zero, some ``inf``."""
    waits = []
    for _ in range(n_devices):
        draw = rng.random()
        if draw < 0.2:
            waits.append(0.0)
        elif draw < 0.35:
            waits.append(float("inf"))
        else:
            waits.append(float(rng.uniform(0.0, 2.0)))
    return waits


class TestBestHostsTable:
    """``RequestGroup.best_hosts`` (value table) vs ``best_hosts_scalar``
    (enumeration): value and chosen tuple compared with ``==``."""

    def _assert_matches(self, tensors, group, candidates, waits):
        fast = group.best_hosts(tensors, candidates, device_waits=waits)
        oracle = group.best_hosts_scalar(tensors, candidates, device_waits=waits)
        assert fast[0] == oracle[0], (candidates, waits, fast, oracle)
        assert fast[1] == oracle[1], (candidates, waits, fast, oracle)

    def _sweep(self, instance, parallel, trials, tag):
        tensors = CostTensors(instance.problem, instance.network, parallel=parallel)
        rng = rng_for("best-hosts-table", tag, parallel)
        n = tensors.n_devices
        for request in instance.requests:
            group = tensors.group(request.model, request.source)
            members = len(group.member_idx)
            # Every member pinned to one device: all encoders contend there.
            for dev in range(n):
                self._assert_matches(tensors, group, [[dev]] * members, None)
            for trial in range(trials):
                pool = rng.choice(n, size=min(n, int(rng.integers(2, 5))), replace=False)
                candidates = _random_candidates(rng, members, pool)
                waits = _random_waits(rng, n) if trial % 2 else None
                self._assert_matches(tensors, group, candidates, waits)

    def test_contention_on_one_and_two_slot_devices(self):
        instance = synthetic_instance(5, 8, seed=1, n_requests=6)
        slots = CostTensors(instance.problem, instance.network).slots
        assert {1, 2} <= set(slots)
        self._sweep(instance, parallel=True, trials=150, tag="5x8")

    def test_nonparallel_mode(self):
        instance = synthetic_instance(4, 6, seed=2, n_requests=4)
        self._sweep(instance, parallel=False, trials=150, tag="4x6-serial")

    def test_single_encoder_groups(self):
        instance = synthetic_instance(2, 6, seed=3, n_requests=4)
        for parallel in (True, False):
            self._sweep(instance, parallel=parallel, trials=60, tag="2x6")

    def test_paper_models(self):
        network = Network()
        for models, devices, seed in paper_scale_instances():
            problem = noisy_problem(models, devices, seed)
            tensors = CostTensors(problem, network)
            rng = rng_for("best-hosts-table-paper", *models, len(devices), seed)
            for name in models:
                for source in (devices[0], devices[-1]):
                    request = InferenceRequest.for_model(name, source)
                    group = tensors.group(request.model, source)
                    for trial in range(20):
                        candidates = _random_candidates(
                            rng, len(group.member_idx), range(tensors.n_devices)
                        )
                        waits = _random_waits(rng, tensors.n_devices) if trial % 2 else None
                        self._assert_matches(tensors, group, candidates, waits)

    def test_group_above_table_cap_enumerates(self):
        # 8 devices ** 6 members = 262,144 table entries: above the cap, so
        # best_hosts must take the enumeration path and build no table.
        instance = synthetic_instance(6, 8, seed=1, n_requests=2)
        tensors = CostTensors(instance.problem, instance.network)
        group = tensors.group(instance.requests[0].model, instance.requests[0].source)
        assert tensors.n_devices ** len(group.member_idx) > 1 << 16
        rng = rng_for("best-hosts-table", "above-cap")
        for trial in range(20):
            candidates = _random_candidates(
                rng, len(group.member_idx), range(tensors.n_devices), max_size=2
            )
            waits = _random_waits(rng, tensors.n_devices) if trial % 2 else None
            self._assert_matches(tensors, group, candidates, waits)
        assert group._table is None


class TestIncrementalObjective:
    def test_move_matches_full_recompute(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16", "imagebind"], edge_device_names(), 5)
        model = LatencyModel(problem, network)
        tensors = model.tensors
        requests = [
            InferenceRequest.for_model(name, source)
            for name in ("clip-vit-b16", "imagebind")
            for source in ("jetson-a", "desktop")
        ]
        placement = greedy_placement(problem)
        tracker = IncrementalObjective(tensors, requests, placement)
        assert tracker.objective == model.objective(requests, placement)

        rng = rng_for("incremental-moves", 0)
        module_names = [m.name for m in problem.modules]
        for _ in range(20):
            module = module_names[int(rng.integers(len(module_names)))]
            device = problem.devices[int(rng.integers(len(problem.devices)))].name
            moved = tracker.move(module, device)
            assert moved == model.objective(requests, tracker.placement())

    def test_delta_restores_state(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], edge_device_names(), 7)
        model = LatencyModel(problem, network)
        requests = [InferenceRequest.for_model("clip-vit-b16", "jetson-a")]
        placement = greedy_placement(problem)
        tracker = IncrementalObjective(model.tensors, requests, placement)
        before = tracker.objective
        delta = tracker.delta("clip-trf-38m", "desktop")
        assert tracker.objective == before
        moved = tracker.move("clip-trf-38m", "desktop")
        assert moved - before == pytest.approx(delta)


class TestCaching:
    def test_problem_compute_seconds_cached(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        module = problem.modules[0]
        device = problem.devices[0]
        first = problem.compute_seconds(module, device)
        assert problem.compute_seconds(module, device) == first
        assert (module.name, device.name) in problem._compute_seconds_cache

    def test_controller_reuses_model_for_equal_pool(self):
        from repro.core.placement.adaptive import AdaptivePlacementController

        network = Network()
        controller = AdaptivePlacementController(network)
        problem_a = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        problem_b = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model_a = controller.latency_model_for(problem_a)
        model_b = controller.latency_model_for(problem_b)
        assert model_a is model_b  # equal pools share tensors
        smaller = PlacementProblem.from_models(
            ["clip-vit-b16"], ["desktop", "laptop", "jetson-a"]
        )
        assert controller.latency_model_for(smaller) is not model_a

    def test_controller_rebuilds_when_pool_content_differs(self):
        from repro.core.placement.adaptive import AdaptivePlacementController

        network = Network()
        controller = AdaptivePlacementController(network)
        problem_a = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model_a = controller.latency_model_for(problem_a)
        noisy = noisy_problem(["clip-vit-b16"], edge_device_names(), 9)
        model_b = controller.latency_model_for(noisy)
        assert model_b is not model_a  # same names, different noise -> rebuild
