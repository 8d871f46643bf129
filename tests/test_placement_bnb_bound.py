"""The single-copy branch-and-bound's per-candidate bound: oracle and pins.

``_GroupBound.bound_vector`` prices an unassigned encoder path with a
*join floor*: the cheapest device that fits it, charged the device's
slot contention if it joined there.  The floor must stay admissible —
never above the true latency of any completion — or branch-and-bound
loses brute force's optimum.  These tests hold the bound between two
oracles: the bound before join floors (``_reference_bound_vector``, kept
verbatim; the new bound may only be tighter) and the exhaustive minimum
over every completion (which the bound may never exceed).
"""

import gc
import itertools
import weakref

import numpy as np

from repro.core.placement.bnb import BnBStats, _Search, branch_and_bound_placement
from repro.core.placement.optimal import optimal_placement
from repro.core.placement.tensors import CongestionModel, CostTensors
from repro.experiments.scaling import synthetic_instance
from repro.utils.seeding import rng_for

from conftest import with_slots


# The bound as it stood before join floors, kept verbatim as the oracle the
# new bound may only tighten (``self`` is a ``_GroupBound``).
def _reference_bound_vector(self, assign: np.ndarray, module_index: int) -> np.ndarray:
    """Bound per candidate device if ``module_index`` were placed there.

    ``module_index`` must be used by this group (as an encoder, the
    head, or both roles at once).  When placing it *completes* the
    group, the vector holds exact (wait-inclusive) latencies.
    """
    if all(assign[i] >= 0 for i in self.members if i != module_index):
        return self._exact_vector(assign, module_index)
    nh = int(assign[self.head_idx])
    head_here = module_index == self.head_idx
    terms: List[object] = []  # scalars and [N] vectors, in path order
    for e, idx in enumerate(self.encoder_idx):
        ne = int(assign[idx])
        if idx == module_index:
            # This path's encoder is the module being placed.
            if head_here:
                # Module doubles as the head: both endpoints co-locate.
                terms.append(self.A[e] + np.diagonal(self.group.out[e]))
            elif nh >= 0:
                terms.append(self.A[e] + self.group.out[e][:, nh])
            else:
                terms.append(self.enc_assigned[e])
        elif head_here:
            # The head is being placed; encoder e is fixed or free.
            if ne >= 0:
                terms.append(self.A[e][ne] + self.group.out[e][ne, :])
            else:
                terms.append(self.head_assigned[e])
        else:
            # Path untouched by this move: same scalar as lower_bound.
            if ne >= 0:
                if nh >= 0:
                    terms.append(self.A[e][ne] + self.group.out[e][ne, nh])
                else:
                    terms.append(self.enc_assigned[e][ne])
            elif nh >= 0:
                terms.append(self.head_assigned[e][nh])
            else:
                terms.append(self.free[e])
    if not terms:
        encoder = 0.0
    elif self.parallel:
        encoder = terms[0]
        for term in terms[1:]:
            encoder = np.maximum(encoder, term)
    else:
        encoder = 0.0
        for term in terms:
            encoder = encoder + term
    if terms and self.parallel:
        # Base contention (moving module still unassigned) is admissible
        # for every candidate; candidates that oversubscribe a device's
        # slots with the newcomer get the tightened per-device term.
        base = self._contention(assign, -1 if head_here else nh)
        if base > 0.0:
            encoder = np.maximum(encoder, base)
        if not head_here:
            encoder = np.asarray(encoder, dtype=np.float64) + np.zeros(len(self.head_comp))
            loads, members, unassigned = self._contention_state(assign)
            e0 = next(
                e for e in range(len(self.encoder_idx))
                if self.encoder_idx[e] == module_index
            )
            joiners = [e for e in unassigned if e != e0]
            for n in range(len(self.head_comp)):
                here = members.get(n, ())
                if len(here) + 1 <= self.tensors.slots[n]:
                    continue
                load = loads.get(n, 0.0) + float(self.group.enc_comp[e0][n])
                term = self._contention_term(n, list(here) + [e0] + joiners, load, nh)
                if term > encoder[n]:
                    encoder[n] = term
    head = self.head_comp if head_here else (self.head_comp[nh] if nh >= 0 else self.head_min)
    return np.broadcast_to(
        np.asarray(encoder + head, dtype=np.float64), self.head_comp.shape
    ).copy()


def branching_orders(search, tensors):
    """The search's two module orders: the value phase's (heads first,
    then encoders by descending best-case path cost) and the tie-break
    phase's (sorted module names)."""
    heads = {group.head_idx for group in search.groups}
    criticality = [0.0] * search.n_modules
    for bound in search.bounds:
        for e, idx in enumerate(bound.encoder_idx):
            criticality[idx] = max(criticality[idx], bound.free[e])
    value = sorted(
        range(search.n_modules),
        key=lambda m: (
            0 if search.groups_using[m] else 1,
            0 if m in heads else 1,
            -criticality[m],
            -search.memory[m],
            tensors.module_names[m],
        ),
    )
    tie = sorted(range(search.n_modules), key=lambda m: tensors.module_names[m])
    return value, tie


def exact_tables(tensors, groups):
    """Per group: ``total_for_assignment`` for every device tuple of its
    member modules (one axis per ``member_idx`` entry)."""
    tables = []
    for group in groups:
        members = group.member_idx
        table = np.empty((tensors.n_devices,) * len(members))
        assign = np.full(tensors.n_modules, -1, dtype=np.int64)
        for hosts in itertools.product(range(tensors.n_devices), repeat=len(members)):
            assign[members] = hosts
            table[hosts] = group.total_for_assignment(tensors, assign)
        tables.append(table)
    return tables


def completion_minimum(tensors, group, table, assign, module_index):
    """Per candidate device ``n``: the group's least exact latency over
    every completion with ``module_index`` on ``n`` and each other
    unassigned member on a device whose total memory fits it."""
    minima = np.empty(tensors.n_devices)
    for n in range(tensors.n_devices):
        axes = []
        for idx in group.member_idx:
            if idx == module_index:
                axes.append([n])
            elif assign[idx] >= 0:
                axes.append([int(assign[idx])])
            else:
                axes.append(list(np.flatnonzero(tensors.fits[idx])))
        minima[n] = table[np.ix_(*axes)].min()
    return minima


#: Small instances: (modules, devices, seed, requests).  Three modules
#: leave too few paths for a floor to bite; they pin the edge cases.
ORACLE_INSTANCES = [(3, 3, 0, 1), (3, 5, 1, 6)] + [
    (n_modules, n_devices, seed, 1 + (n_modules + n_devices + seed) % 6)
    for n_modules, n_devices in ((4, 4), (4, 5), (5, 4), (5, 5))
    for seed in range(4)
]


def sweep_bounds(parallel, trials=6, exact=True):
    """Yield (instance key, new vector, reference vector, exact minima or
    None) for random partial assignments along both branching orders."""
    for n_modules, n_devices, seed, n_requests in ORACLE_INSTANCES:
        two_slot_every = 2 + seed % 2
        instance = with_slots(
            synthetic_instance(n_modules, n_devices, seed=seed, n_requests=n_requests),
            two_slot_every,
        )
        tensors = CostTensors(instance.problem, instance.network, parallel=parallel)
        assert set(tensors.slots) == {1, 2}
        search = _Search(tensors, list(instance.requests), BnBStats())
        tables = exact_tables(tensors, search.groups) if exact else None
        rng = rng_for("bnb-join-floor", n_modules, n_devices, seed, parallel)
        key = (n_modules, n_devices, seed, n_requests)
        # The devices with the cheapest encoder paths: crowding them is
        # what a floor must charge for.
        cheapest = np.argsort(search.bounds[0].A.min(axis=0), kind="stable")[:2]
        for order in branching_orders(search, tensors):
            for depth, m in enumerate(order):
                for trial in range(trials):
                    # Prefixes drawn from a two-device pool pile encoders up.
                    pool = cheapest if trial % 2 else rng.choice(
                        tensors.n_devices, size=2, replace=False
                    )
                    assign = np.full(tensors.n_modules, -1, dtype=np.int64)
                    for placed in order[:depth]:
                        fitting = np.flatnonzero(tensors.fits[placed])
                        crowded = np.intersect1d(fitting, pool)
                        assign[placed] = rng.choice(crowded if len(crowded) else fitting)
                    for g in search.groups_using[m]:
                        bound = search.bounds[g]
                        minima = None
                        if exact:
                            minima = completion_minimum(
                                tensors, search.groups[g], tables[g], assign, m
                            )
                        yield (
                            key,
                            bound.bound_vector(assign, m),
                            _reference_bound_vector(bound, assign, m),
                            minima,
                        )


#: Case count of the parallel sweep and how many of its vectors the join
#: floor makes strictly tighter than the reference somewhere.
PINNED_CASES = 2964
PINNED_TIGHTER = 36

#: Contention-heavy brute-force grid: (modules, devices, seed).
CONTENTION_GRID = [(4, 5, 0), (5, 4, 1), (5, 5, 2), (6, 4, 3)]


class TestJoinFloorBound:
    def test_admissible_and_never_looser_than_reference(self):
        cases = tighter = 0
        for key, new, reference, exact in sweep_bounds(parallel=True):
            assert (new >= reference).all(), (key, new, reference)
            assert (new <= exact).all(), (key, new, exact)
            cases += 1
            tighter += bool((new > reference).any())
        # The grid must exercise the floor, not pass vacuously.
        assert cases == PINNED_CASES
        assert tighter >= PINNED_TIGHTER

    def test_serial_mode_equals_reference(self):
        for key, new, reference, _ in sweep_bounds(parallel=False, exact=False):
            assert np.array_equal(new, reference), (key, new, reference)


#: ``synthetic_instance(10, 24, seed=1, n_requests=4)``: the solve-exact
#: benchmark instance and its brute-force-identical optimum.
PINNED_OBJECTIVE = 2.43586520116746
PINNED_PLACEMENT = {
    "enc-00": ("dev-00",),
    "enc-01": ("dev-10",),
    "enc-02": ("dev-02",),
    "enc-03": ("dev-01",),
    "enc-04": ("dev-08",),
    "enc-05": ("dev-11",),
    "enc-06": ("dev-01",),
    "enc-07": ("dev-00",),
    "enc-08": ("dev-11",),
    "synth-head": ("dev-00",),
}


class TestSingleCopySearch:
    def test_pinned_10x24_instance(self):
        instance = synthetic_instance(10, 24, seed=1, n_requests=4)
        stats = BnBStats()
        placement, objective = branch_and_bound_placement(
            instance.problem, list(instance.requests), instance.network, stats=stats
        )
        assert objective == PINNED_OBJECTIVE
        assert placement.as_dict() == PINNED_PLACEMENT
        # Without join floors this search visits 12,213 nodes.
        assert stats.nodes <= 200, stats

    def test_search_frees_tensors_on_return(self):
        # As for the replica search: the recursive closures must not keep
        # the search (and the tensors) alive until the next cyclic garbage
        # collection, or peak RSS climbs with the number of solves.
        instance = synthetic_instance(4, 6, seed=1, n_requests=4)
        tensors = CostTensors(instance.problem, instance.network)
        ref = weakref.ref(tensors)
        enabled = gc.isenabled()
        gc.disable()
        try:
            branch_and_bound_placement(
                instance.problem, list(instance.requests), instance.network,
                tensors=tensors,
            )
            del tensors
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def _assert_bnb_matches_brute(self, instance, **kwargs):
        requests = list(instance.requests)
        bnb_p, bnb_o = optimal_placement(
            instance.problem, requests, instance.network, solver="bnb", **kwargs
        )
        brute_p, brute_o = optimal_placement(
            instance.problem, requests, instance.network, solver="brute", **kwargs
        )
        assert bnb_o == brute_o, kwargs
        assert bnb_p.as_dict() == brute_p.as_dict(), kwargs

    def test_contention_grid_matches_brute(self):
        for n_modules, n_devices, seed in CONTENTION_GRID:
            instance = with_slots(
                synthetic_instance(n_modules, n_devices, seed=seed, n_requests=4)
            )
            congestion = CongestionModel({instance.model.name: 0.5 + 0.25 * seed})
            self._assert_bnb_matches_brute(instance)
            self._assert_bnb_matches_brute(instance, congestion=congestion)
            self._assert_bnb_matches_brute(instance, parallel=False)
