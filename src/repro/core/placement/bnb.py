"""Exact branch-and-bound placement — brute force's result beyond its scale.

The paper's "Upper" baseline enumerates all ``N^M`` single-copy assignments
(fine at 4 modules x 5 devices = 625, hopeless at 10 x 32 ≈ 10^15).  This
solver searches the same space with an admissible lower bound and residual
memory pruning, and returns **the identical placement and objective** as
:func:`~repro.core.placement.optimal.optimal_placement`'s brute force —
including its deterministic tie-break toward the lexicographically smallest
assignment.

Bound (per request class, fanned out in request order):

- an *assigned* encoder path costs exactly ``in + compute + out`` (its true
  cost minus the non-negative same-device queue wait);
- an *unassigned* encoder path is lower-bounded by the cheapest such cost
  over every device whose total memory fits the module (and the cheapest
  head host when the head is also unassigned);
- the head costs its compute time, minimized over fitting devices while
  unassigned; the parallel encoder stage takes the max over path bounds;
- slot contention: a device whose assigned encoders overflow its
  ``parallel_slots`` charges at least its load over its slots plus the
  cheapest transfers of any path that may still finish there; while an
  encoder is being placed, each other unassigned path pays, on its
  cheapest fitting device, that device's contention if it joined it (the
  *join floor*).

Every term is a min/max/sum over the *same precomputed floats*
(:mod:`repro.core.placement.tensors`) the exact objective uses, and
IEEE-754 addition/min/max are monotonic, so the bound never exceeds the
true objective of any completion.

The search runs in two phases because Eq. 2's max-over-paths creates large
equal-objective plateaus (moving a non-bottleneck encoder changes nothing):

1. **Value phase** — heads-first, best-bound-first DFS seeded with the
   greedy incumbent, pruning ``bound >= best``: a subtree whose bound ties
   the incumbent cannot *strictly* improve it, so plateaus die instantly.
   Yields the optimal objective ``V``.
2. **Tie-break phase** — DFS in the brute-force tie-key order (modules by
   sorted name, devices by sorted name), pruning ``bound > V``, stopping at
   the **first** leaf whose objective equals ``V`` — by construction the
   lexicographically-smallest optimal assignment, i.e. brute force's pick.

The module also hosts :func:`energy_branch_and_bound` — the **energy**
counterpart (paper Sec. VII): minimum total joules subject to the latency
objective staying within a budget.  Energy is additive (no max-plateaus),
so it runs a single phase: a budget-constrained energy-descent incumbent,
strict ``bound > best`` pruning with the lexicographic tie-key compared at
leaves, and the latency budget enforced through the same admissible
latency bounds — again bit-identical to brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.tensors import (
    CongestionModel,
    CostTensors,
    EnergyRequestGroup,
    EnergyTensors,
    IncrementalEnergy,
    IncrementalObjective,
    RequestGroup,
    WaitTensors,
    _lpt_waits,
)
from repro.utils.errors import PlacementError


class _GroupBound:
    """Admissible per-(model, source) latency bounds under partial assignment."""

    def __init__(self, tensors: CostTensors, group: RequestGroup) -> None:
        self.group = group
        self.tensors = tensors
        self.parallel = tensors.parallel
        self.encoder_idx = group.encoder_idx
        self.head_idx = group.head_idx
        self.members = tuple(set(group.encoder_idx) | {group.head_idx})
        head_fit = tensors.fits[group.head_idx]
        if not head_fit.any():
            raise PlacementError(
                f"module {group.head_name!r} fits on no device; "
                "apply compression or intra-module partitioning first (paper Sec. V-B)"
            )
        self.head_comp = group.head_comp
        self.head_min = float(np.min(group.head_comp[head_fit]))
        for e, idx in enumerate(group.encoder_idx):
            if not tensors.fits[idx].any():
                raise PlacementError(
                    f"module {group.encoder_names[e]!r} fits on no device; "
                    "apply compression or intra-module partitioning first (paper Sec. V-B)"
                )
        # Per-path stacks, row e = encoder path e, column = device:
        #   A[e][ne]          in_comm + compute with the encoder on ne
        #   enc_assigned[e]   A + (cheapest out over fitting head hosts)
        #   head_assigned[e]  cheapest (A + out[:, nh]) over fitting encoder hosts
        #   free[e]           cheapest over both endpoints
        n_paths, n_devices = len(group.encoder_idx), len(group.head_comp)
        self.encoder_rows = np.array(group.encoder_idx, dtype=np.int64)
        self.fit = tensors.fits[self.encoder_rows]
        self.in_comm = np.array(group.in_comm, dtype=np.float64).reshape(n_paths, n_devices)
        self.enc_comp = np.array(group.enc_comp, dtype=np.float64).reshape(n_paths, n_devices)
        out = np.array(group.out, dtype=np.float64).reshape(n_paths, n_devices, n_devices)
        self.A = self.in_comm + self.enc_comp
        self.out_min = np.min(out[:, :, head_fit], axis=2)
        self.enc_assigned = self.A + self.out_min
        with_head = self.A[:, :, None] + out  # [e, encoder host, head host]
        self.head_assigned = np.min(np.where(self.fit[:, :, None], with_head, np.inf), axis=1)
        self.free: List[float] = [
            float(np.min(self.enc_assigned[e][self.fit[e]])) for e in range(n_paths)
        ]
        # Per head host nh (index -1: head unassigned), each path's cost
        # on every encoder host and the out-transfer floor it pays there.
        self.paths = np.concatenate([with_head.transpose(2, 0, 1), self.enc_assigned[None]])
        self.outs = np.concatenate([out.transpose(2, 0, 1), self.out_min[None]])
        # Contention rows: each path's compute joining a device, then none.
        self.join_comp = np.vstack([self.enc_comp, np.zeros(n_devices)])
        self.slots = np.array(tensors.slots, dtype=np.int64)
        self.devices = np.arange(n_devices)
        self.rows_of = {
            idx: [e for e, i in enumerate(group.encoder_idx) if i == idx]
            for idx in group.encoder_idx
        }

    # ------------------------------------------------------------------
    # Contention: Eq. 2's max is blind to ``parallel_slots`` until queue
    # waits appear, so co-locating encoders on the fastest device looks
    # free to the per-path bound.  For any device ``n`` hosting assigned
    # encoder set S_n, the LPT makespan of the final set S*_n ⊇ S_n is at
    # least ``sum(compute(S_n)) / slots_n``, and the last-finishing path
    # also pays its input and output transfers — at least the minimum over
    # S_n plus every still-unassigned encoder (any of which may join n).
    # The slack factor absorbs float-rounding differences (the true stage
    # is accumulated in a different operation order); it is ~1e5 times any
    # accumulated ulp error yet far below meaningful latency differences.
    # ------------------------------------------------------------------
    _CONTENTION_SLACK = 1.0 - 1e-9

    def _contention_state(self, assign: np.ndarray):
        """Assigned per-device loads/members and the unassigned path list."""
        loads: Dict[int, float] = {}
        members: Dict[int, List[int]] = {}
        unassigned: List[int] = []
        for e, idx in enumerate(self.encoder_idx):
            ne = int(assign[idx])
            if ne >= 0:
                loads[ne] = loads.get(ne, 0.0) + float(self.group.enc_comp[e][ne])
                members.setdefault(ne, []).append(e)
            else:
                unassigned.append(e)
        return loads, members, unassigned

    def _contention_term(self, n: int, pool: List[int], load: float, nh: int) -> float:
        """Admissible stage bound from slot pressure on device ``n``."""
        in_min = min(float(self.group.in_comm[e][n]) for e in pool)
        if nh >= 0:
            out_floor = min(float(self.group.out[e][n, nh]) for e in pool)
        else:
            out_floor = min(float(self.out_min[e][n]) for e in pool)
        return (in_min + load / self.tensors.slots[n] + out_floor) * self._CONTENTION_SLACK

    def _contention(self, assign: np.ndarray, nh: int) -> float:
        """Max contention term over devices whose slots are oversubscribed."""
        if not self.parallel:
            return 0.0
        loads, members, unassigned = self._contention_state(assign)
        best = 0.0
        for n, here in members.items():
            if len(here) <= self.tensors.slots[n]:
                continue
            term = self._contention_term(n, here + unassigned, loads[n], nh)
            if term > best:
                best = term
        return best

    # ------------------------------------------------------------------
    def lower_bound(self, assign: np.ndarray) -> float:
        """Scalar bound for the current partial assignment.

        **Exact** (queue waits included) once every member module is
        assigned — at that point the bound equals the group's true latency,
        so the value phase's ``>=`` prune filters deep nodes exactly.
        """
        if all(assign[i] >= 0 for i in self.members):
            return float(self.group.total_for_assignment(self.tensors, assign))
        nh = int(assign[self.head_idx])
        terms = []
        for e, idx in enumerate(self.encoder_idx):
            ne = int(assign[idx])
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
            encoder = max(terms)
            contention = self._contention(assign, nh)
            if contention > encoder:
                encoder = contention
        else:
            encoder = 0.0
            for term in terms:
                encoder = encoder + term
        head = self.head_comp[nh] if nh >= 0 else self.head_min
        return float(encoder + head)

    def bound_vector(self, assign: np.ndarray, module_index: int) -> np.ndarray:
        """Bound per candidate device if ``module_index`` were placed there.

        ``module_index`` must be used by this group (as an encoder, the
        head, or both roles at once).  When placing it *completes* the
        group, the vector holds exact (wait-inclusive) latencies.
        """
        if all(assign[i] >= 0 for i in self.members if i != module_index):
            return self._exact_vector(assign, module_index)
        nh = int(assign[self.head_idx])
        head_here = module_index == self.head_idx
        head = self.head_comp if head_here else (self.head_comp[nh] if nh >= 0 else self.head_min)
        if self.parallel and not head_here:
            return self._encoder_stage_vector(assign, module_index, nh) + head
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
            # Contention with the head's endpoint still open is admissible
            # for every head candidate.
            base = self._contention(assign, -1)
            if base > 0.0:
                encoder = np.maximum(encoder, base)
        else:
            encoder = 0.0
            for term in terms:
                encoder = encoder + term
        return np.broadcast_to(
            np.asarray(encoder + head, dtype=np.float64), self.head_comp.shape
        ).copy()

    def _encoder_stage_vector(self, assign: np.ndarray, module_index: int, nh: int) -> np.ndarray:
        """Parallel encoder-stage bound per candidate device for placing the
        encoder ``module_index`` (the head, if placed, sits on ``nh``).

        Each device's contention term is priced once, for its pool (assigned
        members plus every unassigned path), under three loads: the assigned
        load alone (base contention, admissible for every candidate), plus
        the moving encoder's compute (its per-candidate term), plus each
        other unassigned path's compute (that path's *join floor*).

        The join floor bounds an unassigned path ``e`` by the cheapest
        device ``n`` that fits it of ``max(path_e(n), join_e(n))``: every
        completion puts ``e`` on some fitting ``n``, where ``e`` pays at
        least its transfer + compute path and, when ``n``'s slots overflow,
        the makespan of a pool that only shrinks and a load that only grows
        as the search descends.  Every term is a min/max over the floats
        :meth:`lower_bound` and :meth:`_contention_term` use.
        """
        hosts = assign[self.encoder_rows]
        on = hosts[:, None] == self.devices
        unplaced = hosts < 0
        pool = on | unplaced[:, None]
        path, out = self.paths[nh], self.outs[nh]
        counts = on.sum(axis=0)
        # accumulate, not sum: path-order addition, as _contention_state does.
        loads = np.add.accumulate(np.where(on, self.enc_comp, 0.0), axis=0)[-1]
        in_min = np.where(pool, self.in_comm, np.inf).min(axis=0)
        out_floor = np.where(pool, out, np.inf).min(axis=0)
        terms = (in_min + (loads + self.join_comp) / self.slots + out_floor) * self._CONTENTION_SLACK
        base = np.where(counts > self.slots, terms[-1], 0.0).max()
        joined = np.maximum(path, np.where(counts + 1 > self.slots, terms[:-1], 0.0))
        rows = self.rows_of[module_index]
        unplaced[rows] = False
        floors = np.where(self.fit, joined, np.inf).min(axis=1)
        stage = max(
            base,
            np.where(on, path, 0.0).max(),
            np.where(unplaced, floors, 0.0).max(),
        )
        return np.maximum(joined[rows].max(axis=0), stage)

    def _exact_vector(self, assign: np.ndarray, module_index: int) -> np.ndarray:
        """True group latency per candidate device for the last free member.

        Queue waits are per-device: placing the last module on ``n`` can
        only change waits *on* ``n``, so the LPT recomputation is confined
        to candidates that would actually exceed their slots; every other
        entry is pure array math over the precomputed tensors (and uses the
        same float-operation order, so entries stay bit-exact).
        """
        group, tensors = self.group, self.tensors
        n_devices = len(self.head_comp)
        n_encoders = len(self.encoder_idx)
        moving = [e for e in range(n_encoders) if self.encoder_idx[e] == module_index]
        head_moving = self.head_idx == module_index

        if head_moving and moving:  # dual-role module: rare, go scalar
            fixed_enc = [int(assign[i]) for i in self.encoder_idx]
            values = np.empty(n_devices, dtype=np.float64)
            for n in range(n_devices):
                hosts = [n if e in moving else fixed_enc[e] for e in range(n_encoders)]
                values[n] = group.total(tensors, hosts, n)
            return values

        if head_moving:
            # Encoder hosts (hence waits) are fixed; only out_comm varies.
            hosts = [int(assign[i]) for i in self.encoder_idx]
            comps = [group.enc_comp[e][hosts[e]] for e in range(n_encoders)]
            if self.parallel:
                waits = _lpt_waits(hosts, comps, tensors.slots)
            else:
                waits = [0.0] * n_encoders
            stage: object = 0.0
            path_vectors = [
                (group.in_comm[e][hosts[e]] + waits[e] + comps[e])
                + group.out[e][hosts[e], :]
                for e in range(n_encoders)
            ]
            if self.parallel:
                stage = path_vectors[0]
                for vector in path_vectors[1:]:
                    stage = np.maximum(stage, vector)
            else:
                for vector in path_vectors:
                    stage = stage + vector
            return stage + self.head_comp

        # One encoder is moving; the head and all other encoders are fixed.
        e0 = moving[0]
        nh = int(assign[self.head_idx])
        hosts = [int(assign[self.encoder_idx[e]]) if e != e0 else -1 for e in range(n_encoders)]
        others = [e for e in range(n_encoders) if e != e0]
        if self.parallel:
            counts: Dict[int, int] = {}
            for e in others:
                counts[hosts[e]] = counts.get(hosts[e], 0) + 1
            base_waits = _lpt_waits(
                [hosts[e] for e in others],
                [group.enc_comp[e][hosts[e]] for e in others],
                self.tensors.slots,
            )
            waits = [0.0] * n_encoders
            for pos, e in enumerate(others):
                waits[e] = base_waits[pos]
        else:
            counts = {}
            waits = [0.0] * n_encoders
        fixed_totals = [
            group.in_comm[e][hosts[e]] + waits[e] + group.enc_comp[e][hosts[e]]
            + group.out[e][hosts[e], nh]
            for e in others
        ]
        moving_vector = (group.in_comm[e0] + group.enc_comp[e0]) + group.out[e0][:, nh]
        if self.parallel:
            stage = moving_vector
            for value in fixed_totals:
                stage = np.maximum(stage, value)
        else:
            stage = 0.0
            for e in range(n_encoders):
                stage = stage + (moving_vector if e == e0 else fixed_totals[others.index(e)])
        values = np.asarray(stage + self.head_comp[nh], dtype=np.float64).copy()
        if self.parallel:
            # Candidates where the newcomer overflows the device's slots
            # need the true LPT schedule (waits change on that device only).
            for n in range(n_devices):
                if counts.get(n, 0) + 1 > self.tensors.slots[n]:
                    full_hosts = [n if e == e0 else hosts[e] for e in range(n_encoders)]
                    values[n] = group.total(self.tensors, full_hosts, nh)
        return values


@dataclass
class BnBStats:
    """Search accounting (exposed for the scaling benchmarks)."""

    nodes: int = 0
    leaves: int = 0
    pruned: int = 0




class _WaitState:
    """Incremental queue-wait bookkeeping for the congestion-aware search.

    Maintains canonical partial load sums over *assigned* members —
    utilization ``u[n]`` and residual ``r[n]`` per device — plus
    ``vis[n]``: how many per-request member waits are already charged to
    device ``n``.  Per-module candidate deltas are precomputed:
    ``du[m, n]`` / ``dr[m, n]`` are the single-copy load every model using
    module ``m`` would add to device ``n``.

    The wait surcharge bound for "module ``m`` → device ``n``" re-prices
    only device ``n`` at its increased load and charges the module's
    request visits there; all other devices keep their current (partial)
    waits.  In real arithmetic that never exceeds the final objective's
    total wait surcharge — waits are monotone in load, and unassigned
    members only add load and visits.  Floating-point evaluation reorders
    the canonical sums, so the whole term is scaled by ``_SLACK``
    (mirroring ``_GroupBound._CONTENTION_SLACK``): the ~1e-16-relative
    reordering error is far below the 1e-9 margin.  Leaves are always
    re-priced exactly through ``WaitTensors.assignment_objective``.
    """

    _SLACK = 1.0 - 1e-9

    def __init__(
        self,
        wait: WaitTensors,
        requests: Sequence[InferenceRequest],
        groups: Sequence[RequestGroup],
        group_of_request: Sequence[int],
    ) -> None:
        tensors = wait.tensors
        self.wait = wait
        n_modules = tensors.n_modules
        n_devices = tensors.n_devices
        self.du = np.zeros((n_modules, n_devices), dtype=np.float64)
        self.dr = np.zeros((n_modules, n_devices), dtype=np.float64)
        for model, lam, members, comp in wait.entries(requests):
            if lam == 0.0:
                continue
            for m in members:
                row = comp[m]
                load = lam * row
                self.du[m] += load
                self.dr[m] += load * row
        self.wreq = np.zeros(n_modules, dtype=np.float64)
        for g in group_of_request:
            for idx in groups[g].member_idx:
                self.wreq[idx] += 1.0
        self.u = np.zeros(n_devices, dtype=np.float64)
        self.r = np.zeros(n_devices, dtype=np.float64)
        self.vis = np.zeros(n_devices, dtype=np.float64)
        self.slots = np.array(tensors.slots, dtype=np.float64)
        self.rho_max = wait.congestion.rho_max

    def _waits(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        rho = np.minimum(u / self.slots, self.rho_max)
        return (r / self.slots) / (2.0 * (1.0 - rho))

    def bound_vector(self, m: int) -> np.ndarray:
        """Admissible wait-surcharge bound per candidate device for ``m``."""
        waits = self._waits(self.u, self.r)
        charged = self.vis * waits
        base = float(charged.sum())
        new_waits = self._waits(self.u + self.du[m], self.r + self.dr[m])
        vec = base - charged + (self.vis + self.wreq[m]) * new_waits
        return vec * self._SLACK

    def descend(self, m: int, n: int) -> None:
        self.u[n] += self.du[m, n]
        self.r[n] += self.dr[m, n]
        self.vis[n] += self.wreq[m]

    def ascend(self, m: int, n: int) -> None:
        self.vis[n] -= self.wreq[m]
        self.r[n] -= self.dr[m, n]
        self.u[n] -= self.du[m, n]


class _Search:
    """Shared state for both phases of the branch-and-bound."""

    def __init__(
        self,
        tensors: CostTensors,
        requests: Sequence[InferenceRequest],
        stats: BnBStats,
        congestion: Optional[CongestionModel] = None,
    ) -> None:
        self.tensors = tensors
        self.stats = stats
        self.requests = list(requests)
        self.n_modules = tensors.n_modules
        self.n_devices = tensors.n_devices
        self.memory = [int(b) for b in tensors.memory]
        self.residual = [int(b) for b in tensors.capacity]
        self.assign = np.full(self.n_modules, -1, dtype=np.int64)

        # Request-class bookkeeping: price each (model, source) class once.
        self.groups: List[RequestGroup] = []
        self.bounds: List[_GroupBound] = []
        self.group_of_request: List[int] = []
        index_of: Dict[Tuple[int, str], int] = {}
        for request in requests:
            key = (id(request.model), request.source)
            if key not in index_of:
                index_of[key] = len(self.groups)
                group = tensors.group(request.model, request.source)
                self.groups.append(group)
                self.bounds.append(_GroupBound(tensors, group))
            self.group_of_request.append(index_of[key])
        self.groups_using: List[List[int]] = [[] for _ in range(self.n_modules)]
        for g, group in enumerate(self.groups):
            for idx in set(group.encoder_idx) | {group.head_idx}:
                self.groups_using[idx].append(g)
        self.group_lb = [bound.lower_bound(self.assign) for bound in self.bounds]
        if congestion is not None:
            self.wait_tensors: Optional[WaitTensors] = WaitTensors(tensors, congestion)
            self.wait: Optional[_WaitState] = _WaitState(
                self.wait_tensors, self.requests, self.groups, self.group_of_request
            )
        else:
            self.wait_tensors = None
            self.wait = None

    # ------------------------------------------------------------------
    def leaf_objective(self) -> float:
        """Exact objective of the full assignment (request-order summation,
        bit-identical to ``CostTensors.objective`` — or, queue-aware, to
        ``WaitTensors.assignment_objective`` — on the same placement)."""
        if self.wait_tensors is not None:
            return self.wait_tensors.assignment_objective(self.requests, self.assign)
        total = 0.0
        cache: List[Optional[float]] = [None] * len(self.groups)
        for g in self.group_of_request:
            value = cache[g]
            if value is None:
                value = self.groups[g].total_for_assignment(self.tensors, self.assign)
                cache[g] = value
            total = total + value
        return float(total)

    def node_bounds(self, m: int) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Per-device total bound if module ``m`` went to each device."""
        affected = self.groups_using[m]
        per_group: Dict[int, np.ndarray] = {
            g: self.bounds[g].bound_vector(self.assign, m) for g in affected
        }
        total = np.zeros(self.n_devices, dtype=np.float64)
        for g in self.group_of_request:
            total = total + (per_group[g] if g in per_group else self.group_lb[g])
        if self.wait is not None:
            total = total + self.wait.bound_vector(m)
        return total, per_group

    def descend(self, m: int, n: int, per_group: Dict[int, np.ndarray]) -> List[Tuple[int, float]]:
        self.assign[m] = n
        self.residual[n] -= self.memory[m]
        saved = [(g, self.group_lb[g]) for g in per_group]
        for g, vector in per_group.items():
            self.group_lb[g] = float(vector[n])
        if self.wait is not None:
            self.wait.descend(m, n)
        return saved

    def ascend(self, m: int, n: int, saved: List[Tuple[int, float]]) -> None:
        if self.wait is not None:
            self.wait.ascend(m, n)
        for g, value in saved:
            self.group_lb[g] = value
        self.residual[n] += self.memory[m]
        self.assign[m] = -1


def branch_and_bound_placement(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    stats: Optional[BnBStats] = None,
    congestion: Optional[CongestionModel] = None,
) -> Tuple[Placement, float]:
    """The latency-optimal single-copy placement and its objective.

    Identical to brute force (same argmin, same tie-break toward the
    lexicographically smallest assignment, same float objective) — verified
    property-style in ``tests/test_placement_tensors.py``.

    With ``congestion`` set, the objective becomes queue-aware — base
    latency plus each class's expected waits (see
    :class:`~repro.core.placement.tensors.WaitTensors`) — and the bounds
    gain an admissible wait term; the brute-vs-bnb identity then holds
    against ``LatencyModel.congestion_objective`` (property-tested in
    ``tests/test_placement_wait.py``).  ``congestion=None`` leaves the
    historical solver bit-identical.
    """
    if not requests:
        raise PlacementError("optimal placement needs at least one request to score")
    net = network if network is not None else Network()
    if net.has_jitter:
        # Cost tensors cache transfer prices, which would freeze one random
        # jitter draw into the whole search — silently diverging from the
        # scalar path.  The brute-force solver prices through the scalar
        # fallback and stays correct under (deterministic) jitter hooks.
        raise PlacementError(
            "branch-and-bound prices through cached cost tensors, which "
            "would freeze the network's jitter hook; clear the jitter or "
            "use optimal_placement(..., solver='brute')"
        )
    if tensors is None:
        tensors = CostTensors(problem, net, parallel=parallel)
    else:
        tensors.check_compatible(problem, net, parallel)
    stats = stats if stats is not None else BnBStats()
    search = _Search(tensors, requests, stats, congestion=congestion)

    # ------------------------------------------------------------------
    # Phase 1 — optimal value.  Branch heads first (they pin every path's
    # output-transfer endpoint, tightening all bounds at once), then
    # encoders by descending best-case path cost: Eq. 2's max means the
    # most expensive path decides the stage, so fixing critical encoders
    # early moves the bound the most; modules no request uses go last.
    # Pruning is ``bound >= best``: such subtrees cannot strictly improve.
    # ------------------------------------------------------------------
    head_modules = {g.head_idx for g in search.groups}
    criticality = [0.0] * search.n_modules
    for bound in search.bounds:
        for e, idx in enumerate(bound.encoder_idx):
            criticality[idx] = max(criticality[idx], bound.free[e])

    def value_order_key(m: int) -> Tuple[int, int, float, int, str]:
        unused = 0 if search.groups_using[m] else 1
        is_head = 0 if m in head_modules else 1
        return (unused, is_head, -criticality[m], -search.memory[m], tensors.module_names[m])

    value_order = sorted(range(search.n_modules), key=value_order_key)

    best_value = float("inf")
    # Seed the incumbent with greedy Algorithm 1 (a member of the search
    # space) so deep subtrees prune early; exactness does not depend on it.
    try:
        from repro.core.placement.greedy import greedy_placement

        seed = greedy_placement(problem)
        for name, hosts in seed.as_dict().items():
            search.assign[tensors.module_idx(name)] = tensors.device_idx(hosts[0])
        best_value = search.leaf_objective()
    except PlacementError:
        pass
    finally:
        search.assign[:] = -1

    def value_dfs(depth: int) -> None:
        nonlocal best_value
        stats.nodes += 1
        m = value_order[depth]
        node_bound, per_group = search.node_bounds(m)
        candidates = [
            n for n in range(search.n_devices)
            if search.residual[n] >= search.memory[m]
        ]
        candidates.sort(key=lambda n: node_bound[n])
        for n in candidates:
            # ``best_value`` is always *attained* (greedy seed or a visited
            # leaf), so a subtree whose bound ties it cannot strictly
            # improve — prune on >=, which collapses Eq. 2's max-plateaus.
            if node_bound[n] >= best_value:
                stats.pruned += 1
                continue
            saved = search.descend(m, n, per_group)
            if depth + 1 == search.n_modules:
                stats.leaves += 1
                objective = search.leaf_objective()
                if objective < best_value:
                    best_value = objective
            else:
                value_dfs(depth + 1)
            search.ascend(m, n, saved)

    value_dfs(0)
    if best_value == float("inf"):
        raise PlacementError("no memory-feasible placement exists for this instance")

    # ------------------------------------------------------------------
    # Phase 2 — brute force's argmin.  Enumerate in tie-key order (modules
    # by sorted name, devices by sorted name) pruning ``bound > V``; the
    # first leaf that attains V is the lexicographically-smallest optimum.
    # ------------------------------------------------------------------
    tie_module_order = sorted(range(search.n_modules), key=lambda m: tensors.module_names[m])
    tie_device_order = sorted(range(search.n_devices), key=lambda n: tensors.device_names[n])

    def tie_dfs(depth: int) -> Optional[np.ndarray]:
        stats.nodes += 1
        m = tie_module_order[depth]
        node_bound, per_group = search.node_bounds(m)
        for n in tie_device_order:
            if search.residual[n] < search.memory[m]:
                continue
            if node_bound[n] > best_value:
                stats.pruned += 1
                continue
            saved = search.descend(m, n, per_group)
            if depth + 1 == search.n_modules:
                stats.leaves += 1
                if search.leaf_objective() == best_value:
                    winner = search.assign.copy()
                    search.ascend(m, n, saved)
                    return winner
            else:
                winner = tie_dfs(depth + 1)
                if winner is not None:
                    search.ascend(m, n, saved)
                    return winner
            search.ascend(m, n, saved)
        return None

    best_assign = tie_dfs(0)
    # The recursive closures reference themselves; dropping them frees the
    # search on return instead of at the next cyclic garbage collection.
    del value_dfs, tie_dfs
    if best_assign is None:  # pragma: no cover - phase 1 proved V is attained
        raise PlacementError("no memory-feasible placement exists for this instance")
    placement = Placement(
        {
            tensors.module_names[m]: (tensors.device_names[int(best_assign[m])],)
            for m in range(search.n_modules)
        }
    )
    return placement, best_value


# ======================================================================
# Energy-under-latency-budget branch-and-bound (paper Sec. VII made real)
# ======================================================================

class _EnergyGroupBound:
    """Admissible per-(model, source) *energy* bounds under partial assignment.

    Energy is additive — per encoder path ``(compute + input radio) +
    embedding radio``, plus the head's joules — so the bound is the latency
    bound's structure without Eq. 2's max, LPT waits, or contention terms.
    Every term is a min over the same precomputed floats the exact total
    uses, accumulated in the exact total's operation order; IEEE-754
    addition and min are monotonic, so the bound never exceeds the true
    joules of any completion, and it **equals** them once every member
    module is assigned.
    """

    def __init__(self, energy: EnergyTensors, group: EnergyRequestGroup) -> None:
        tensors = energy.tensors
        self.group = group
        self.encoder_idx = group.encoder_idx
        self.head_idx = group.head_idx
        self.members = tuple(set(group.encoder_idx) | {group.head_idx})
        head_fit = tensors.fits[group.head_idx]
        if not head_fit.any():
            raise PlacementError(
                f"module {group.head_name!r} fits on no device; "
                "apply compression or intra-module partitioning first (paper Sec. V-B)"
            )
        self.head_joules = group.head_joules
        self.head_min = float(np.min(group.head_joules[head_fit]))
        # Per encoder path e (arrays over the device axis), mirroring the
        # latency _GroupBound with A[e] = compute + input radio:
        self.enc_assigned: List[np.ndarray] = []
        self.head_assigned: List[np.ndarray] = []
        self.free: List[float] = []
        for e, idx in enumerate(group.encoder_idx):
            fit = tensors.fits[idx]
            if not fit.any():
                raise PlacementError(
                    f"module {group.encoder_names[e]!r} fits on no device; "
                    "apply compression or intra-module partitioning first (paper Sec. V-B)"
                )
            A = group.A[e]
            out = group.out[e]
            out_min = np.min(out[:, head_fit], axis=1)
            masked = np.where(fit[:, None], A[:, None] + out, np.inf)
            self.enc_assigned.append(A + out_min)
            self.head_assigned.append(np.min(masked, axis=0))
            self.free.append(float(np.min(self.enc_assigned[e][fit])))

    def lower_bound(self, assign: np.ndarray) -> float:
        """Scalar joule bound for the current partial assignment (exact —
        equal to the group's true joules — once every member is assigned)."""
        if all(assign[i] >= 0 for i in self.members):
            return float(self.group.total_for_assignment(assign))
        group = self.group
        nh = int(assign[self.head_idx])
        total = 0.0
        for e, idx in enumerate(self.encoder_idx):
            ne = int(assign[idx])
            if ne >= 0:
                if nh >= 0:
                    term = group.A[e][ne] + group.out[e][ne, nh]
                else:
                    term = self.enc_assigned[e][ne]
            elif nh >= 0:
                term = self.head_assigned[e][nh]
            else:
                term = self.free[e]
            total = total + term
        total = total + (self.head_joules[nh] if nh >= 0 else self.head_min)
        return float(total)

    def bound_vector(self, assign: np.ndarray, module_index: int) -> np.ndarray:
        """Joule bound per candidate device if ``module_index`` were placed
        there; exact (true group joules) when placing it completes the group."""
        group = self.group
        nh = int(assign[self.head_idx])
        head_here = module_index == self.head_idx
        total: object = 0.0
        for e, idx in enumerate(self.encoder_idx):
            ne = int(assign[idx])
            if idx == module_index:
                if head_here:
                    # Module doubles as the head: both endpoints co-locate.
                    term: object = group.A[e] + np.diagonal(group.out[e])
                elif nh >= 0:
                    term = group.A[e] + group.out[e][:, nh]
                else:
                    term = self.enc_assigned[e]
            elif head_here:
                if ne >= 0:
                    term = group.A[e][ne] + group.out[e][ne, :]
                else:
                    term = self.head_assigned[e]
            else:
                if ne >= 0:
                    if nh >= 0:
                        term = group.A[e][ne] + group.out[e][ne, nh]
                    else:
                        term = self.enc_assigned[e][ne]
                elif nh >= 0:
                    term = self.head_assigned[e][nh]
                else:
                    term = self.free[e]
            total = total + term
        head = self.head_joules if head_here else (
            self.head_joules[nh] if nh >= 0 else self.head_min
        )
        return np.broadcast_to(
            np.asarray(total + head, dtype=np.float64), self.head_joules.shape
        ).copy()


class _EnergySearch:
    """Shared state for both phases of the energy branch-and-bound.

    Tracks **two** admissible bound families per request class — joules
    (the objective being minimized) and latency (the Eq. 4a budget
    constraint, via the latency :class:`_GroupBound`) — both fanned out in
    request order so leaf values are bit-identical to the scalar oracles.
    """

    def __init__(
        self,
        tensors: CostTensors,
        energy: EnergyTensors,
        requests: Sequence[InferenceRequest],
        stats: BnBStats,
    ) -> None:
        self.tensors = tensors
        self.energy = energy
        self.stats = stats
        self.n_modules = tensors.n_modules
        self.n_devices = tensors.n_devices
        self.memory = [int(b) for b in tensors.memory]
        self.residual = [int(b) for b in tensors.capacity]
        self.assign = np.full(self.n_modules, -1, dtype=np.int64)

        self.lat_groups: List[RequestGroup] = []
        self.en_groups: List[EnergyRequestGroup] = []
        self.lat_bounds: List[_GroupBound] = []
        self.en_bounds: List[_EnergyGroupBound] = []
        self.group_of_request: List[int] = []
        index_of: Dict[Tuple[int, str], int] = {}
        for request in requests:
            key = (id(request.model), request.source)
            if key not in index_of:
                index_of[key] = len(self.lat_groups)
                lat_group = tensors.group(request.model, request.source)
                en_group = energy.group(request.model, request.source)
                self.lat_groups.append(lat_group)
                self.en_groups.append(en_group)
                self.lat_bounds.append(_GroupBound(tensors, lat_group))
                self.en_bounds.append(_EnergyGroupBound(energy, en_group))
            self.group_of_request.append(index_of[key])
        self.groups_using: List[List[int]] = [[] for _ in range(self.n_modules)]
        for g, group in enumerate(self.en_groups):
            for idx in set(group.encoder_idx) | {group.head_idx}:
                self.groups_using[idx].append(g)
        self.lat_lb = [bound.lower_bound(self.assign) for bound in self.lat_bounds]
        self.en_lb = [bound.lower_bound(self.assign) for bound in self.en_bounds]

    # ------------------------------------------------------------------
    def leaf_energy(self) -> float:
        """Exact joules of the full assignment (request-order summation,
        bit-identical to ``EnergyTensors.objective`` on the same placement)."""
        total = 0.0
        cache: List[Optional[float]] = [None] * len(self.en_groups)
        for g in self.group_of_request:
            value = cache[g]
            if value is None:
                value = self.en_groups[g].total_for_assignment(self.assign)
                cache[g] = value
            total = total + value
        return float(total)

    def node_energy_bounds(self, m: int) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Per-device total *energy* bound if module ``m`` went to each device.

        Latency is deliberately not vectorized here: its bound (with the
        per-candidate contention tightening) costs an order of magnitude
        more than the additive energy bound, and the energy prune discards
        most candidates first — the survivors get a scalar latency check in
        :meth:`latency_after` instead.
        """
        affected = self.groups_using[m]
        en_per_group: Dict[int, np.ndarray] = {
            g: self.en_bounds[g].bound_vector(self.assign, m) for g in affected
        }
        en_total = np.zeros(self.n_devices, dtype=np.float64)
        for g in self.group_of_request:
            en_total = en_total + (en_per_group[g] if g in en_per_group else self.en_lb[g])
        return en_total, en_per_group

    def descend(
        self, m: int, n: int, en_per_group: Dict[int, np.ndarray]
    ) -> List[Tuple[int, float]]:
        self.assign[m] = n
        self.residual[n] -= self.memory[m]
        saved = [(g, self.en_lb[g]) for g in en_per_group]
        for g, vector in en_per_group.items():
            self.en_lb[g] = float(vector[n])
        return saved

    def latency_after(self, m: int) -> Tuple[List[Tuple[int, float]], float]:
        """Refresh the latency bounds of the groups using ``m`` (which
        :meth:`descend` just placed) and return (undo list, fanned total).

        ``_GroupBound.lower_bound`` on the updated assignment is admissible
        at interior nodes and **exact** once a group is complete, so at a
        leaf the fanned total is the true latency objective, bit-identical
        to ``CostTensors.objective``.
        """
        saved = []
        for g in self.groups_using[m]:
            saved.append((g, self.lat_lb[g]))
            self.lat_lb[g] = self.lat_bounds[g].lower_bound(self.assign)
        total = 0.0
        for g in self.group_of_request:
            total = total + self.lat_lb[g]
        return saved, float(total)

    def restore_latency(self, saved: List[Tuple[int, float]]) -> None:
        for g, value in saved:
            self.lat_lb[g] = value

    def ascend(self, m: int, n: int, saved: List[Tuple[int, float]]) -> None:
        for g, en_value in saved:
            self.en_lb[g] = en_value
        self.residual[n] += self.memory[m]
        self.assign[m] = -1


def _any_memory_feasible(search: "_EnergySearch") -> bool:
    """Whether any assignment satisfies the memory constraints alone.

    First-fit backtracking over modules by descending memory — only called
    when the bounded search found no leaf, to decide between the
    ``(None, inf)`` over-budget result and the memory-infeasibility error.
    """
    order = sorted(range(search.n_modules), key=lambda m: -search.memory[m])
    residual = list(search.residual)

    def fit(depth: int) -> bool:
        if depth == len(order):
            return True
        need = search.memory[order[depth]]
        for n in range(search.n_devices):
            if residual[n] >= need:
                residual[n] -= need
                if fit(depth + 1):
                    return True
                residual[n] += need
        return False

    return fit(0)


def _energy_incumbent(
    tensors: CostTensors,
    energy: EnergyTensors,
    requests: Sequence[InferenceRequest],
    latency_budget: float,
) -> Optional[np.ndarray]:
    """A strong attained incumbent: greedy Algorithm 1, then a steepest
    energy descent over single-module moves that keep the latency objective
    within budget (both trackers are the bit-identical incremental APIs, so
    the incumbent's joules are directly comparable to leaf values).

    Returns ``None`` when greedy itself is infeasible or over budget — the
    search then runs incumbent-less and discovers feasibility on its own.
    """
    try:
        from repro.core.placement.greedy import greedy_placement

        seed = greedy_placement(tensors.problem)
    except PlacementError:
        return None
    latency = IncrementalObjective(tensors, requests, seed)
    if latency.objective > latency_budget:
        return None
    joules = IncrementalEnergy(energy, requests, seed)
    residual = [int(b) for b in tensors.capacity]
    for m in range(tensors.n_modules):
        residual[int(joules.assign[m])] -= int(tensors.memory[m])
    names = tensors.device_names
    for _ in range(32):  # steepest descent; passes bounded for safety
        improved = False
        for m in range(tensors.n_modules):
            module_name = tensors.module_names[m]
            current = int(joules.assign[m])
            best_n, best_joules = current, joules.joules
            for n in range(tensors.n_devices):
                if n == current or residual[n] < int(tensors.memory[m]):
                    continue
                moved = joules.move(module_name, names[n])
                if moved < best_joules and (
                    latency.move(module_name, names[n]) <= latency_budget
                ):
                    best_n, best_joules = n, moved
            joules.move(module_name, names[best_n])
            latency.move(module_name, names[best_n])
            if best_n != current:
                residual[current] += int(tensors.memory[m])
                residual[best_n] -= int(tensors.memory[m])
                improved = True
        if not improved:
            break
    return joules.assign.copy()


def energy_branch_and_bound(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    latency_budget: float = float("inf"),
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    energy: Optional[EnergyTensors] = None,
    stats: Optional[BnBStats] = None,
) -> Tuple[Optional[Placement], float]:
    """The minimum-energy single-copy placement within a latency budget.

    Minimizes total joules (:mod:`repro.profiles.energy` semantics) subject
    to the latency objective (Problem 4a) not exceeding ``latency_budget``
    — identical result (same argmin, same joules, same tie-break toward the
    lexicographically smallest assignment) as brute-force enumeration with
    a budget filter, verified property-style in ``tests/test_energy.py``.

    Returns ``(None, inf)`` when memory-feasible placements exist but none
    meets the budget (the budget is inclusive: ``latency == budget`` is
    feasible); raises :class:`PlacementError` when no memory-feasible
    placement exists at all — the same contract as the brute oracle.
    """
    if not requests:
        raise PlacementError("energy-optimal placement needs at least one request to score")
    net = network if network is not None else Network()
    if net.has_jitter:
        raise PlacementError(
            "energy branch-and-bound prices through cached cost tensors, "
            "which would freeze the network's jitter hook; clear the jitter "
            "or use energy_optimal_placement(..., solver='brute')"
        )
    if tensors is None:
        tensors = CostTensors(problem, net, parallel=parallel)
    else:
        tensors.check_compatible(problem, net, parallel)
    if energy is None:
        energy = EnergyTensors(tensors)
    elif energy.tensors is not tensors:
        raise PlacementError(
            "shared energy tensors were built on a different cost-tensor "
            "cache; pass the matching tensors= they were built with"
        )
    stats = stats if stats is not None else BnBStats()
    search = _EnergySearch(tensors, energy, requests, stats)

    # ------------------------------------------------------------------
    # Branching order: heads first (they pin every path's embedding
    # endpoint, tightening all bounds at once), then encoders by descending
    # best-case path joules; modules no request uses go last.
    # ------------------------------------------------------------------
    head_modules = {g.head_idx for g in search.en_groups}
    criticality = [0.0] * search.n_modules
    for bound in search.en_bounds:
        for e, idx in enumerate(bound.encoder_idx):
            criticality[idx] = max(criticality[idx], bound.free[e])

    def value_order_key(m: int) -> Tuple[int, int, float, int, str]:
        unused = 0 if search.groups_using[m] else 1
        is_head = 0 if m in head_modules else 1
        return (unused, is_head, -criticality[m], -search.memory[m], tensors.module_names[m])

    value_order = sorted(range(search.n_modules), key=value_order_key)

    def tie_key(assign: np.ndarray) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Brute force's deterministic tie-break key for a full assignment."""
        return tuple(
            sorted(
                (tensors.module_names[m], (tensors.device_names[int(assign[m])],))
                for m in range(search.n_modules)
            )
        )

    # Incumbent: greedy Algorithm 1 (budget-feasible whenever the budget is
    # a >= 1 multiple of greedy's own latency, as energy_aware_placement
    # builds it), improved by a budget-constrained energy descent.  A tight
    # attained incumbent is what keeps the frontier small: the search only
    # has to certify optimality, not discover it.
    best_energy = float("inf")
    best_key: Optional[Tuple] = None
    best_assign: Optional[np.ndarray] = None
    seed_assign = _energy_incumbent(tensors, energy, requests, latency_budget)
    if seed_assign is not None:
        search.assign[:] = seed_assign
        best_energy = search.leaf_energy()
        best_key = tie_key(search.assign)
        best_assign = search.assign.copy()
        search.assign[:] = -1

    # ------------------------------------------------------------------
    # Single-phase DFS.  Pruning is ``energy bound > best`` (strictly:
    # equal-bound subtrees may still hold an equal-joule leaf with a
    # smaller tie-key) and ``latency bound > budget``; at a leaf both
    # bounds are exact, so the incumbent update compares the true
    # (joules, tie-key) pair exactly as brute force's argmin does.
    # Energy is additive, so exact-tie plateaus are rare and the strict
    # prune stays sharp (unlike Eq. 2's max-plateaus in the latency search).
    # ------------------------------------------------------------------
    def dfs(depth: int) -> None:
        nonlocal best_energy, best_key, best_assign
        stats.nodes += 1
        m = value_order[depth]
        en_bound, en_pg = search.node_energy_bounds(m)
        candidates = [
            n for n in range(search.n_devices)
            if search.residual[n] >= search.memory[m]
        ]
        candidates.sort(key=lambda n: en_bound[n])
        for n in candidates:
            if en_bound[n] > best_energy:
                stats.pruned += 1
                continue
            saved = search.descend(m, n, en_pg)
            lat_saved, lat_total = search.latency_after(m)
            if lat_total > latency_budget:
                stats.pruned += 1
            elif depth + 1 == search.n_modules:
                stats.leaves += 1
                # Bounds are exact at leaves: en_bound[n] is the true total
                # joules, lat_total the true latency (already <= budget).
                leaf = float(en_bound[n])
                if leaf < best_energy:
                    best_energy = leaf
                    best_key = tie_key(search.assign)
                    best_assign = search.assign.copy()
                elif leaf == best_energy:
                    key = tie_key(search.assign)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_assign = search.assign.copy()
            else:
                dfs(depth + 1)
            search.restore_latency(lat_saved)
            search.ascend(m, n, saved)

    dfs(0)
    if best_assign is None:
        # Distinguish "over budget" from "memory-infeasible outright" so
        # both solvers keep the same contract: the brute oracle raises when
        # enumeration yields nothing at all.
        if not _any_memory_feasible(search):
            raise PlacementError("no memory-feasible placement exists for this instance")
        return None, float("inf")
    placement = Placement(
        {
            tensors.module_names[m]: (tensors.device_names[int(best_assign[m])],)
            for m in range(search.n_modules)
        }
    )
    return placement, best_energy
