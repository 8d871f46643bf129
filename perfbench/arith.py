"""The benchmark's own arithmetic: medians, spreads, tail percentiles,
failure shares, span self time and handler families.

Stdlib only, so the self-tests (``test_arith.py``) run without the program
under test.  Every function here is pure.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles the benchmark may report, highest first.  The ladder
#: stops at p99: the metric is named ``sim_p99_s``, and a larger trace must
#: not silently turn it into p99.9.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Minimum samples strictly above a reported percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), which
    is how run-to-run spread is judged against each metric's bound.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(mid)


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie strictly above the ``percentile``-th
    percentile, counted as ``floor(n * (1 - percentile / 100))``."""
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    # Integer arithmetic in hundredths of a percent avoids float floor noise.
    return (n * (10000 - int(round(percentile * 100)))) // 10000


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """The highest percentile in ``ladder`` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for q in sorted(ladder, reverse=True):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def failed_share(arrivals: int, rejected: int, timed_out: int, failed_checks: int) -> float:
    """(rejected + timed out + failed output checks) / arrivals.

    On ``solve-exact`` the caller passes instances as ``arrivals`` and zero
    rejections, which gives failed checks / instances.
    """
    if arrivals <= 0:
        raise ValueError(f"failed_share needs at least one arrival, got {arrivals}")
    if min(rejected, timed_out, failed_checks) < 0:
        raise ValueError("counts must be non-negative")
    return min(1.0, (rejected + timed_out + failed_checks) / arrivals)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
#: One recorded span: (span id, parent id or None, name, start s, end s).
Span = Tuple[int, Optional[int], str, float, float]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's self time: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for sid, _parent, name, _start, _end in spans:
        out[name] = out.get(name, 0.0) + own[sid]
    return out


# ----------------------------------------------------------------------
# Serving-engine handler families
# ----------------------------------------------------------------------
#: Every event-loop callback of ``FlatServingEngine``, by method name, in
#: exactly one family.  ``test_arith.py`` checks this table against the
#: callbacks the engine's source actually schedules, so a renamed or new
#: handler fails the self-test instead of dropping out of the breakdown.
HANDLER_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "admission": ("_on_arrival",),
    "routing": (
        "_enc_route", "_enc_path_done", "_enc_path_ended", "_encs_joined",
        "_head_route",
    ),
    "transfer": ("_enc_send", "_enc_after_send", "_head_transfer_done"),
    "server": (
        "_server_drain", "_server_window", "_server_granted", "_server_done",
        "_chunk_done",
    ),
    "control": (
        "_fault_advance", "_fault_migrated", "_reconfig_broadcast",
        "_brownout_gate", "_brownout_tick", "_autoscale_gate", "_autoscale_tick",
        "_scale_up_start", "_scale_up_finish",
    ),
    "retry": ("_watch_fire", "_timeout_resume", "_head_stranded"),
}

#: The class whose methods the families name.
HANDLER_CLASS = "FlatServingEngine"

FAMILIES = tuple(HANDLER_FAMILIES)


def _family_index() -> Dict[str, str]:
    index: Dict[str, str] = {}
    for family, names in HANDLER_FAMILIES.items():
        for name in names:
            if name in index:
                raise ValueError(f"handler {name} is in both {index[name]} and {family}")
            index[f"{HANDLER_CLASS}.{name}"] = family
    return index


_FAMILY_OF = _family_index()


def handler_family(qualname: str) -> str:
    """The family of a dispatched callback, by its ``__qualname__``.

    Raises :class:`KeyError` for an unknown callback, so a handler the
    table does not name stops the traced run instead of vanishing from it.
    """
    family = _FAMILY_OF.get(qualname)
    if family is None:
        raise KeyError(
            f"event-loop callback {qualname!r} has no handler family; "
            f"add it to perfbench/arith.py HANDLER_FAMILIES"
        )
    return family
