"""Self-tests for the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from arith import (  # noqa: E402
    HANDLER_CLASS,
    HANDLER_FAMILIES,
    failed_share,
    handler_family,
    quartile_spread,
    samples_beyond,
    self_time_by_name,
    self_times,
    tail_percentile,
)


# ----------------------------------------------------------------------
# Tail percentile: the highest with at least 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (100_000, 99.0),   # the ladder stops at p99, never p99.9
        (1000, 99.0),      # exactly 10 beyond p99
        (999, 95.0),       # 9 beyond p99, 49 beyond p95
        (200, 95.0),       # exactly 10 beyond p95
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile(n, expected):
    assert tail_percentile(n) == expected


def test_samples_beyond_counts_whole_samples():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 9
    assert samples_beyond(10, 50.0) == 5
    assert samples_beyond(7, 99.9) == 0
    with pytest.raises(ValueError):
        samples_beyond(-1, 50.0)


# ----------------------------------------------------------------------
# failed_share
# ----------------------------------------------------------------------
def test_failed_share_counts_rejects_timeouts_and_failed_checks():
    assert failed_share(100, 5, 3, 2) == pytest.approx(0.10)
    assert failed_share(2, 0, 0, 0) == 0.0
    assert failed_share(2, 0, 0, 1) == 0.5          # solve-exact: 1 of 2 instances
    assert failed_share(10, 10, 0, 5) == 1.0        # a failed check on a rejected arrival


@pytest.mark.parametrize("args", [(0, 0, 0, 0), (10, -1, 0, 0), (10, 0, -1, 0), (10, 0, 0, -1)])
def test_failed_share_rejects_bad_counts(args):
    with pytest.raises(ValueError):
        failed_share(*args)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 5.0),      # overlaps a: the union [1, 5] counts once
        (3, 1, "leaf", 1.5, 2.5),   # a grandchild: charged to a, not root
        (4, 0, "c", 9.0, 12.0),     # runs past its parent: only [9, 10] counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_self_time_by_name_sums_repeated_spans():
    spans = [
        (0, None, "run", 0.0, 4.0),
        (1, 0, "step", 0.0, 1.0),
        (2, 0, "step", 2.0, 3.0),
    ]
    assert self_time_by_name(spans) == pytest.approx({"run": 2.0, "step": 2.0})


def test_quartile_spread():
    assert quartile_spread([5.0]) == 0.0
    assert quartile_spread([2.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]       # quartiles 2.75 and 8.25
    assert quartile_spread(values) == pytest.approx(5.5 / 5.5)


# ----------------------------------------------------------------------
# Handler families
# ----------------------------------------------------------------------
def scheduled_callbacks():
    """Method names the serving engine passes to ``push``/``push_at``."""
    from repro.serving.engine import FlatServingEngine

    tree = ast.parse(textwrap.dedent(inspect.getsource(FlatServingEngine)))
    aliases = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
        ):
            aliases[node.targets[0].id] = node.value
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if isinstance(func, ast.Name) and func.id in aliases:
            name = aliases[func.id].attr
        if name not in ("push", "push_at"):
            continue
        callback = node.args[1]
        if isinstance(callback, ast.Name):
            callback = aliases[callback.id]
        assert isinstance(callback, ast.Attribute), ast.dump(node)
        assert isinstance(callback.value, ast.Name) and callback.value.id == "self"
        found.add(callback.attr)
    return found


def test_every_scheduled_callback_has_exactly_one_family():
    found = scheduled_callbacks()
    assert len(found) > 20
    for name in sorted(found):
        families = [f for f, names in HANDLER_FAMILIES.items() if name in names]
        assert len(families) == 1, f"{name} is in families {families}"
        assert handler_family(f"{HANDLER_CLASS}.{name}") == families[0]


def test_family_table_names_only_scheduled_callbacks():
    found = scheduled_callbacks()
    listed = {name for names in HANDLER_FAMILIES.values() for name in names}
    assert listed == found


def test_unknown_callback_fails_loudly():
    with pytest.raises(KeyError):
        handler_family("FlatServingEngine._renamed_handler")
    with pytest.raises(KeyError):
        handler_family("_on_arrival")
