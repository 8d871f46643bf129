"""Host-time tracing for the benchmark's traced run.

Nothing here runs in an untraced run.  A :class:`Tracer` keeps spans
(name, start, end, parent) in memory, plus aggregate counters for the two
boundaries crossed too often to record one span per call: event-loop
callbacks and replica leaf pricing.  :func:`installed` swaps the program's
public entry points for timing wrappers, and the serving engine's
``FlatEventLoop`` for :class:`TracingEventLoop` builds, for the duration of
one measured call; everything is restored on exit.  The program's own
source is never edited.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.federation.runtime as federation_runtime
import repro.serving.engine as serving_engine
from repro.core.engine import S2M3Engine
from repro.core.placement.tensors import RequestGroup
from repro.federation.runtime import FederationRuntime
from repro.serving.runtime import ServingRuntime
from repro.serving.workload import WorkloadGenerator
from repro.sim.flat import FlatEventLoop
from repro.sim.simulator import default_max_events

from arith import FAMILIES, Span, handler_family

perf = time.perf_counter


class Tracer:
    """Spans and counters of one traced measured call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        # sim.flat counters, summed over every loop the call builds.
        self.events = 0
        self.heap_pushes = 0
        self.ready_pushes = 0
        self.heap_peak = 0
        self.loop_s = 0.0
        # serving.engine: host seconds and dispatches per handler family.
        self.family_s: Dict[str, float] = {f: 0.0 for f in FAMILIES}
        self.family_calls: Dict[str, int] = {f: 0 for f in FAMILIES}
        # Aggregated boundaries: name -> [calls, seconds].
        self.totals: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` adding its calls and seconds to ``totals[name]``."""
        entry = self.totals.setdefault(name, [0, 0.0])

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += perf() - start

        return traced

    # ------------------------------------------------------------------
    def span_total(self, name: str, parent_name: Optional[str] = None) -> float:
        """Summed duration of spans called ``name`` (optionally only those
        whose parent span is called ``parent_name``)."""
        names = {sid: n for sid, _p, n, _s, _e in self.spans}
        return sum(
            end - start
            for _sid, parent, n, start, end in self.spans
            if n == name and (parent_name is None or names.get(parent) == parent_name)
        )

    def total(self, name: str) -> Tuple[int, float]:
        calls, seconds = self.totals.get(name, (0, 0.0))
        return int(calls), float(seconds)


def loop_class(tracer: Tracer) -> type:
    """A ``FlatEventLoop`` subclass reporting to ``tracer``.

    ``run`` is the parent's loop, step for step, with each callback timed
    and charged to its handler family; the order entries pop in is
    unchanged, which the traced run checks by comparing its simulated
    outputs with an untraced run's.
    """

    class TracingEventLoop(FlatEventLoop):
        def push(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
            FlatEventLoop.push(self, delay, fn, *args)
            self._count(delay == 0)

        def push_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
            ready = time == self.now
            FlatEventLoop.push_at(self, time, fn, *args)
            self._count(ready)

        def _count(self, ready: bool) -> None:
            if ready:
                tracer.ready_pushes += 1
                return
            tracer.heap_pushes += 1
            if len(self._heap) > tracer.heap_peak:
                tracer.heap_peak = len(self._heap)

        def run(self, max_events: Optional[int] = None) -> float:
            if max_events is None:
                max_events = default_max_events(len(self._heap) + len(self._ready))
            heap = self._heap
            ready = self._ready
            pop = heapq.heappop
            popleft = ready.popleft
            family_s = tracer.family_s
            family_calls = tracer.family_calls
            family_of: Dict[str, str] = {}
            now = self.now
            processed = 0
            loop_start = perf()
            try:
                while True:
                    if ready:
                        if heap and heap[0][0] == now:
                            _time, _seq, fn, args = pop(heap)
                        else:
                            fn, args = popleft()
                    elif heap:
                        time_, _seq, fn, args = pop(heap)
                        self.now = now = time_
                    else:
                        break
                    start = perf()
                    fn(*args)
                    spent = perf() - start
                    name = fn.__qualname__
                    family = family_of.get(name)
                    if family is None:
                        family = family_of[name] = handler_family(name)
                    family_s[family] += spent
                    family_calls[family] += 1
                    processed += 1
                    if processed >= max_events:
                        raise RuntimeError(
                            f"simulation exceeded {max_events} events; likely a livelock"
                        )
            finally:
                tracer.loop_s += perf() - loop_start
                tracer.events += processed
            return self.now

    return TracingEventLoop


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route the program's layer boundaries through ``tracer``."""
    patches = [
        (serving_engine, "FlatEventLoop", loop_class(tracer)),
        (serving_engine, "build_report_arrays",
         tracer.spanned("report.build", serving_engine.build_report_arrays)),
        (federation_runtime, "plan_spillover",
         tracer.spanned("federation.plan", federation_runtime.plan_spillover)),
        (federation_runtime, "merge_reports",
         tracer.spanned("federation.merge", federation_runtime.merge_reports)),
        (FederationRuntime, "run", tracer.spanned("federation.run", FederationRuntime.run)),
        (ServingRuntime, "run", tracer.spanned("serving.run", ServingRuntime.run)),
        (S2M3Engine, "deploy", tracer.spanned("serving.deploy", S2M3Engine.deploy)),
        (WorkloadGenerator, "generate",
         tracer.spanned("workload.generate", WorkloadGenerator.generate)),
        (RequestGroup, "best_hosts", tracer.counted("placement.leaf", RequestGroup.best_hosts)),
    ]
    saved = []
    try:
        for owner, attr, replacement in patches:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
