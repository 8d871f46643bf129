"""Awaitable events for the simulation kernel.

Processes (see :mod:`repro.sim.process`) ``yield`` these objects to suspend
until the event fires.  Events are one-shot: they move from *pending* to
*triggered* exactly once, delivering an optional value to every waiter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.simulator import Simulator


class Event:
    """A one-shot event that processes can wait on.

    An event is created in the *pending* state.  :meth:`succeed` schedules it
    to fire at the current simulation time; every registered callback then
    runs with the event as its argument.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The value delivered by :meth:`succeed` (None until then)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now, delivering ``value`` to all waiters."""
        if self._triggered:
            raise RuntimeError("event has already been triggered")
        self._triggered = True
        self._value = value
        self.sim.schedule_event(self)
        return self

    def _process(self) -> None:
        """Run callbacks; invoked by the simulator event loop."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already processed."""
        if self._processed:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim.schedule_event(self, delay=delay)


class Condition(Event):
    """Base for composite events over a list of child events.

    Subclasses define how the empty list behaves via ``_on_empty``:
    "all of nothing" is vacuously true (fires immediately), while "any of
    nothing" can never fire and is rejected up front.
    """

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self._on_empty()
            return
        for event in self.events:
            if not event.processed:
                self._pending += 1
            event.add_callback(self._on_child)
        # All children may already be processed.
        if self._pending == 0 and not self._triggered:
            self._check(initial=True)

    def _on_child(self, event: Event) -> None:
        if not self._triggered:
            self._check(initial=False)

    def _on_empty(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, initial: bool) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Fires when *all* child events have fired; value is the list of values.

    Completion is judged by ``processed`` (the event actually fired), not
    ``triggered`` — a :class:`Timeout` is *triggered* the moment it is
    created but only fires when the clock reaches it.  ``AllOf([])`` is
    vacuously satisfied and fires immediately with value ``[]``.
    """

    def _on_empty(self) -> None:
        self.succeed([])

    def _check(self, initial: bool) -> None:
        if all(event.processed for event in self.events):
            self.succeed([event.value for event in self.events])


class AnyOf(Condition):
    """Fires when *any* child event fires; value is the first value seen.

    "Any of nothing" can never fire: a process waiting on it would deadlock
    silently, so an empty event list is rejected with :class:`ValueError`.
    """

    def _on_empty(self) -> None:
        raise ValueError("AnyOf requires at least one event ('any of nothing' never fires)")

    def _check(self, initial: bool) -> None:
        for event in self.events:
            if event.processed:
                self.succeed(event.value)
                return
