"""The discrete-event engine: a virtual clock and an ordered event heap.

The engine knows nothing about processes or checkpoints; it schedules
callbacks at virtual times.  Determinism is guaranteed by breaking ties in
(time, insertion sequence) order, so two runs with the same seed replay the
same interleaving.

Three hot-path design points (see DESIGN.md §8):

* Heap entries are ``(time, seq, event)`` tuples, so ``heapq`` compares
  floats and ints at C speed instead of calling ``Event.__lt__``.
* Events scheduled at the *current* time (``call_soon`` and zero-delay
  ``call_after``) bypass the heap entirely and go to a FIFO deque.  This
  is safe because every heap entry at time ``t`` was pushed while the
  clock was strictly before ``t`` (scheduling at ``now`` takes the FIFO
  path, scheduling in the past raises), so heap entries at the current
  time always carry smaller sequence numbers than anything in the FIFO
  -- draining the heap first, then the FIFO, replays the exact global
  ``(time, seq)`` order the pure-heap engine produces.
* The driver loops own CPython's cyclic collector while they run: the
  graph built before the run is frozen out of collection and the gen-0
  threshold is raised, so the collector stops re-walking a world of
  thousands of long-lived processes, sockets and continuations.  Both
  are restored when the loop exits, by return or by raise.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import threading
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SimulationError

_new_event = object.__new__

#: Gen-0 collection threshold while a driver loop runs.  At CPython's
#: default of 700 the event loop's churn triggers thousands of young
#: collections per run, and their promotions keep scheduling full passes
#: over the whole simulated world.
RUN_GC_THRESHOLD = 50_000


#: The collector is process-wide, and the inline shard backend
#: (repro.sim.parallel) runs engines in concurrent threads: taking or
#: handing back the policy must be one step, or two entering runs can
#: both read "not frozen" and the later one saves the raised threshold.
_collector_lock = threading.Lock()


def _collector_enter() -> Optional[tuple[int, int, int]]:
    """Apply the run-scoped collector policy; returns what to restore.

    Returns None -- and changes nothing -- when the heap is already
    frozen: an enclosing or concurrent run, or the caller, owns the
    collector, and handing it back early would unfreeze their graph.
    """
    with _collector_lock:
        if gc.get_freeze_count():
            return None
        saved = gc.get_threshold()
        gc.freeze()
        gc.set_threshold(RUN_GC_THRESHOLD, saved[1], saved[2])
        return saved


def _collector_exit(saved: Optional[tuple[int, int, int]]) -> None:
    """Undo :func:`_collector_enter`: thresholds back, heap unfrozen."""
    if saved is not None:
        with _collector_lock:
            gc.set_threshold(*saved)
            gc.unfreeze()


def _drain_cancelled(heap: list, ready: deque) -> None:
    """Drop cancelled events from the front of both queues.

    This is THE cancelled-event drain: ``step``/``run``/``run_until`` all
    had private inlined copies that could (and did) drift.  The hot loops
    keep their borrowed ``heap``/``ready`` locals and a two-comparison
    inline guard, and only call here when a cancelled event is actually
    at the front -- so the common case pays no call overhead while the
    drain logic itself exists exactly once.
    """
    heappop = heapq.heappop
    while heap and heap[0][2].cancelled:
        heappop(heap)
    while ready and ready[0].cancelled:
        ready.popleft()


class Event:
    """A cancellable scheduled callback.

    Cancellation is O(1): the queue entry stays in place but is skipped
    when popped.  ``fired`` and ``cancelled`` are exposed for diagnostics.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "engine")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self.engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Mark the event dead; it is skipped when popped."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self.engine is not None:
                self.engine._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event t={self.time:.9f} seq={self.seq} {state} {getattr(self.fn, '__name__', self.fn)}>"


class Engine:
    """Virtual clock plus event queues.

    Typical use::

        eng = Engine()
        eng.call_after(1.5, hello)
        eng.run()          # runs until the queues drain
        assert eng.now == 1.5
    """

    #: Class-wide default for the same-timestamp FIFO fast path.  The
    #: determinism golden test flips this to force every event through
    #: the heap and asserts the firing order is identical.
    fast_path: bool = True

    #: Optional per-fire instrumentation hook ``hook(event)``, consulted
    #: once per step.  None in production; tests and the profiler install
    #: recorders here (on the class or a single instance).  The
    #: ``_fire_hook_default`` marker tells tooling this engine exposes
    #: the hook at all.
    _fire_hook_default = None
    _debug_fire_hook = None

    #: Sharded execution (repro.sim.parallel): when a ShardGate is
    #: installed, the driver-facing ``run``/``run_until`` become global
    #: windowed operations synchronized with the other shards; the gate
    #: drives local execution through ``run_window``.
    _shard_gate = None

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Future events as (time, seq, Event) tuples (C-speed ordering).
        self._heap: list[tuple[float, int, Event]] = []
        #: Events scheduled at the current timestamp, in seq (FIFO) order.
        self._ready: deque[Event] = deque()
        self._seq = itertools.count()
        #: Live (scheduled, not cancelled, not fired) event count, kept in
        #: step with push/cancel/fire so ``pending`` never scans the heap.
        self._live: int = 0
        self._running = False
        #: Total events executed; useful for complexity assertions in tests.
        self.events_fired: int = 0
        self._tracer = None
        #: The tracer iff it is enabled -- rebound by the tracer's
        #: enable/disable notifications so the disabled path does zero
        #: tracer attribute work (one slot load + an ``is None`` test).
        self._trace_hot = None

    # ------------------------------------------------------------------
    # Tracer wiring
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached repro.obs.Tracer (None by default)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        if tracer is None:
            self._trace_hot = None
            return
        watch = getattr(tracer, "add_watcher", None)
        if watch is not None:
            watch(self._on_tracer_toggle)  # fires once immediately
        else:  # bare stand-in tracer without toggle support
            self._trace_hot = tracer if getattr(tracer, "enabled", False) else None

    def _on_tracer_toggle(self, tracer) -> None:
        if tracer is self._tracer:
            self._trace_hot = tracer if tracer.enabled else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        ev = Event(time, next(self._seq), fn, args)
        ev.engine = self
        if time == self.now and self.fast_path:
            self._ready.append(ev)
        else:
            heapq.heappush(self._heap, (time, ev.seq, ev))
        self._live += 1
        return ev

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # call_at inlined, Event built via direct slot stores: this is
        # the hottest scheduling entry point and the ctor frame shows up
        time = self.now + delay
        ev = _new_event(Event)
        ev.time = time
        ev.seq = seq = next(self._seq)
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev.fired = False
        ev.engine = self
        if time == self.now and self.fast_path:
            self._ready.append(ev)
        else:
            heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        ev = _new_event(Event)
        ev.time = self.now
        ev.seq = next(self._seq)
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev.fired = False
        ev.engine = self
        if self.fast_path:
            self._ready.append(ev)
        else:
            heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if idle."""
        _drain_cancelled(self._heap, self._ready)
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled(self) -> None:
        _drain_cancelled(self._heap, self._ready)

    def _advance_now(self, time: float) -> None:
        """Jump the clock forward to ``time`` (shard-gate normalization).

        Used by repro.sim.parallel when a windowed run stops: every shard
        adopts the same global stop time so subsequent driver actions see
        an identical clock in every sharding.  Going backwards is a bug.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot move clock backwards: now={self.now}, target={time}"
            )
        self.now = time

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queues were empty.

        Note: unlike ``run``, ``step`` takes no ``until`` clamp -- callers
        that need a bounded run must use ``run(until=...)``.
        """
        if self._shard_gate is not None:
            raise SimulationError(
                "Engine.step() is unavailable under sharded execution; "
                "use run()/run_until(), which synchronize across shards"
            )
        heap = self._heap
        ready = self._ready
        if (heap and heap[0][2].cancelled) or (ready and ready[0].cancelled):
            _drain_cancelled(heap, ready)
        if ready:
            # ready events sit at the current timestamp; heap entries at
            # the same timestamp are older (smaller seq) and fire first
            if heap and heap[0][0] <= self.now:
                ev = heapq.heappop(heap)[2]
            else:
                ev = ready.popleft()
        elif heap:
            ev = heapq.heappop(heap)[2]
            self.now = ev.time
        else:
            return False
        ev.fired = True
        self._live -= 1
        self.events_fired += 1
        tracer = self._trace_hot
        if tracer is not None:
            tracer.count("sim.events_fired")
            tracer.count_max("sim.heap_depth_max", len(heap) + len(ready) + 1)
        hook = self._debug_fire_hook
        if hook is not None:
            hook(ev)
        ev.fn(*ev.args)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run events until the queues drain or ``until`` is passed.

        Calling with ``until < now`` is a no-op: virtual time never moves
        backwards (it used to silently rewind the clock).  ``max_events``
        is a runaway-loop backstop; hitting it raises
        :class:`SimulationError` rather than hanging the test suite.
        """
        if self._shard_gate is not None:
            return self._shard_gate.run(until=until, max_events=max_events)
        if until is not None and until < self.now:
            return
        self._run_loop(until, max_events, exclusive=False)

    def run_window(
        self, horizon: float, inclusive: bool = False, max_events: int = 50_000_000
    ) -> None:
        """Run local events with ``time < horizon`` (``<=`` if inclusive).

        This is the shard-local half of a conservative lookahead window
        (repro.sim.parallel): the gate guarantees no cross-shard message
        can arrive before ``horizon``, so everything strictly earlier is
        safe to execute.  Unlike ``run`` it never touches the clock on
        return -- ``now`` stays at the last fired event so the next
        window (or an injected completion at exactly ``horizon``) can
        still be scheduled with ``call_at``.
        """
        self._run_loop(horizon, max_events, exclusive=not inclusive)

    def _run_loop(
        self, until: Optional[float], max_events: int, exclusive: bool
    ) -> None:
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        collector = _collector_enter()
        # the step() body is inlined here (and in run_until): the loop
        # fires hundreds of thousands of events per scenario and the
        # method-call + double cancel-drop overhead is measurable; the
        # cancelled-drain itself lives in _drain_cancelled behind a
        # front-of-queue guard
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        fired = 0
        try:
            while True:
                if (heap and heap[0][2].cancelled) or (ready and ready[0].cancelled):
                    _drain_cancelled(heap, ready)
                if ready:
                    # ready events sit at the current timestamp (always
                    # inside any window or clamp, since the clock only
                    # advances through in-bounds heap events); heap
                    # entries at the same time are older and fire first
                    if heap and heap[0][0] <= self.now:
                        ev = heappop(heap)[2]
                    else:
                        ev = ready.popleft()
                elif heap:
                    next_time = heap[0][0]
                    if until is not None:
                        if exclusive:
                            if next_time >= until:
                                return
                        elif next_time > until:
                            self.now = until
                            return
                    ev = heappop(heap)[2]
                    self.now = next_time
                else:
                    return
                ev.fired = True
                self._live -= 1
                tracer = self._trace_hot
                if tracer is not None:
                    tracer.count("sim.events_fired")
                    tracer.count_max("sim.heap_depth_max", len(heap) + len(ready) + 1)
                hook = self._debug_fire_hook
                if hook is not None:
                    hook(ev)
                ev.fn(*ev.args)
                fired += 1
                if fired >= max_events:
                    raise SimulationError(
                        f"engine exceeded {max_events} events; likely a livelock"
                    )
        finally:
            self.events_fired += fired
            self._running = False
            _collector_exit(collector)

    def run_until(self, predicate: Callable[[], bool], max_events: int = 50_000_000) -> None:
        """Run until ``predicate()`` becomes true.  Raises if the queues drain first."""
        if self._shard_gate is not None:
            return self._shard_gate.run_until(predicate, max_events=max_events)
        if self._running:
            raise SimulationError("Engine.run_until() is not reentrant")
        self._running = True
        collector = _collector_enter()
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        fired = 0
        try:
            while not predicate():
                if (heap and heap[0][2].cancelled) or (ready and ready[0].cancelled):
                    _drain_cancelled(heap, ready)
                if ready:
                    if heap and heap[0][0] <= self.now:
                        ev = heappop(heap)[2]
                    else:
                        ev = ready.popleft()
                elif heap:
                    ev = heappop(heap)[2]
                    self.now = ev.time
                else:
                    raise SimulationError("event heap drained before predicate held")
                ev.fired = True
                self._live -= 1
                tracer = self._trace_hot
                if tracer is not None:
                    tracer.count("sim.events_fired")
                    tracer.count_max("sim.heap_depth_max", len(heap) + len(ready) + 1)
                hook = self._debug_fire_hook
                if hook is not None:
                    hook(ev)
                ev.fn(*ev.args)
                fired += 1
                if fired >= max_events:
                    raise SimulationError(
                        f"engine exceeded {max_events} events waiting for predicate"
                    )
        finally:
            self.events_fired += fired
            self._running = False
            _collector_exit(collector)
