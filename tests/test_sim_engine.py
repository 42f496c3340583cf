"""Unit tests for the discrete-event engine."""

import gc
import threading
import time

import pytest

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.engine import RUN_GC_THRESHOLD


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.call_at(2.0, order.append, "b")
    eng.call_at(1.0, order.append, "a")
    eng.call_at(3.0, order.append, "c")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_ties_break_by_insertion_order():
    eng = Engine()
    order = []
    for label in "abcde":
        eng.call_at(1.0, order.append, label)
    eng.run()
    assert order == list("abcde")


def test_call_after_is_relative():
    eng = Engine()
    seen = []
    eng.call_at(5.0, lambda: eng.call_after(2.5, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [7.5]


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.call_at(1.0, lambda: eng.call_soon(times.append, eng.now))
    eng.run()
    assert times == [1.0]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.call_after(-1.0, lambda: None)


def test_cancelled_events_do_not_fire():
    eng = Engine()
    fired = []
    ev = eng.call_at(1.0, fired.append, "x")
    eng.call_at(2.0, fired.append, "y")
    ev.cancel()
    eng.run()
    assert fired == ["y"]


def test_pending_counts_live_events_only():
    eng = Engine()
    ev = eng.call_at(1.0, lambda: None)
    eng.call_at(2.0, lambda: None)
    assert eng.pending == 2
    ev.cancel()
    assert eng.pending == 1


def test_pending_is_o1_no_heap_scan():
    # regression: `pending` used to scan the whole heap on every call;
    # it must now read a live-event counter.  A heap whose iteration is
    # poisoned proves no rescan happens on the cancel-then-pending path.
    class NoIterList(list):
        def __iter__(self):
            raise AssertionError("pending scanned the heap")

    eng = Engine()
    events = [eng.call_at(float(i), lambda: None) for i in range(8)]
    eng._heap = NoIterList(eng._heap)
    assert eng.pending == 8
    events[3].cancel()
    events[5].cancel()
    assert eng.pending == 6


def test_pending_counter_survives_double_cancel_and_fire():
    eng = Engine()
    ev = eng.call_at(1.0, lambda: None)
    other = eng.call_at(2.0, lambda: None)
    ev.cancel()
    ev.cancel()  # idempotent: must not decrement twice
    assert eng.pending == 1
    eng.run()
    assert eng.pending == 0
    other.cancel()  # cancelling a fired event must not go negative
    assert eng.pending == 0


def test_run_until_time_stops_clock_at_bound():
    eng = Engine()
    fired = []
    eng.call_at(1.0, fired.append, 1)
    eng.call_at(10.0, fired.append, 10)
    eng.run(until=5.0)
    assert fired == [1]
    assert eng.now == 5.0
    eng.run()
    assert fired == [1, 10]


def test_run_until_predicate():
    eng = Engine()
    hits = []
    for i in range(10):
        eng.call_at(float(i), hits.append, i)
    eng.run_until(lambda: len(hits) >= 3)
    assert hits == [0, 1, 2]


def test_run_until_predicate_raises_on_drain():
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        eng.run_until(lambda: False)


def test_run_is_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.call_at(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_run_until_is_not_reentrant():
    # regression: run_until() used to skip the _running guard entirely,
    # so a callback could re-enter the scheduling loop and corrupt `now`
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run_until(lambda: True)
        except SimulationError as exc:
            errors.append(exc)

    eng.call_at(1.0, nested)
    eng.call_at(2.0, lambda: None)
    eng.run()
    assert len(errors) == 1
    assert eng.now == 2.0


def test_run_until_guard_resets_after_error():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.run_until(lambda: False)  # drains with predicate unmet
    # the guard must be released even when run_until raises
    eng.call_at(eng.now + 1.0, lambda: None)
    eng.run_until(lambda: eng.pending == 0)


def test_step_returns_false_when_idle():
    eng = Engine()
    assert eng.step() is False


def test_max_events_guard_catches_livelock():
    eng = Engine()

    def respawn():
        eng.call_soon(respawn)

    eng.call_soon(respawn)
    with pytest.raises(SimulationError):
        eng.run(max_events=100)


def test_events_fired_counter():
    eng = Engine()
    for i in range(5):
        eng.call_at(float(i), lambda: None)
    eng.run()
    assert eng.events_fired == 5


def test_peek_time_skips_cancelled():
    eng = Engine()
    ev = eng.call_at(1.0, lambda: None)
    eng.call_at(2.0, lambda: None)
    ev.cancel()
    assert eng.peek_time() == 2.0


# ----------------------------------------------------------------------
# Run-scoped collector policy
# ----------------------------------------------------------------------

def _collector_state():
    return gc.get_threshold(), gc.get_freeze_count()


def test_collector_policy_applies_inside_run_and_run_until():
    seen = []

    def probe():
        seen.append((gc.get_freeze_count(), gc.get_threshold()[0]))

    eng = Engine()
    eng.call_at(1.0, probe)
    eng.run()
    eng.call_at(2.0, probe)
    eng.run_until(lambda: len(seen) == 2)
    assert len(seen) == 2
    for frozen, gen0 in seen:
        assert frozen > 0
        assert gen0 == RUN_GC_THRESHOLD


def test_collector_policy_leaves_no_trace_after_return():
    before = _collector_state()
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    eng.run()
    assert _collector_state() == before
    eng.call_at(2.0, lambda: None)
    eng.run_window(3.0)
    assert _collector_state() == before
    eng.call_at(4.0, lambda: None)
    eng.run_until(lambda: eng.pending == 0)
    assert _collector_state() == before


def _boom():
    raise RuntimeError("callback failed")


def _respawn_forever(eng):
    eng.call_soon(_respawn_forever, eng)


@pytest.mark.parametrize(
    "drive, exc",
    [
        (lambda eng: (eng.call_at(1.0, _boom), eng.run()), RuntimeError),
        (lambda eng: (eng.call_at(1.0, _boom), eng.run_until(lambda: False)), RuntimeError),
        (
            lambda eng: (eng.call_soon(_respawn_forever, eng), eng.run(max_events=100)),
            SimulationError,
        ),
        (
            lambda eng: (
                eng.call_soon(_respawn_forever, eng),
                eng.run_until(lambda: False, max_events=100),
            ),
            SimulationError,
        ),
        (lambda eng: (eng.call_at(1.0, lambda: None), eng.run_until(lambda: False)),
         SimulationError),
    ],
    ids=["run-raising-callback", "run_until-raising-callback", "run-livelock",
         "run_until-livelock", "run_until-heap-drained"],
)
def test_collector_policy_restored_on_error_paths(drive, exc):
    before = _collector_state()
    with pytest.raises(exc):
        drive(Engine())
    assert _collector_state() == before


def test_collector_policy_nested_engine_keeps_outer_policy():
    # an engine driven from inside another engine's callback must not
    # hand the collector back while the outer run still owns it
    inner_after = []

    def drive_inner():
        inner = Engine()
        inner.call_at(1.0, lambda: None)
        inner.run()
        inner_after.append((gc.get_freeze_count() > 0, gc.get_threshold()[0]))

    before = _collector_state()
    outer = Engine()
    outer.call_at(1.0, drive_inner)
    outer.run()
    assert inner_after == [(True, RUN_GC_THRESHOLD)]
    assert _collector_state() == before


def test_collector_policy_concurrent_runs_restore_state(monkeypatch):
    # the inline shard backend drives engines from concurrent threads.
    # Force the bad interleaving: run A is paused right after reading
    # "not frozen", run B enters meanwhile, then B exits before A.
    # Unsynchronized, A would save B's raised threshold and restore it.
    import repro.sim.engine as engine_mod

    a_checked = threading.Event()
    a_in_run = threading.Event()

    class PausingGc:
        def __getattr__(self, name):
            return getattr(gc, name)

        def get_freeze_count(self):
            count = gc.get_freeze_count()
            if threading.current_thread().name == "run-a" and not a_checked.is_set():
                a_checked.set()
                time.sleep(0.2)  # B gets the whole window to enter
            return count

    monkeypatch.setattr(engine_mod, "gc", PausingGc())

    def run_b():
        a_checked.wait(timeout=5)
        eng = Engine()
        eng.call_at(1.0, a_in_run.wait, 5)
        eng.run()

    thread_b = threading.Thread(target=run_b, name="run-b")

    def run_a():
        eng = Engine()
        eng.call_at(1.0, lambda: (a_in_run.set(), thread_b.join(timeout=5)))
        eng.run()

    thread_a = threading.Thread(target=run_a, name="run-a")
    before = _collector_state()
    thread_b.start()
    thread_a.start()
    thread_a.join(timeout=10)
    thread_b.join(timeout=10)
    assert not thread_a.is_alive() and not thread_b.is_alive()
    assert a_in_run.is_set()
    assert _collector_state() == before
