"""Hot-path behavior pins for the DESIGN.md §8 performance work.

Covers the properties the optimizations must not bend:

* the same-timestamp FIFO fast path replays the exact ``(time, seq)``
  firing order of the pure-heap engine (the determinism golden);
* a disabled tracer costs the event loop nothing (no per-event tracer
  attribute work at all);
* :class:`Chunk` stays slotted and frame reassembly stays intact;
* sparse (virtual-finish-time) fair-share completions match the dense
  per-job scan, for the bandwidth server and the page-cached disk;
* ``compare_results`` catches metric drift but tolerates wall noise;
* the committed ``BENCH_summary.json`` is exactly the merge of the
  committed ``BENCH_*.json`` it rolls up.
"""

import hashlib
import pathlib
import shutil

import pytest

import repro.hardware.resources as resources_mod
import repro.hardware.storage as storage_mod
from benchmarks._util import compare_results, merge_bench_summary
from repro.errors import SimulationError
from repro.hardware.resources import BandwidthResource
from repro.kernel.streams import (
    FRAME_HEADER_BYTES,
    ByteBuffer,
    Chunk,
    FrameAssembler,
    frame_chunks,
)
from repro.sim import Engine


# ----------------------------------------------------------------------
# Determinism golden: fast path on vs off
# ----------------------------------------------------------------------

def _firing_stream(fast_path: bool) -> list[tuple[float, int, str]]:
    """(time, seq, callback-name) of every event in one ckpt/restart run."""
    from repro.cluster import build_cluster
    from repro.core.launch import DmtcpComputation

    saved = Engine.fast_path
    Engine.fast_path = fast_path
    record: list[tuple[float, int, str]] = []

    def hook(ev):
        fn = ev.fn
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        record.append((ev.time, ev.seq, name))

    try:
        world = build_cluster(n_nodes=2, seed=0)

        def app(sys_, argv):
            for _ in range(12):
                yield from sys_.sleep(0.05)

        world.register_program("app", app)
        world.engine._debug_fire_hook = hook
        comp = DmtcpComputation(world)
        comp.launch("node00", "app")
        world.engine.run(until=0.3)
        outcome = comp.checkpoint(kill=True)
        comp.restart(plan=outcome.plan, placement={"node00": "node01"})
        world.engine.run(until=world.engine.now + 5.0)
    finally:
        Engine.fast_path = saved
    return record


def test_fast_path_firing_order_golden():
    fast = _firing_stream(True)
    slow = _firing_stream(False)
    # a real workload: hundreds of events through sockets, resources,
    # the scheduler trampoline and the DMTCP stages
    assert len(fast) > 300
    assert fast == slow
    # and the checksummed golden form both runs agree on
    digest = hashlib.sha256()
    for time_, seq, name in fast:
        digest.update(f"{time_!r} {seq} {name};".encode())
    assert digest.hexdigest() == hashlib.sha256(
        b"".join(f"{t!r} {s} {n};".encode() for t, s, n in slow)
    ).hexdigest()


def test_fast_path_uses_ready_deque():
    eng = Engine()
    hits = []
    eng.call_soon(hits.append, 1)
    assert len(eng._ready) == 1 and not eng._heap
    eng.run()
    assert hits == [1]


def test_heap_only_mode_when_fast_path_off():
    saved = Engine.fast_path
    Engine.fast_path = False
    try:
        eng = Engine()
        eng.call_soon(lambda: None)
        assert len(eng._heap) == 1 and not eng._ready
    finally:
        Engine.fast_path = saved


# ----------------------------------------------------------------------
# Zero-overhead tracing when disabled
# ----------------------------------------------------------------------

class _CountingStandInTracer:
    """Counts how often the engine touches it (no ``add_watcher``)."""

    def __init__(self):
        self.enabled_reads = 0
        self.count_calls = 0
        self._enabled = False

    @property
    def enabled(self):
        self.enabled_reads += 1
        return self._enabled

    def count(self, *args, **kwargs):
        self.count_calls += 1

    count_max = count


def test_disabled_tracer_costs_nothing_per_event():
    eng = Engine()
    tracer = _CountingStandInTracer()
    eng.tracer = tracer
    assert eng._trace_hot is None  # hoisted: disabled -> not in the loop

    n = 2000
    state = {"left": n}

    def tick():
        state["left"] -= 1
        if state["left"]:
            eng.call_after(0.001, tick)

    eng.call_soon(tick)
    eng.run()
    assert eng.events_fired == n
    # the engine consulted `enabled` once at attach time and never again:
    # per-event tracer work is exactly zero, independent of event count
    assert tracer.enabled_reads == 1
    assert tracer.count_calls == 0


def test_enabled_tracer_counts_and_toggles_off():
    from repro.obs.tracer import Tracer

    eng = Engine()
    tracer = Tracer(clock=lambda: eng.now, enabled=True)
    eng.tracer = tracer
    assert eng._trace_hot is tracer

    eng.call_soon(lambda: None)
    eng.run()
    assert tracer.counters.get("sim.events_fired") == 1

    tracer.disable()
    assert eng._trace_hot is None  # watcher rebound the hot slot
    eng.call_soon(lambda: None)
    eng.run()
    assert tracer.counters.get("sim.events_fired") == 1  # unchanged


# ----------------------------------------------------------------------
# Chunk stays slotted; frames still reassemble
# ----------------------------------------------------------------------

def test_chunk_is_slotted():
    chunk = Chunk(64)
    assert not hasattr(chunk, "__dict__")
    with pytest.raises(AttributeError):
        chunk.stray_attribute = 1


def test_frame_reassembly_roundtrip():
    payload = {"body": "x" * 50}
    sim_size = 200_000  # several FRAME_CHUNK_BYTES-sized wire chunks
    chunks = list(frame_chunks(payload, sim_size))
    assert len(chunks) > 1
    assert chunks[0].data is payload and all(c.data is None for c in chunks[1:])
    assert sum(c.nbytes for c in chunks) == sim_size + FRAME_HEADER_BYTES

    assembler = FrameAssembler()
    for chunk in chunks:
        assembler.feed(chunk)
    assert assembler.pop() == (payload, sim_size)
    assert assembler.pop() is None


# ----------------------------------------------------------------------
# ByteBuffer.try_reserve: synchronous grant without queue jumping
# ----------------------------------------------------------------------

def test_try_reserve_grants_and_refuses():
    buf = ByteBuffer(100)
    assert buf.try_reserve(60)
    assert buf.used == 60
    assert not buf.try_reserve(60)  # would exceed capacity
    assert buf.try_reserve(40)
    assert buf.used == 100


def test_try_reserve_never_jumps_the_waiter_queue():
    buf = ByteBuffer(100)
    assert buf.try_reserve(100)
    parked = buf.reserve(60)
    assert not parked.done
    buf.unreserve(30)  # space exists, but not enough for the waiter
    assert not buf.try_reserve(10)  # refused: a waiter is ahead of us
    buf.unreserve(40)
    assert parked.done  # FIFO waiter got the space first


def test_try_reserve_oversized_clamped_to_capacity():
    buf = ByteBuffer(100)
    assert buf.try_reserve(1000)  # like reserve(): occupies the whole buffer
    assert buf.used == 100


# ----------------------------------------------------------------------
# Sparse fair-share equivalence
# ----------------------------------------------------------------------

def _resource_completions(threshold, jobs, rate=1000.0, per_job_cap=None):
    """Completion times with the dense->sparse switch at ``threshold``."""
    saved = resources_mod.DENSE_MAX_JOBS
    resources_mod.DENSE_MAX_JOBS = threshold
    try:
        eng = Engine()
        res = BandwidthResource(eng, rate=rate, per_job_cap=per_job_cap)
        times = {}

        def submit(i, vol, cap):
            res.submit(vol, cap=cap).add_done(
                lambda: times.__setitem__(i, eng.now)
            )

        for i, (delay, vol, cap) in enumerate(jobs):
            if delay:
                eng.call_at(delay, submit, i, vol, cap)
            else:
                submit(i, vol, cap)
        eng.run()
        assert not res._sparse  # drained resources revert to dense mode
        assert res.active_jobs == 0
        # and the resource is reusable after the sparse episode
        done = []
        res.submit(rate).add_done(lambda: done.append(eng.now))
        eng.run()
        assert len(done) == 1
        return times
    finally:
        resources_mod.DENSE_MAX_JOBS = saved


SPARSE_JOBS = (
    [(0.0, 100.0 + 7.0 * i, 50.0 if i % 3 == 0 else None) for i in range(20)]
    + [(1.5, 80.0, 25.0), (1.5, 300.0, None), (2.0, 40.0, None)]
)


def test_sparse_completions_match_dense_scan():
    sparse = _resource_completions(8, SPARSE_JOBS, per_job_cap=200.0)
    dense = _resource_completions(10**9, SPARSE_JOBS, per_job_cap=200.0)
    assert set(sparse) == set(dense) == set(range(len(SPARSE_JOBS)))
    for key in dense:
        assert sparse[key] == pytest.approx(dense[key], rel=1e-9, abs=1e-9)


def test_sparse_completion_cost_is_logarithmic_in_jobs():
    # not a timing test: count engine events, which dominate host cost.
    # n same-cap jobs finishing together must complete in O(1) resource
    # events, not O(n) rescheduling rounds.
    eng = Engine()
    res = BandwidthResource(eng, rate=1000.0)
    for _ in range(200):
        res.submit(500.0)
    eng.run()
    assert eng.events_fired < 300  # dense per-job rescans would blow this


def test_zero_rate_job_stalls_loudly():
    eng = Engine()
    res = BandwidthResource(eng, rate=10.0)
    with pytest.raises(SimulationError, match="stalled with zero rates"):
        res.submit(5.0, cap=0.0)


def test_submit_on_done_skips_the_future():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    fired = []
    assert res.submit(500.0, on_done=lambda: fired.append(eng.now)) is None
    eng.run()
    assert fired == [pytest.approx(5.0)]


def test_submit_on_done_zero_volume_fires_immediately():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    fired = []
    assert res.submit(0.0, on_done=lambda: fired.append(True)) is None
    assert fired == [True]


# ----------------------------------------------------------------------
# Disk writers: sparse mode and sync ordering
# ----------------------------------------------------------------------

def _disk_write_completions(threshold, volumes):
    from repro.config import DiskSpec
    from repro.hardware.storage import PageCachedDisk

    saved = storage_mod.DENSE_MAX_JOBS
    storage_mod.DENSE_MAX_JOBS = threshold
    try:
        eng = Engine()
        spec = DiskSpec(
            disk_bps=10.0,
            cache_write_bps=100.0,
            cache_read_bps=200.0,
            dirty_ratio=0.4,
            op_latency_s=0.0,
        )
        disk = PageCachedDisk(eng, spec, ram_bytes=1000)
        times = {}
        for i, vol in enumerate(volumes):
            disk.write(vol).add_done(lambda i=i: times.__setitem__(i, eng.now))
        synced = []
        disk.sync().add_done(lambda: synced.append(eng.now))
        eng.run()
        assert len(synced) == 1
        # sync resolves only after every write (and the flush) finished
        assert synced[0] >= max(times.values())
        return times, synced[0]
    finally:
        storage_mod.DENSE_MAX_JOBS = saved


def test_disk_sparse_writers_match_dense_and_sync_last():
    volumes = [50.0 + 11.0 * i for i in range(14)]
    sparse, sparse_sync = _disk_write_completions(8, volumes)
    dense, dense_sync = _disk_write_completions(10**9, volumes)
    assert set(sparse) == set(dense)
    for key in dense:
        assert sparse[key] == pytest.approx(dense[key], rel=1e-9, abs=1e-9)
    assert sparse_sync == pytest.approx(dense_sync, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# compare_results: the bench regression arbiter
# ----------------------------------------------------------------------

def test_compare_results_identical_ok():
    doc = {"sim": {"checkpoint_s": 5.76}, "wall_s": 2.5, "name": "fig5"}
    ok, failures = compare_results(doc, dict(doc))
    assert ok and not failures


def test_compare_results_flags_simulated_drift():
    ok, failures = compare_results(
        {"sim": {"checkpoint_s": 5.76}}, {"sim": {"checkpoint_s": 5.77}}
    )
    assert not ok
    assert any("checkpoint_s" in f and "drift" in f for f in failures)


def test_compare_results_wall_noise_tolerated_but_regression_flagged():
    old = {"wall_s": 2.0}
    ok, _ = compare_results(old, {"wall_s": 2.4})  # +20% < 25% tolerance
    assert ok
    ok, _ = compare_results(old, {"wall_s": 1.0})  # getting faster is fine
    assert ok
    ok, failures = compare_results(old, {"wall_s": 2.6})  # +30%
    assert not ok and any("regression" in f for f in failures)


def test_compare_results_structure_mismatches_fail():
    ok, failures = compare_results({"a": 1, "b": "x"}, {"a": 1})
    assert not ok and any("missing" in f for f in failures)
    ok, failures = compare_results({"rows": [1, 2]}, {"rows": [1, 2, 3]})
    assert not ok and any("length" in f for f in failures)
    ok, failures = compare_results({"mode": "gzip"}, {"mode": "raw"})
    assert not ok


def test_committed_bench_summary_is_the_merge_of_its_inputs(tmp_path):
    # BENCH_summary.json is a derived roll-up: re-merging the committed
    # BENCH_*.json inputs must reproduce it byte for byte
    root = pathlib.Path(__file__).resolve().parent.parent
    for path in root.glob("BENCH_*.json"):
        if path.name != "BENCH_summary.json":
            shutil.copy(path, tmp_path / path.name)
    merged = merge_bench_summary(tmp_path)
    assert merged.read_text() == (root / "BENCH_summary.json").read_text()
