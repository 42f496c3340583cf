"""Incremental checkpointing tests.

Incremental checkpointing is the chunk store's generation dedup
(``store=True, store_replicas=1``): each checkpoint stores only the
chunks written since the previous generation, and restart reads one
manifest per process.  Also covers the parallel-gzip cost model, the
compression-estimate cache, and the unchanged behaviour of the default
(full-image) pipeline.
"""

import pytest

from repro.cluster import build_cluster
from repro.config import CpuSpec
from repro.core import compression
from repro.core.launch import DmtcpComputation
from repro.kernel.world import HIJACK_ENV

#: The incremental configuration: a single-replica local chunk store.
INCREMENTAL = {"store": True, "store_replicas": 1}


@pytest.fixture()
def world():
    return build_cluster(n_nodes=2, seed=23)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def toucher_program(fraction: float = 0.2, mb: int = 8):
    """An app that dirties ``fraction`` of one numeric region per tick."""

    def main(sys, argv):
        region = yield from sys.mmap(mb * 2**20, "numeric")
        for _ in range(2000):
            yield from sys.sleep(0.05)
            yield from sys.mem_touch(region, fraction)

    return main


def app_process(world):
    return next(
        p for p in world.live_processes()
        if p.env.get(HIJACK_ENV) and p.program == "toucher"
    )


def launch_toucher(world, fraction: float = 0.2, **comp_kwargs):
    world.register_program("toucher", toucher_program(fraction))
    comp = DmtcpComputation(world, **comp_kwargs)
    comp.launch("node00", "toucher")
    world.engine.run(until=1.0)
    return comp


def image_at(world, host, path):
    return world.node_state(host).mounts.resolve(path).namespace.lookup(path).payload


# ----------------------------------------------------------------------
# Generation dedup
# ----------------------------------------------------------------------

def test_second_checkpoint_is_delta_and_smaller(world):
    comp = launch_toucher(world, **INCREMENTAL)
    first = comp.checkpoint()
    hits_before = world.store.stats["dedup_hits"]
    world.engine.run(until=world.engine.now + 0.5)
    second = comp.checkpoint()
    # the unchanged chunks dedup against the first generation
    assert world.store.stats["dedup_hits"] > hits_before
    assert second.total_stored_bytes < first.total_stored_bytes
    # the manifest's region table still spans the full address space
    image = image_at(world, "node00", second.plan.images_by_host["node00"][0])
    assert image.ckpt_id == second.ckpt_id and image.store_refs
    space = app_process(world).address_space
    assert sum(r.size for r in image.regions) == space.total_bytes
    no_failures(world)


def test_regions_cleaned_at_barrier_five(world):
    comp = launch_toucher(world, **INCREMENTAL)
    space = app_process(world).address_space
    assert any(r.dirty_fraction == 1.0 for r in space.regions)  # born dirty
    comp.checkpoint()
    # every region was clean()ed at Barrier 5; the resumed app may have
    # re-touched at most one 0.2 tick of its anon region since
    assert all(r.dirty_fraction <= 0.2 for r in space.regions)
    assert all(
        r.dirty_fraction == 0.0 for r in space.regions if r.kind != "anon"
    )
    no_failures(world)


def test_incremental_disabled_keeps_default_pipeline(world):
    comp = launch_toucher(world)  # the paper's default: no store
    first = comp.checkpoint()
    second = comp.checkpoint()
    assert world.store is None
    # successive checkpoints overwrite the same stable filename
    assert first.plan.images_by_host == second.plan.images_by_host
    image = image_at(world, "node00", second.plan.images_by_host["node00"][0])
    assert image.store_refs is None
    assert image.gzip_workers == 1
    no_failures(world)


# ----------------------------------------------------------------------
# Restart
# ----------------------------------------------------------------------

def test_restart_on_different_node_restores_latest_generation(world):
    comp = launch_toucher(world, **INCREMENTAL)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.5)
    original_bytes = app_process(world).address_space.total_bytes
    kill = comp.checkpoint(kill=True)
    leaf = kill.plan.images_by_host["node00"][0]
    outcome = comp.restart(plan=kill.plan, placement={"node00": "node01"})
    assert outcome.records
    restored = app_process(world)
    assert restored.node.hostname == "node01"
    assert restored.address_space.total_bytes == original_bytes
    # one manifest travelled to the relocation target
    image = image_at(world, "node01", leaf)
    assert image.ckpt_id == kill.ckpt_id and image.store_refs
    # the app keeps running on the new node
    world.engine.run(until=world.engine.now + 1.0)
    assert restored.alive
    no_failures(world)


def test_incremental_restart_cost_does_not_grow_with_generations():
    # restart reads one manifest per process: however many generations
    # came before, it fetches and instantiates the same address space
    def run(kill_at):
        world = build_cluster(n_nodes=2, seed=23)
        comp = launch_toucher(world, **INCREMENTAL)
        kill = None
        for i in range(kill_at):
            kill = comp.checkpoint(kill=(i == kill_at - 1))
            world.engine.run(until=world.engine.now + 0.3)
        return comp.restart(plan=kill.plan).duration

    one = run(1)
    assert run(2) == pytest.approx(one, rel=1e-9)
    assert run(4) == pytest.approx(one, rel=1e-9)


# ----------------------------------------------------------------------
# Determinism and the full-vs-incremental comparison
# ----------------------------------------------------------------------

def _stored_sizes(seed: int) -> list[int]:
    world = build_cluster(n_nodes=2, seed=seed)
    comp = launch_toucher(world, **INCREMENTAL)
    sizes = []
    for _ in range(3):
        sizes.append(comp.checkpoint().total_stored_bytes)
        world.engine.run(until=world.engine.now + 0.4)
    no_failures(world)
    return sizes


def test_delta_sizes_deterministic_across_runs():
    first = _stored_sizes(seed=7)
    second = _stored_sizes(seed=7)
    assert first == second  # byte-identical, not merely close


def test_incremental_beats_full_on_mostly_clean_workload():
    # acceptance: >= 50% clean between checkpoints => the second
    # generation stores strictly fewer bytes and finishes in strictly
    # less simulated time than the full pipeline's second image
    def run(**comp_kwargs):
        world = build_cluster(n_nodes=2, seed=23)
        comp = launch_toucher(world, **comp_kwargs)
        comp.checkpoint()
        world.engine.run(until=world.engine.now + 0.5)
        second = comp.checkpoint()
        no_failures(world)
        return second

    full = run()
    incr = run(**INCREMENTAL)
    assert incr.total_stored_bytes < full.total_stored_bytes
    assert incr.duration < full.duration


# ----------------------------------------------------------------------
# Parallel compression model
# ----------------------------------------------------------------------

REGIONS = [
    (8 * 2**20, "numeric"),
    (2 * 2**20, "text"),
    (4 * 2**20, "code"),
    (1 * 2**20, "random"),
]


def test_parallel_gzip_charges_critical_path():
    cpu = CpuSpec(cores=4)
    serial = compression.estimate(REGIONS, cpu)
    par = compression.estimate(REGIONS, cpu, nworkers=4)
    longest = max(
        size / (cpu.gzip_bps * compression.speed_factor(p)) for size, p in REGIONS
    )
    assert par.compress_seconds < serial.compress_seconds
    assert par.compress_seconds >= longest
    # byte totals are schedule-independent
    assert par.input_bytes == serial.input_bytes
    assert par.output_bytes == serial.output_bytes
    # decompression parallelizes with the same ratio
    assert par.decompress_seconds == pytest.approx(
        par.compress_seconds / cpu.gunzip_speedup
    )


def test_single_worker_and_memcpy_paths_unchanged():
    cpu = CpuSpec()
    assert compression.estimate(REGIONS, cpu, nworkers=1) == compression.estimate(
        REGIONS, cpu
    )
    off = compression.estimate(REGIONS, cpu, enabled=False)
    assert compression.estimate(REGIONS, cpu, enabled=False, nworkers=8) == off
    assert off.output_bytes == off.input_bytes


# ----------------------------------------------------------------------
# Estimate cache
# ----------------------------------------------------------------------

def test_estimate_cache_hits_and_exact_values():
    cache = compression.EstimateCache()
    cpu = CpuSpec()
    direct = compression.estimate(REGIONS, cpu)
    got = cache.get(REGIONS, cpu)
    assert got == direct  # bit-identical to the uncached computation
    assert (cache.hits, cache.misses) == (0, 1)
    assert cache.get(REGIONS, cpu) is got
    # key is the region *multiset*: order cannot change the physics
    assert cache.get(list(reversed(REGIONS)), cpu) is got
    assert cache.hits == 2
    # different parameters are different entries
    cache.get(REGIONS, cpu, nworkers=4)
    cache.get(REGIONS, cpu, enabled=False)
    assert cache.misses == 3


def test_estimate_cache_lru_bound():
    cache = compression.EstimateCache(maxsize=2)
    cpu = CpuSpec()
    for size in (1000, 2000, 3000):
        cache.get([(size, "text")], cpu)
    assert len(cache._store) == 2
    cache.get([(1000, "text")], cpu)  # evicted: recomputes
    assert cache.misses == 4


def test_checkpoint_populates_estimate_cache(world):
    world.tracer.enable()
    comp = launch_toucher(world)  # default pipeline: whole-image estimates
    compression.ESTIMATE_CACHE.clear()
    comp.checkpoint()
    # build and write both estimate the same payload: one miss, one hit
    assert compression.ESTIMATE_CACHE.hits >= 1
    assert world.tracer.snapshot().get("mtcp.estimate_cache_hits", 0) >= 1
    no_failures(world)
