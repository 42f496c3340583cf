"""The benchmark's four workloads, driven through the public repro APIs.

Each workload builds its inputs from a seed, drives ``build_cluster`` /
``build_world``, ``DmtcpComputation``, ``ChunkStore`` or the
``CoordinatorHub`` + ``ClusterScheduler`` service, and times those calls
from outside with a :class:`Probe`.  Nothing here reaches into the
program to time it; the traced run (``worker.py --profile``) adds
cProfile and ``ChunkStore`` timers around the same calls.

Two clocks are kept apart: ``Probe`` records *host* seconds (this Python
process), the returned ``sim`` block holds *virtual* seconds and counts,
which repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import signal
import time
from dataclasses import dataclass

import pace

MB = 2**20

#: Fig. 5b point: 128 ParGeant4 ranks under MPICH2, 4 per node.
FIG5_RANKS = 128
FIG5_NODES = 32
FIG5_WARMUP_S = 8.0
#: checkpoint rounds before the kill checkpoint (>= 3 store generations)
FIG5_ROUNDS = 3
#: committed first-checkpoint duration of the seed-0 SAN point
#: (benchmarks/baselines/perf_core_baseline.json, fig5_128_san)
FIG5_SAN_SEED0_CKPT_S = 5.761128027217815

COORD_PROCS = 4096
COORD_NODES = 256
COORD_FANOUT = 32
COORD_WARMUP_S = 0.5
COORD_ROUNDS = 1
#: each member's seeded heap is up to this size: the seed's only effect
#: on the simulation here, since sleeping threads do not change a
#: checkpoint's duration
COORD_HEAP_MAX = 256 * 1024

SVC_TENANTS = 32
SVC_RANKS = 8
SVC_SPARE_HOSTS = 2
SVC_INTERVAL_S = 1.0
SVC_HORIZON_S = 16.0
#: two spot-eviction waves between storms (run_service_point's spacing)
SVC_EVICTIONS_AT = (1.5, 8.5)
#: p95 needs >= 10 samples beyond it
SVC_MIN_CKPTS = 200

#: virtual seconds the engine runs after a restart before the check
POST_RESTART_S = 1.0
#: host seconds between reference-kernel samples (pace.py)
PACE_PERIOD_S = 0.3


@dataclass
class Region:
    """One timed call, in monotonic seconds; ``weight`` is how many units
    of the metric it holds (1 call, or storm epochs in service_storm)."""

    start: float
    end: float = 0.0
    weight: float = 1.0


class Probe:
    """Host-side measurements and operation outcomes of one run.

    Time starts at ``t0``, the monotonic reading the parent took just
    before it spawned this interpreter, so ``setup_s`` and
    ``host_total_s`` include interpreter start and imports.  While
    pacing, the reference kernel runs right before and after every timed
    call, and from a timer signal every ``PACE_PERIOD_S``.  The signal
    handler runs to completion between two bytecodes of the workload, so
    each pause lies wholly before or after any clock reading, and is
    left out of every host figure.
    """

    def __init__(self, t0: float, pace_before: float, setup_only: bool = False):
        self.t0 = t0
        self.setup_only = setup_only
        self.regions: dict[str, list[Region]] = {}
        self.pace_before = pace_before
        #: (start, end, reference-kernel seconds) of each pause
        self.pauses: list[tuple[float, float, float]] = []
        self.pacing = False
        self._sampling = False
        self.attempted = 0
        #: one cause string per failed operation
        self.failures: list[str] = []
        #: self-check violations (harness or determinism, not the program)
        self.check_errors: list[str] = []

    def _sample(self) -> None:
        # the guard keeps a timer sample from landing inside another one
        if not self.pacing or self._sampling:
            return
        self._sampling = True
        start = time.monotonic()
        secs = pace.sample()
        self.pauses.append((start, time.monotonic(), secs))
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start_pacing(self) -> None:
        self.pacing = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)

    def stop_pacing(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.pacing = False

    @contextlib.contextmanager
    def timed(self, name: str):
        self._sample()
        region = Region(time.monotonic())
        yield region
        region.end = time.monotonic()
        self._sample()
        self.regions.setdefault(name, []).append(region)

    def since_start(self, name: str) -> None:
        self.regions[name] = [Region(self.t0, time.monotonic())]
        self._sample()

    def _clock(self, t: float) -> float:
        """Seconds from ``t0`` to monotonic ``t``, pauses left out."""
        return t - self.t0 - sum(end - start for start, end, _ in self.pauses
                                 if start < t)

    def host_seconds(self, scaled: bool) -> dict[str, float]:
        """Each metric's seconds per unit: raw, or at the reference pace."""
        samples = [(0.0, self.pace_before)] + [
            (self._clock(start), secs) for start, _, secs in self.pauses
        ]

        def length(r: Region) -> float:
            a, b = self._clock(r.start), self._clock(r.end)
            return pace.scaled(samples, a, b) if scaled else b - a

        return {
            name: sum(map(length, regions)) / sum(r.weight for r in regions)
            for name, regions in self.regions.items()
        }

    def op(self, cause: str | None) -> None:
        """Count one operation; ``cause`` is None when it succeeded."""
        self.attempted += 1
        if cause is not None:
            self.failures.append(cause)


def _seeded_gaps(seed: int, n: int) -> list[float]:
    """Virtual app seconds between checkpoint rounds: the seeded input."""
    rng = random.Random(seed)
    return [rng.uniform(0.25, 1.0) for _ in range(n)]


def _pct(values: list[float], p: float) -> float:
    """The scheduler report's percentile rule (index ``int(p * n)``)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _failure_causes(failures, since: int) -> list[str]:
    """``program: exception`` for each FailureLog entry after ``since``."""
    new = failures.total - since
    if not new:
        return []
    out = []
    for task, exc in list(failures)[-new:]:
        process = getattr(task.context, "process", None)
        out.append(f"{getattr(process, 'program', '?')}: {exc!r}")
    return out


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _checkpoint_restart(probe: Probe, world, comp, gaps: list[float]) -> dict:
    """Checkpoint rounds, the kill checkpoint, restart, post-restart check.

    Every checkpoint and the restart is one operation.  A checkpoint
    fails if it does not record every member or a task died during it;
    the restart fails unless, ``POST_RESTART_S`` later, every
    checkpointed process is a live member and no task died.
    """
    engine = world.engine
    failures = world.scheduler.failures
    store = comp.store
    outcomes, stored_bytes = [], []
    for gap in [*gaps, None]:
        kill = gap is None
        members = comp.state.member_count
        failed_before = failures.total
        payload_before = store.stats["stored_payload_bytes"] if store else 0.0
        with probe.timed("host_ckpt_s"):
            outcome = comp.checkpoint(kill=kill)
        outcomes.append(outcome)
        stored = outcome.total_stored_bytes
        if store is not None:
            # the k-1 background replicas of every chunk this round committed
            stored += (store.replicas - 1) * (
                store.stats["stored_payload_bytes"] - payload_before
            )
        stored_bytes.append(stored)
        causes = _failure_causes(failures, failed_before)
        if len(outcome.records) != members:
            causes.append(f"{len(outcome.records)} of {members} members recorded")
        probe.op("; ".join(causes) if causes else None)
        if not kill:
            engine.run(until=engine.now + gap)
    kill_outcome = outcomes[-1]

    failed_before = failures.total
    with probe.timed("host_restart_s"):
        restart = comp.restart(plan=kill_outcome.plan)
    engine.run(until=engine.now + POST_RESTART_S)
    probe.since_start("host_total_s")
    expected = {(r.hostname, r.vpid) for r in kill_outcome.records}
    live = {(m["host"], m["vpid"]) for m in comp.state.members.values()}
    causes = _failure_causes(failures, failed_before)
    missing = expected - live
    if missing:
        causes.append(
            f"{len(expected)} processes checkpointed, {len(expected & live)} live members"
        )
    probe.op("; ".join(causes) if causes else None)

    records = [r for o in outcomes for r in o.records]
    ckpt_stages = {
        name: _mean(r.stages.get(name, 0.0) for r in records)
        for name in ("suspend", "elect", "drain", "write", "refill")
    }
    restart_stages = {
        name: _mean(r["stages"].get(name, 0.0) for r in restart.records)
        for name in ("restore_files", "reconnect", "restore_memory")
    }
    latencies = [o.duration for o in outcomes]
    sim = {
        "sim_ckpt_s": _mean(latencies),
        "sim_restart_s": restart.duration,
        "stored_mb": _mean(stored_bytes) / MB,
        "sim_tenant_ckpt_p50_s": _pct(latencies, 0.50),
        "sim_tenant_ckpt_p95_s": _pct(latencies, 0.95),
    }
    barriers = [s["release_t"] - s["open_t"] for s in comp.state.barrier_stats]
    layers = {
        **{f"stage.{k}_s": v for k, v in {**ckpt_stages, **restart_stages}.items()},
        "mtcp.image_mb": _mean(o.total_image_bytes for o in outcomes) / MB,
        "mtcp.compress_ratio": sum(r.stored_bytes for r in records)
        / sum(r.image_bytes for r in records),
        "coord.root_messages": comp.state.barrier_messages,
        "coord.barrier_mean_s": _mean(barriers),
        "coord.barrier_max_s": max(barriers, default=0.0),
    }
    if store is not None:
        summary = store.summary()
        layers.update({
            f"store.{k}": summary[k]
            for k in ("dedup_ratio", "dedup_hits", "cache_hit_fetches",
                      "replications", "degraded_reads")
        })
    fingerprints = sorted(
        f"{r.ckpt_id}:{r.hostname}:{r.vpid}:{r.program}:"
        f"{r.image_bytes}:{r.stored_bytes}"
        for r in records
    ) + sorted(f"restart:{r['host']}:{r['vpid']}:{r['program']}" for r in restart.records)
    return {
        "sim": sim,
        "layers": layers,
        "samples": len(latencies),
        "first_ckpt_s": latencies[0],
        "digest": _digest({**sim, **ckpt_stages, **restart_stages,
                           "records": fingerprints}),
    }


def _fig5(probe: Probe, seed: int, store: bool):
    from repro.core.launch import DmtcpComputation
    from repro.harness.experiment import build_world
    from repro.harness.fig4 import register_fig4
    from repro.kernel.filesystem import Namespace

    world = build_world(FIG5_NODES, seed, with_san=not store)
    register_fig4(world)
    if not store:
        # Fig. 5b: one checkpoint directory shared by every node
        shared = Namespace("san:ckpt")
        for ns in world.nodes.values():
            ns.mounts.add("/san", shared, "san")
    comp = DmtcpComputation(
        world,
        compression=True,
        ckpt_dir="/tmp/dmtcp" if store else "/san/dmtcp",
        store=store,
        store_replicas=2 if store else None,
    )
    comp.launch(
        "node00",
        "mpich2_job",
        ["mpich2_job", str(FIG5_RANKS), "pargeant4", "1000000", "0.05"],
        env={"MPI_LAZY_CONNECT": "1"},
    )
    probe.since_start("setup_s")
    if probe.setup_only:
        return None
    with probe.timed("host_app_s"):
        world.engine.run(until=FIG5_WARMUP_S)
    app_events = world.engine.events_fired
    out = _checkpoint_restart(probe, world, comp, _seeded_gaps(seed, FIG5_ROUNDS))
    if not store and seed == 0 and out["first_ckpt_s"] != FIG5_SAN_SEED0_CKPT_S:
        probe.check_errors.append(
            f"seed-0 first checkpoint {out['first_ckpt_s']!r} != committed "
            f"{FIG5_SAN_SEED0_CKPT_S!r}"
        )
    out["app_events"] = app_events
    out["events"] = world.engine.events_fired
    return out


def fig5_san(probe: Probe, seed: int):
    return _fig5(probe, seed, store=False)


def fig5_store(probe: Probe, seed: int):
    return _fig5(probe, seed, store=True)


def _sleeper(sys, argv):
    yield from sys.sbrk(int(argv[1]), "text")
    while True:
        yield from sys.sleep(1.0)


def coord_tree_4k(probe: Probe, seed: int):
    from repro.cluster import build_cluster
    from repro.core.launch import DmtcpComputation

    world = build_cluster(n_nodes=COORD_NODES, seed=seed)
    world.register_program("coordscale_member", _sleeper)
    comp = DmtcpComputation(world, compression=False, tree_fanout=COORD_FANOUT)
    hostnames = world.machine.hostnames
    rng = random.Random(seed)
    for i in range(COORD_PROCS):
        heap = rng.randrange(COORD_HEAP_MAX)
        comp.launch(hostnames[i % COORD_NODES], "coordscale_member",
                    ["coordscale_member", str(heap)])
    probe.since_start("setup_s")
    if probe.setup_only:
        return None
    with probe.timed("host_app_s"):
        world.engine.run(until=COORD_WARMUP_S)
    app_events = world.engine.events_fired
    out = _checkpoint_restart(probe, world, comp, _seeded_gaps(seed, COORD_ROUNDS))
    out["app_events"] = app_events
    out["events"] = world.engine.events_fired
    return out


def service_storm(probe: Probe, seed: int):
    """32 tenants x 8 ranks on one batched hub, 1 s synchronized storms.

    Open loop in virtual time: the scheduler fires every running
    tenant's checkpoint on the epoch tick whatever the hub's backlog.
    The horizon is run in segments so host time splits into storm
    epochs and eviction recoveries; the segment boundaries add no
    events.
    """
    from repro.cluster import build_cluster
    from repro.harness.service import service_spec
    from repro.service import ClusterScheduler, CoordinatorHub, TenantRegistry

    world = build_cluster(
        n_nodes=1 + SVC_TENANTS + SVC_SPARE_HOSTS, spec=service_spec(), seed=seed
    )
    hub = CoordinatorHub(world, batched=True)
    registry = TenantRegistry(world, hub)
    sched = ClusterScheduler(
        world, registry, hub,
        worker_hosts=world.machine.hostnames[1:],
        seed=seed,
        interval_s=SVC_INTERVAL_S,
    )
    # long-lived tenants: every epoch storms at full strength
    sched.generate_arrivals(
        SVC_TENANTS,
        mean_interarrival_s=0.02,
        slots_choices=(SVC_RANKS,),
        slices=int(2 * SVC_HORIZON_S / 0.05) + 100,
    )
    for at_t in SVC_EVICTIONS_AT:
        sched.schedule_eviction(at_t)
    sched.start()
    probe.since_start("setup_s")
    if probe.setup_only:
        return None
    engine = world.engine
    jobs = sched.jobs.values()
    with probe.timed("host_app_s"):
        engine.run(until=SVC_INTERVAL_S)
    unrecovered = 0
    for at_t in [*SVC_EVICTIONS_AT, None]:
        until = SVC_HORIZON_S if at_t is None else at_t
        evicted = {j.name: j.evictions for j in jobs}
        start_v = engine.now
        with probe.timed("host_ckpt_s") as storms:
            engine.run(until=until)
        # host_ckpt_s is per storm epoch
        storms.weight = (engine.now - start_v) / SVC_INTERVAL_S
        if at_t is None:
            break
        victims = [j for j in jobs if j.evictions > evicted[j.name]]
        with probe.timed("host_restart_s"):
            engine.run_until(
                lambda: engine.now >= SVC_HORIZON_S
                or all(v.state == "running" for v in victims)
            )
        unrecovered += sum(1 for v in victims if v.state != "running")
    sched.stop()
    probe.since_start("host_total_s")

    report = sched.report()
    latencies = sched.ckpt_latencies
    if len(latencies) < SVC_MIN_CKPTS:
        probe.check_errors.append(
            f"{len(latencies)} tenant checkpoints < {SVC_MIN_CKPTS} needed for p95"
        )
    for _ in latencies:
        probe.op(None)
    # a cross-tenant failure is charged on one of these aborts/refusals
    cross = report["cross_tenant_failures"]
    for kind in ("aborted_ckpts", "busy_refusals"):
        for _ in range(report[kind]):
            probe.op(f"tenant checkpoint {kind} ({cross} cross-tenant in run)")
    for i in range(report["eviction_recoveries"]):
        cause = None
        if i < unrecovered:
            cause = "evicted tenant not running again by the horizon"
        elif i < unrecovered + report["lost_work_violations"]:
            cause = "lost work beyond the interval + barrier-timeout bound"
        probe.op(cause)

    outcomes = [o for c in registry.tenants.values() for o in c.state.history]
    restarts = [r for c in registry.tenants.values() for r in c.state.restart_history]
    hub_stats = hub.stats()
    sim = {
        "sim_ckpt_s": _mean(latencies),
        "sim_restart_s": _mean(r.duration for r in restarts),
        "stored_mb": _mean(o.total_stored_bytes for o in outcomes) / MB,
        "sim_tenant_ckpt_p50_s": _pct(latencies, 0.50),
        "sim_tenant_ckpt_p95_s": _pct(latencies, 0.95),
    }
    layers = {
        "hub.messages": hub_stats["messages"],
        "hub.batches": hub_stats["batches"],
        "hub.mean_batch": hub_stats["mean_batch"],
        "hub.shed": hub_stats["shed"],
        "scheduler.checkpoints": report["checkpoints"],
        "scheduler.aborted_ckpts": report["aborted_ckpts"],
        "scheduler.busy_refusals": report["busy_refusals"],
        "scheduler.eviction_recoveries": report["eviction_recoveries"],
    }
    report.pop("hub")
    return {
        "sim": sim,
        "layers": layers,
        "samples": len(latencies),
        "first_ckpt_s": latencies[0],
        "app_events": None,
        "events": engine.events_fired,
        "digest": _digest({**sim, "latencies": latencies, "report": report,
                           "hub": hub_stats}),
    }


WORKLOADS = {
    "fig5_san": fig5_san,
    "fig5_store": fig5_store,
    "coord_tree_4k": coord_tree_4k,
    "service_storm": service_storm,
}
