"""Run one workload once in this interpreter and print its raw result.

    python3 perfbench/worker.py --workload fig5_san --seed 0 --t0 <monotonic>
        --pace-before <seconds> [--setup-only] [--profile]

``run.py`` spawns this in a fresh interpreter per repetition, passing
the monotonic clock reading it took just before the spawn and the
reference-kernel sample it took just before that (``pace.py``).  The last
stdout line is one JSON object.  ``--profile`` runs the workload under
cProfile with timers around ``ChunkStore.lease/commit/fetch`` and adds
the per-layer host self times.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import os
import pathlib
import pstats
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Probe  # noqa: E402

#: ``repro`` subpackages reported as layers; every other frame (stdlib,
#: builtins, numpy, other repro modules, this benchmark) is ``other``.
LAYERS = ("sim", "kernel", "hardware", "mpi", "apps", "core", "coord",
          "store", "service", "obs")


def layer_of(filename: str) -> str:
    marker = "/repro/"
    idx = filename.rfind(marker)
    if idx < 0:
        return "other"
    head = filename[idx + len(marker):].split("/", 1)[0]
    return head if head in LAYERS else "other"


def _time_store_calls(totals: dict) -> None:
    """Wrap the public ChunkStore calls with host timers (traced run only)."""
    from repro.store import ChunkStore

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - t
        return wrapper

    for name in ("lease", "commit", "fetch"):
        totals[name] = 0.0
        setattr(ChunkStore, name, timed(name, getattr(ChunkStore, name)))


def _profiled(fn, probe: Probe, seed: int):
    store_s: dict[str, float] = {}
    _time_store_calls(store_s)
    prof = cProfile.Profile()
    t = time.perf_counter()
    prof.enable()
    try:
        out = fn(probe, seed)
    finally:
        prof.disable()
    wall = time.perf_counter() - t
    self_s = dict.fromkeys((*LAYERS, "other"), 0.0)
    for (filename, _line, _func), row in pstats.Stats(prof).stats.items():
        self_s[layer_of(filename)] += row[2]  # tottime
    out["profile"] = {
        "self_s": self_s,
        "wall_s": wall,
        "store_host_s": store_s,
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--pace-before", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--profile", action="store_true")
    args = ap.parse_args(argv)

    probe = Probe(args.t0, args.pace_before, setup_only=args.setup_only)
    fn = WORKLOADS[args.workload]
    if args.profile:
        # not paced: the traced run's figures are raw host seconds
        out = _profiled(fn, probe, args.seed)
    else:
        probe.start_pacing()
        try:
            out = fn(probe, args.seed) or {}
        finally:
            probe.stop_pacing()
    cpu = os.times()
    out.update(
        host=probe.host_seconds(scaled=False),
        scaled=probe.host_seconds(scaled=True),
        pace=[probe.pace_before] + [secs for _, _, secs in probe.pauses],
        attempted=probe.attempted,
        failures=probe.failures,
        check_errors=probe.check_errors,
        cpu_s=cpu.user + cpu.system,
        wall_s=time.monotonic() - args.t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
