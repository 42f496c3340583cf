"""Host-time benchmark for DMTCP checkpoint/restart (see README.md).

    python3 perfbench/run.py --workload fig5_san --seed 0 --seconds 20 --trace 0

Runs the workload in fresh single-threaded interpreters, one at a time,
as often as fits in ``--seconds`` (at least twice), and prints every
metric by name and unit.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics (medians over the repetitions); ``--trace 1``
runs once untraced and once under cProfile and gives the per-layer
metrics.  Every repetition of a run uses the same seed, so their
simulated results must agree exactly: a mismatch fails the self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import pace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: one interpreter thread per worker: no BLAS thread pools
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
#: host-seconds metrics, reported at the reference pace (pace.py)
HOST_SECONDS = ("setup_s", "host_app_s", "host_ckpt_s", "host_restart_s",
                "host_total_s")

#: full repetitions per untraced run, at least (the determinism guard
#: compares them)
MIN_REPS = 2
#: set-up samples per untraced run, topped up with set-up-only starts
SETUP_SAMPLES = 7
#: the per-layer self times must account for this share of traced time
MIN_TRACE_COVERAGE = 0.9
#: per-interpreter limit; a run has 180 s in all
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, *flags: str) -> dict:
    """One fresh interpreter running one repetition; returns its JSON."""
    pace_before = pace.sample()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--t0", repr(t0), "--pace-before", repr(pace_before),
         *flags],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        env=CHILD_ENV,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {workload} {' '.join(flags)} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_context() -> dict:
    sys.path.insert(0, str(ROOT))
    from benchmarks._util import calibrate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibrate_s": calibrate(),
    }


def _simulated(rep: dict) -> dict:
    """The fields that must repeat exactly for one seed."""
    return {k: rep[k] for k in ("sim", "layers", "digest", "events",
                                "app_events", "samples", "first_ckpt_s",
                                "attempted", "failures")}


def determinism_errors(reps: list[dict]) -> list[str]:
    first = _simulated(reps[0])
    return [
        f"repetition {i} differs from repetition 0 in simulated output "
        f"(digest {rep['digest'][:12]} vs {reps[0]['digest'][:12]})"
        for i, rep in enumerate(reps[1:], 1)
        if _simulated(rep) != first
    ]


def end_to_end(reps: list[dict], setup: list[float], key: str) -> dict:
    metrics = {"setup_s": statistics.median(setup)}
    for name in HOST_SECONDS[1:]:
        metrics[name] = statistics.median(r[key][name] for r in reps)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    metrics.update(reps[0]["sim"])
    return metrics


def per_layer(plain: dict, traced: dict, ctx: dict, names) -> dict:
    """Per-layer metrics; 0 where a workload does not use the layer."""
    metrics = dict.fromkeys(names, 0.0)
    prof = traced["profile"]
    for layer, secs in prof["self_s"].items():
        metrics[f"{layer}.self_s"] = secs
    for call, secs in prof["store_host_s"].items():
        metrics[f"store.{call}_host_s"] = secs
    metrics.update(plain["layers"])
    total = plain["host"]["host_total_s"]
    metrics["sim.events"] = plain["events"]
    metrics["sim.host_us_per_event"] = 1e6 * plain["scaled"]["host_total_s"] / plain["events"]
    metrics["host.cpu_s"] = plain["cpu_s"]
    metrics["host.cpu_share"] = plain["cpu_s"] / plain["wall_s"]
    metrics["host.calibrate_s"] = ctx["calibrate_s"]
    metrics["trace.overhead_s"] = traced["host"]["host_total_s"] - total
    metrics["trace.coverage"] = sum(prof["self_s"].values()) / prof["wall_s"]
    return metrics


def main(argv=None) -> int:
    # workload and metric names with units: the benchmark's manifest
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ctx = host_context()
    print(f"host: nproc={ctx['nproc']} python={ctx['python']} "
          f"platform={ctx['platform']} calibrate_s={ctx['calibrate_s']:.4f}")
    if args.trace:
        reps = [run_worker(args.workload, args.seed),
                run_worker(args.workload, args.seed, "--profile")]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(reps[0], reps[1], ctx, units)
        coverage_error = metrics["trace.coverage"] < MIN_TRACE_COVERAGE
    else:
        # repeat while another repetition of median length still fits
        reps, took = [], []
        start = time.monotonic()
        while len(reps) < MIN_REPS or (
            time.monotonic() - start + statistics.median(took) <= args.seconds
        ):
            t = time.monotonic()
            reps.append(run_worker(args.workload, args.seed))
            took.append(time.monotonic() - t)
        setup_reps = list(reps)
        while len(setup_reps) < SETUP_SAMPLES:
            setup_reps.append(run_worker(args.workload, args.seed, "--setup-only"))
        raw = end_to_end(reps, [r["host"]["setup_s"] for r in setup_reps], "host")
        metrics = end_to_end(reps, [r["scaled"]["setup_s"] for r in setup_reps], "scaled")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        coverage_error = False
        paces = [p for r in setup_reps for p in r["pace"]]
        print(f"repetitions: {len(reps)} full, {len(setup_reps)} set-up samples; "
              f"pace median {statistics.median(paces):.5f} s vs reference "
              f"{pace.REFERENCE_S} s; host.cpu_share "
              f"{reps[0]['cpu_s'] / reps[0]['wall_s']:.3f}")
        print("unscaled host seconds (medians): " + ", ".join(
            f"{k}={raw[k]:.4f}" for k in HOST_SECONDS))

    errors = [e for r in reps for e in r["check_errors"]]
    errors += determinism_errors(reps)
    if coverage_error:
        errors.append(f"layer self times cover {metrics['trace.coverage']:.3f} "
                      f"of traced host time, < {MIN_TRACE_COVERAGE}")
    first = reps[0]
    print(f"workload {args.workload} seed {args.seed}: sim.events={first['events']} "
          f"app_events={first['app_events']} digest={first['digest']}")
    print(f"tenant checkpoint latency samples: {first['samples']}; "
          f"first checkpoint {first['first_ckpt_s']!r} virtual s")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    attempted, failed = first["attempted"], len(first["failures"])
    print(f"operations: {attempted} attempted, {failed} failed")
    for cause in first["failures"]:
        print(f"  failed: {cause}")
    for err in errors:
        print(f"  SELF-CHECK FAILED: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
