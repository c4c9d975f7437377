"""helmray benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload rays --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The four workloads, why each was chosen and
the metrics they report are listed in BENCHMARK.json and perfbench/README.md.

Every workload runs in a fresh worker process (perfbench/worker.py), one call
at a time, so that its peak resident memory belongs to it alone.

* ``--trace 0`` reports the end-to-end metrics.  Four extra workers only set
  up, time the host-speed probe (perfbench/probe.py) three times and exit.
  ``setup_s`` is the set-up time at nominal host speed: the median, over
  them and the main worker, of (set-up time / median probe time of that
  process) times the probe's nominal time.  The main worker makes one untimed warm-up pass over the
  workload's operations, then repeats passes for ``--seconds`` (at least
  one), timing the probe before every operation.  ``wall_norm_s`` is the time of one pass at nominal host speed:
  the sum, over the workload's operations, of the median of (operation time /
  mean of the probes either side) times the probe's nominal time.  The raw
  pass time, the sum of median operation times, is ``wall_s`` in the detail
  line, beside the raw set-up times.  Correctness checks are not timed.
* ``--trace 1`` reports the per-layer metrics: after a warm-up pass each, one
  untraced pass in one worker and one pass under the span recorder
  (perfbench/tracing.py) in a second worker.  ``trace_overhead_frac``
  compares the two; ``wall_s`` is the untraced pass and ``host_probe_s`` the
  median probe time around it.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  A
failed operation (it raised, or its output missed the check tolerance) makes
``correct`` false; the run still exits 0.  The exit code is not 0 when the
benchmark itself cannot run, for example without the package sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rays", "scatter_solve", "resolvent_fem2d", "resolvent_modal")
SETUP_ONLY_WORKERS = 4
# Workers run with one BLAS thread (at most nproc), string
# hashing fixed and address randomization off.  No timed path gains from a
# second BLAS thread (the scatter_solve factorization takes 12.4 s with one
# and with two).  With threads, randomized hashing or randomized addresses,
# peak RSS of identical resolvent_modal runs took one of several values up to
# 20 % apart; with all three fixed, four runs gave 218.18 MB each.
BLAS_THREADS = 1
ADDR_NO_RANDOMIZE = 0x0040000   # <sys/personality.h>
DEADLINE_S = 170.0      # a run must end within 180 s


class BenchError(Exception):
    pass


def fixed_layout():
    """Turn address-space randomization off, as `setarch -R` does.

    Runs in the child between fork and exec; the flag survives the exec.
    """
    personality = ctypes.CDLL(None).personality
    personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
    current = personality(0xFFFFFFFF)       # query without changing
    personality(current | ADDR_NO_RANDOMIZE)


def worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(args, env, deadline, *extra):
    """Run one worker to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    # the worker measures set-up from this instant
    cmd += ["--t-spawn", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context(args, nproc, rep):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "nproc": nproc,
            "blas_threads": BLAS_THREADS, "commit": commit(), **rep["context"]}


def measure(args, env, deadline):
    """End-to-end metrics of one untraced run."""
    reps = [start_worker(args, env, deadline, "--setup-only") for _ in range(SETUP_ONLY_WORKERS)]
    rep = start_worker(args, env, deadline, "--seconds", repr(args.seconds))
    reps.append(rep)
    # each process's set-up time over the median probe it timed, as wall_norm_s
    setup_ratios = [r["setup_s"] / statistics.median(r["probes"]) for r in reps]
    metrics = {"wall_norm_s": rep["nominal_probe_s"] * sum(statistics.median(r)
                                                           for r in rep["op_ratios"].values()),
               "setup_s": rep["nominal_probe_s"] * statistics.median(setup_ratios),
               "peak_rss_mb": rep["peak_rss_mb"]}
    setups = [r["setup_s"] for r in reps]
    info = {"wall_s": sum(statistics.median(t) for t in rep["op_times"].values()),
            "probe_s": statistics.median(rep["probes"]), "warmup_s": rep["warmup_s"],
            "passes": rep["passes"], "op_times": rep["op_times"], "probes": rep["probes"],
            "setups": setups, "checks": rep["checks"]}
    return metrics, rep, info


def trace(args, env, deadline):
    """Per-layer metrics of one traced pass, plus the tracing overhead."""
    plain = start_worker(args, env, deadline)
    rep = start_worker(args, env, deadline, "--trace")
    metrics = dict(rep["per_layer"])
    metrics["trace_overhead_frac"] = rep["passes"][0] / plain["passes"][0] - 1.0
    metrics["wall_s"] = plain["passes"][0]
    metrics["host_probe_s"] = statistics.median(plain["probes"])
    rep["attempted"] += plain["attempted"]
    rep["failures"] += plain["failures"]
    info = {"untraced_pass_s": plain["passes"][0], "traced_pass_s": rep["passes"][0],
            "nesting_violations": rep["nesting_violations"], "spans": rep["spans"],
            "checks": rep["checks"]}
    return metrics, rep, info


def main(argv=None):
    p = argparse.ArgumentParser(description="helmray benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the reduced problem sizes of the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "helmray" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a helmray checkout (src/helmray, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    try:
        metrics, rep, info = (trace if args.trace else measure)(args, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        print(f"perfbench: emitted metrics {sorted(metrics)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(json.dumps({"context": context(args, nproc, rep)}))
    print(json.dumps({"detail": info}))
    for failure in rep["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(rep["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rep["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
