"""Run one workload in this process and print its raw result as one JSON line.

run.py starts this script with `src` on PYTHONPATH and BLAS threads pinned
to 1. The process sets up (imports, first round of inputs, one untimed
warm-up operation), then times whole rounds of operations until
`--seconds` have passed and at least MIN_OPS operations were attempted.
With `--trace 1`, rounds alternate untraced and traced, so the traced
per-layer figures and the tracing overhead come from the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Measuring stops after this many seconds whatever the operation count, so a
# run ends well inside its time limit even on a much slower program.
HARD_CAP_S = 100.0
# Calibrations timed right after set-up, for the set-up time's speed factor.
SETUP_CALIBRATIONS = 9
# A run attempts at least this many operations, so ten lie beyond its 90th percentile.
MIN_OPS = 100

_CAL_POINTS = np.column_stack([np.cos(np.arange(256) * 0.05), np.sin(np.arange(256) * 0.07)])


def calibration_ms() -> float:
    """Time of a fixed piece of numpy work: one dense 256 x 256 distance pass.

    The host's speed drifts by up to 2x within seconds and by a third over
    minutes, so every operation is preceded by one calibration (and the last
    is followed by one). run.py scales each operation's time by the mean of
    the two calibrations around it, set-up times by the median of the
    calibrations taken right after set-up, and per-layer times by the run's
    median calibration. Of the kernels tried (a pure Python loop, a
    per-index loop of small numpy calls, this pass), this one tracked the
    operations' slowdowns most closely, in proportion.
    """
    t0 = time.perf_counter()
    diff = _CAL_POINTS[:, None, :] - _CAL_POINTS[None, :, :]
    if not np.isfinite(np.sqrt((diff * diff).sum(axis=2)).max()):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return (time.perf_counter() - t0) * 1e3


def round_rng(seed: int, workload: str, index: int):
    """Inputs of round `index` (0 is the warm-up) depend only on the seed."""
    return np.random.default_rng([seed, sorted(workloads.WORKLOADS).index(workload), index])


def make_workload(name: str):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.SEOutlines:
        return cls(OUT / f"work-{name}-{os.getpid()}")
    return cls()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0, help="stop after this many rounds (0: no limit)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload)
    try:
        return measure(wl, args)
    finally:
        wl.close()


def measure(wl, args) -> int:
    warm = wl.make_round(round_rng(args.seed, wl.name, 0))[0]
    try:
        warm_problems = [f"warm-up: {p}" for p in wl.check(warm, wl.run(warm))]
    except Exception as exc:  # not in `attempted`, but it makes the run incorrect
        warm_problems = [f"warm-up: {type(exc).__name__}: {exc}"]
    batch = wl.make_round(round_rng(args.seed, wl.name, 1))
    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_cal = statistics.median([calibration_ms() for _ in range(SETUP_CALIBRATIONS)])
    if args.setup_only:
        print(json.dumps({"t_first": t_first, "setup_cal_ms": setup_cal}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    op_ms, op_points, op_traced, op_attempt, cal_ms = [], [], [], [], []
    attempted = failed = 0
    problems = list(warm_problems)
    start = time.perf_counter()
    rnd = 1
    while True:
        traced = bool(args.trace) and rnd % 2 == 0
        if traced:
            tracer.install()
        for op in batch:
            attempted += 1
            cal_ms.append(calibration_ms())
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(wl.run, op) if traced else wl.run(op)
            except Exception as exc:  # raising on a valid input is a wrong result; the run goes on
                failed += 1
                problems.append(f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            try:
                issues = wl.check(op, out)
            except Exception as exc:  # output the check cannot even read is a wrong output
                issues = [f"check raised {type(exc).__name__}: {exc}"]
            if issues:
                failed += 1
                problems.extend(issues[:3])
                continue
            op_ms.append(dt * 1e3)
            op_points.append(op.points)
            op_traced.append(traced)
            op_attempt.append(attempted - 1)
        if traced:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        whole = not args.trace or rnd % 2 == 0
        if whole and ((elapsed >= args.seconds and attempted >= MIN_OPS)
                      or elapsed >= HARD_CAP_S or rnd == args.rounds):
            break
        rnd += 1
        batch = wl.make_round(round_rng(args.seed, wl.name, rnd))
    cal_ms.append(calibration_ms())
    untraced = [k for k, tr in enumerate(op_traced) if not tr]
    op_cal_ms = [(cal_ms[a] + cal_ms[a + 1]) / 2 for a in op_attempt]

    result = {
        "t_first": t_first,
        "setup_cal_ms": setup_cal,
        "cal_ms": cal_ms,
        "op_cal_ms": [op_cal_ms[k] for k in untraced],
        "attempted": attempted,
        "failed": failed,
        "warmup_failed": bool(warm_problems),
        "problems": problems[:20],
        "op_ms": [op_ms[k] for k in untraced],
        "op_points": [op_points[k] for k in untraced],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # each time over the calibrations around it, so host speed swings cancel
        speed_free = [t / c for t, c in zip(op_ms, op_cal_ms)]
        plain = [s for s, tr in zip(speed_free, op_traced) if not tr]
        traced_ops = [s for s, tr in zip(speed_free, op_traced) if tr]
        overhead = 0.0
        if plain and traced_ops:
            overhead = 100.0 * (statistics.median(traced_ops) / statistics.median(plain) - 1.0)
        result["layers"] = tracer.metrics(overhead)
        result["traced_ops"] = len(traced_ops)
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
