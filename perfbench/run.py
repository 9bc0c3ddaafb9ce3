"""Benchmark for meshsig: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload se-outlines --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steady [--workload se-rules] [--runs 10] [--first-seed 1]
    python3 perfbench/run.py --smoke

A run starts the workload in its own single-threaded process (BLAS threads
pinned to 1, `src` on PYTHONPATH) and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Set-up
time is the median over SETUPS processes, each timed from its start to its
first timed operation. `--steady` repeats runs over consecutive seeds and
prints each end-to-end metric's median, quartiles and spread against its
bound in BENCHMARK.json; `--smoke` runs one round of every workload,
untraced and traced, with all checks on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("se-outlines", "sa-arcs", "se-rules", "cyclic-match")
SETUPS = 5
CHILD_TIMEOUT_S = 150.0
# Reported times are scaled to a host on which worker.calibration_ms() takes
# this long, about its time on the 2-vCPU machine in README.md when that runs fast.
NOMINAL_CAL_MS = 3.0

END_TO_END = {
    "points_per_s": "points/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RunFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    """Run worker.py in a fresh process; returns its JSON result plus `setup_s`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload} worker exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RunFailed(f"{workload} worker exited {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (printed result, raw details)."""
    children = [] if trace else [spawn(workload, seed, seconds, 0, "--setup-only")
                                 for _ in range(SETUPS - 1)]
    main = spawn(workload, seed, seconds, trace)
    children.append(main)
    setups = [c["setup_s"] * NOMINAL_CAL_MS / c["setup_cal_ms"] for c in children]
    speed = NOMINAL_CAL_MS / statistics.median(main["cal_ms"])
    raw = {}
    if trace:
        metrics = {name: {"value": main["layers"][name] * (speed if unit == "s/op" else 1.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        times = main["op_ms"]
        if len(times) < 2:
            raise RunFailed(f"{workload}: fewer than two operations succeeded: {main['problems'][:3]}")
        raw = timing_metrics(times, main["op_points"])
        scaled = [t * NOMINAL_CAL_MS / c for t, c in zip(times, main["op_cal_ms"])]
        values = {
            **timing_metrics(scaled, main["op_points"]),
            "peak_rss_mb": main["rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    printed = {
        "correct": main["failed"] == 0 and not main["warmup_failed"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "speed_factor": speed, "setups_s": setups,
               "raw_setups_s": [c["setup_s"] for c in children],
               "raw": raw, "ops_timed": len(main["op_ms"]),
               "traced_ops": main.get("traced_ops", 0), "problems": main["problems"]}
    return printed, details


def timing_metrics(times_ms: list[float], points: list[int]) -> dict:
    return {
        "points_per_s": sum(points) / (sum(times_ms) / 1e3),
        "op_p50_ms": statistics.median(times_ms),
        "op_p90_ms": statistics.quantiles(times_ms, n=10)[8],
    }


def load_bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def steady(workloads, runs: int, first_seed: int, seconds: float) -> int:
    """Repeat runs over consecutive seeds; print median, quartiles and spread per metric."""
    bounds = load_bounds()
    summary = {}
    worst_ratio = 0.0
    for workload in workloads:
        results, raws = [], []
        for seed in range(first_seed, first_seed + runs):
            t0 = time.monotonic()
            printed, details = run_once(workload, seed, seconds, 0)
            details["wall_s"] = time.monotonic() - t0
            results.append(printed)
            raws.append({**details["raw"], "setup_s": statistics.median(details["raw_setups_s"])})
            shown = ", ".join(f"{k}={v['value']:.5g}" for k, v in printed["metrics"].items())
            print(f"{workload} seed {seed}: attempted {printed['attempted']} failed "
                  f"{printed['failed']} in {details['wall_s']:.1f} s: {shown}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed shares {shares}")
        summary[workload] = {}
        for name in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            ratio = spread / bound if bound else float("nan")
            if name != "setup_s" and bound:
                worst_ratio = max(worst_ratio, ratio)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": bound, "values": values}
            print(f"  {name:12s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.4f}  bound {bound}  spread/bound {ratio:5.2f}", flush=True)
            if name in raws[0]:
                rq1, rmed, rq3 = statistics.quantiles([r[name] for r in raws], n=4)
                summary[workload][name]["unscaled_spread"] = (rq3 - rq1) / rmed
                print(f"  {'':12s} unscaled median {rmed:12.5g}  spread {(rq3 - rq1) / rmed:7.4f}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{int(time.time())}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"largest spread/bound (setup_s excluded): {worst_ratio:.2f}; summary in {path}")
    return 0


def smoke() -> int:
    """One round of every workload, untraced and traced, with all checks on."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rounds = "2" if trace else "1"
            result = spawn(workload, 1, 0, trace, "--rounds", rounds)
            ok = result["failed"] == 0 and not result["problems"]
            bad += not ok
            print(f"{'ok' if ok else 'FAIL':4s} {workload} trace={trace}: attempted "
                  f"{result['attempted']} failed {result['failed']} setup {result['setup_s']:.2f} s",
                  flush=True)
            for problem in result["problems"]:
                print(f"     {problem}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "meshsig" / "__init__.py").is_file():
        print(f"error: no meshsig sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        bench = ROOT / "BENCHMARK.json"
        seconds = json.loads(bench.read_text())["run_seconds"] if bench.is_file() else 20
    try:
        if args.smoke:
            return smoke()
        if args.steady:
            return steady([args.workload] if args.workload else WORKLOADS, args.runs,
                          args.first_seed, seconds)
        if args.workload is None:
            ap.error("--workload is required")
        printed, details = run_once(args.workload, args.seed, seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**printed, **details}, indent=1) + "\n")
    print(json.dumps(printed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
