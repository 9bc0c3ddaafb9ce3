"""Compare two meshsig checkouts, layer by layer and end to end.

    python tools/bench_layers.py --parent DIR --change DIR --claimed WORKLOAD [--pairs 10]
                                 [--other-pairs 4] [--seconds 20] [--first-seed 1101]
                                 [--out BENCH_<label>.json]

DIR is the root of a checkout (its `src/` and `perfbench/`). Each side's
layers are timed in a fresh process that imports that side's `src/`:

- L0, mesh construction, through public functions only: `Mesh()` on the
  points of the closed `ellipse_mesh(n, 2, 1)` and `is_ordinary` at first
  use (every derived entry built after `Mesh()` cleared), n in
  10^2..10^5; the minimum over repeats;
- L1, the equiaffine block: `affine._block(mesh)` at first use (every
  derived entry built after `Mesh()` cleared), on the closed
  `ellipse_mesh(n, 2, 1)` for n in 10^2..10^5 and on one 32-point open
  arc shaped like sa-arcs'; the minimum over repeats, and the
  tracemalloc peak of one build. A size where every window is rejected is
  recorded as failed, with the first window's message, never dropped;
- the fit, sector and gap-bound kernels, each called on the arrays the
  block hands it;
- the block pair: the blocks of two such 32-point arcs built one at a time
  and jointly in one pass (`affine.build_blocks`);
- L2, the per-index Euclidean functions, through public functions only:
  on the closed `ellipse_mesh(n, 2, 1)` with every derived entry built
  after `Mesh()` cleared, one `signed_angle` call (n in 10^2..10^5),
  `signed_angle` and `euclidean_curvature` at every index (n up to 10^4),
  the two kinds of reader of the stencil table, and `se_signature(EQ2)`
  at first use (with `spacing_tol=1`, which the ellipse's unequal edges
  need), and `sa_signature(EQ6)` at first use (n up to 10^4, and on the
  32-point arc), so that both halves of the signature row builder have a
  row; the minimum over repeats;
- L3, the alignment oracle: `align` of a closed radial outline of n
  points (n in 10^2..10^5) onto its image under each group, started at
  another index (and reversed under E and Abar, with CYCLIC_REVERSAL),
  and index-aligned onto its SE image, as the decision rules call it; at
  first use (every derived entry built after `Mesh()` cleared from both
  meshes) and at reuse (the entries kept from the call before); the
  minimum over repeats, and the tracemalloc peak of one first
  use;
- L3, the decision rules: each rule of the se-rules workload on one of
  its 38-point open pairs, `decide_host` on the same points closed, and
  all of them in turn, as one se-rules pair runs them; at first use
  (every derived entry built after `Mesh()` cleared from the four meshes)
  and at reuse; the minimum over 200 repeats;
- L0 and L3 off the unit scale: `Mesh()` on the points of the closed
  `ellipse_mesh(n, 2, 1)` scaled by 2^600, and cyclic SE and SA `align`
  of that mesh onto its SE and SA images started at another index, at
  first use and at reuse (n in 10^2..10^5). Both meshes have a working
  exponent k != 0, and each row records the two; where they differ
  (SE at n = 10^2, 10^3 and 10^5, SA at n = 10^2, 10^4 and 10^5), the row
  times the pair-unit scaling of one mesh's scalars and of the compared
  arrays. The minimum over repeats; an `align` that raises is
  recorded as failed, with its message.

`--layers` prints the layers of the meshsig on sys.path as one JSON line.

Every timed row is a dict: `ms`, the minimum unscaled; `calibration_ms`,
the benchmark's calibration pass (a dense 256 x 256 distance pass, the
median of 5) timed right before and right after the row's repeats,
averaged; and `scaled_ms`, `ms` scaled to a host whose calibration pass
takes perfbench's nominal 3.0 ms, as `perfbench/run.py` scales its
operations, to take out the host's changes of speed between rows and
between processes. Each process also records the median of 21
calibration passes at its start and end.

End to end, `perfbench/run.py` runs each workload in both checkouts in
alternating order (the parent first on even pairs), with seeds
first_seed, first_seed + 1, ...; the claimed workload gets `--pairs`
pairs, the other workloads `--other-pairs`. One traced run of the
claimed workload per side records the per-layer figures. The result is
one JSON file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SIZES = (100, 1000, 10000, 100000)
REPEATS = {100: 50, 1000: 20, 10000: 5, 100000: 2}
WORKLOADS = ("se-outlines", "sa-arcs", "se-rules", "cyclic-match")
# perfbench/run.py's NOMINAL_CAL_MS: scaled times are those of a host whose calibration pass takes this long
NOMINAL_CAL_MS = 3.0
ROW_CALIBRATIONS = 5
BETTER = {"points_per_s": "higher", "op_p50_ms": "lower", "op_p90_ms": "lower",
          "peak_rss_mb": "lower", "setup_s": "lower"}


def min_ms(f, repeats: int) -> float:
    """Minimum wall time of f() over the repeats, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def best_of(f, repeats: int) -> dict:
    """Minimum wall time of f() over the repeats, in ms: unscaled, and scaled as perfbench scales its operations.

    The scale is NOMINAL_CAL_MS over the mean of the calibration passes
    timed right before and right after the repeats.
    """
    before = calibration_ms(ROW_CALIBRATIONS)
    t = min_ms(f, repeats)
    cal = (before + calibration_ms(ROW_CALIBRATIONS)) / 2
    return {"ms": t, "scaled_ms": t * NOMINAL_CAL_MS / cal, "calibration_ms": cal}


def calibration_ms(passes: int = 21) -> float:
    """Median time of the benchmark's calibration pass (a dense 256 x 256 distance pass) over the passes, in ms."""
    import numpy as np
    pts = np.column_stack([np.cos(np.arange(256) * 0.05), np.sin(np.arange(256) * 0.07)])

    def once():
        diff = pts[:, None, :] - pts[None, :, :]
        np.sqrt((diff * diff).sum(axis=2)).max()
    return statistics.median(min_ms(once, 1) for _ in range(passes))


def kernel_calls(affine, blk, win):
    """The fit, sector and gap-bound kernels as the block calls them, on this block's arrays."""
    import numpy as np
    windows = win if blk.has_window.all() else win[2:-2]
    coef, S, F, center = (np.array(a) for a in (blk.coef, blk.S, blk.F, blk.center))
    return {"fit": lambda: affine._fit(windows), "sectors": lambda: affine._sectors(coef, S, F, center, win),
            "gap_bounds": lambda: affine._gap_bounds(coef, S, F)}


def pair_layer(affine, gen) -> dict:
    """Two sa-arcs-shaped 32-point arcs: their blocks one at a time, and jointly in one pass."""
    arcs = (gen.ellipse_mesh(32, 1.6, 1.1, t0=0.4, step=0.094, closed=False),
            gen.ellipse_mesh(32, 2.1, 0.8, t0=2.0, step=0.09, closed=False))
    fresh = first_use(*arcs)  # clears both arcs before the second is read
    return {"meshes": "open ellipse_mesh(32, 1.6, 1.1, t0=0.4, step=0.094) and ellipse_mesh(32, 2.1, 0.8, t0=2.0, step=0.09)",
            "one_at_a_time_ms": best_of(lambda: [affine._block(m) for m in (fresh(), arcs[1])], 200),
            "joint_ms": best_of(lambda: affine.build_blocks(fresh(), arcs[1]), 200)}


def first_use(*meshes):
    """A function that drops from the meshes every derived entry built after `Mesh()` and returns the first mesh."""
    from_construction = [set(m._derived) for m in meshes]

    def clear():
        for mesh, keep in zip(meshes, from_construction):
            for key in set(mesh._derived) - keep:
                del mesh._derived[key]
        return meshes[0]
    return clear


def mesh_layer() -> list:
    """`Mesh()` on a closed ellipse's points, and `is_ordinary` on the mesh with its derived entries cleared."""
    import meshsig as ms
    from meshsig import generators as gen

    out = []
    for n in SIZES:
        pts = gen.ellipse_mesh(n, 2.0, 1.0).points
        fresh = first_use(ms.Mesh(pts, closed=True))
        out.append({"n": n, "mesh_ms": best_of(lambda: ms.Mesh(pts, closed=True), REPEATS[n]),
                    "is_ordinary_first_use_ms": best_of(lambda: ms.is_ordinary(fresh()), REPEATS[n])})
    return out


def per_index_layer() -> list:
    """Per-index functions and se_signature on closed ellipses whose derived entries are cleared before each call."""
    import meshsig as ms
    from meshsig import generators as gen

    out = []
    for n in SIZES:
        fresh = first_use(gen.ellipse_mesh(n, 2.0, 1.0))
        entry = {"n": n, "one_signed_angle_ms": best_of(lambda: ms.signed_angle(fresh(), n // 3), REPEATS[n])}
        if n <= 10000:
            entry["every_signed_angle_ms"] = best_of(
                lambda: [ms.signed_angle(m, i) for m in (fresh(),) for i in range(n)], REPEATS[n])
            entry["every_euclidean_curvature_ms"] = best_of(
                lambda: [ms.euclidean_curvature(m, i) for m in (fresh(),) for i in range(n)], REPEATS[n])
        entry["se_signature_eq2_ms"] = best_of(
            lambda: ms.se_signature(fresh(), ms.Scheme.EQ2, spacing_tol=1.0), REPEATS[n])
        if n <= 10000:
            entry["sa_signature_eq6_ms"] = sa_signature_row(fresh, REPEATS[n])
        out.append(entry)
    arc = first_use(gen.ellipse_mesh(32, 1.6, 1.1, t0=0.4, step=0.094, closed=False))
    out.append({"n": 32, "mesh": "sa-arcs-shaped open arc", "sa_signature_eq6_ms": sa_signature_row(arc, 200)})
    return out


def sa_signature_row(fresh, repeats: int) -> dict:
    """`sa_signature(EQ6)` at first use on the mesh `fresh()` returns, or the error it raises, recorded as failed."""
    import meshsig as ms
    try:
        ms.sa_signature(fresh(), ms.Scheme.EQ6)
    except ms.MeshSigError as exc:
        return {"failed": f"{type(exc).__name__}: {exc}"}
    return best_of(lambda: ms.sa_signature(fresh(), ms.Scheme.EQ6), repeats)


def radial_outline(rng, n: int):
    """A closed star-shaped outline with no symmetry: random low harmonics of the radius."""
    import numpy as np
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    r = 1.0 + sum(rng.uniform(-0.08, 0.08) * np.cos(k * t + rng.uniform(0.0, 2.0 * np.pi)) for k in range(2, 6))
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def align_layer() -> list:
    """`align` of closed radial outlines onto their images, cyclic and index-aligned, at first use and at reuse."""
    import numpy as np
    import meshsig as ms

    cases = ((ms.Group.SE, ms.MatchMode.CYCLIC), (ms.Group.E, ms.MatchMode.CYCLIC_REVERSAL),
             (ms.Group.SA, ms.MatchMode.CYCLIC), (ms.Group.ABAR, ms.MatchMode.CYCLIC_REVERSAL),
             (ms.Group.SE, ms.MatchMode.INDEX_ALIGNED))
    out = []
    for n in SIZES:
        rng = np.random.default_rng(n)
        pts = radial_outline(rng, n)
        for group, mode in cases:
            linear, start = ms.random_motion(group, rng).linear, 0 if mode is ms.MatchMode.INDEX_ALIGNED else n // 3
            order = (start - np.arange(n)) % n if mode is ms.MatchMode.CYCLIC_REVERSAL else (np.arange(n) + start) % n
            m1, m2 = ms.Mesh(pts, closed=True), ms.Mesh((pts @ linear.T)[order], closed=True)
            fresh = first_use(m1, m2)
            entry = {"n": n, "group": group.value, "mode": mode.value,
                     "first_use_ms": best_of(lambda: ms.align(fresh(), m2, group, mode), REPEATS[n])}
            verdict = ms.align(m1, m2, group, mode)
            entry["reuse_ms"] = best_of(lambda: ms.align(m1, m2, group, mode), REPEATS[n])
            tracemalloc.start()
            ms.align(fresh(), m2, group, mode)
            entry["first_use_tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            entry["congruent"], entry["correspondence"] = verdict.congruent, verdict.correspondence
            out.append(entry)
    return out


def rules_layer() -> list:
    """Each rule of the se-rules workload on one of its 38-point open pairs, and `decide_host` on the closed pair."""
    import numpy as np
    import meshsig as ms
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    pair = workloads.SERules()._pairs(np.random.default_rng(38), 38)
    fresh = first_use(*pair["open"], *pair["closed"])
    runs = [(name, functools.partial(rule, *pair["open"])) for name, rule in workloads.OPEN_RULES]
    runs.append(("decide_host", functools.partial(ms.decide_host, *pair["closed"])))
    each = list(runs)
    runs.append(("every rule above, in turn", lambda: [run() for _, run in each][-1]))
    out = []
    for name, run in runs:
        entry = {"rule": name, "first_use_ms": best_of(lambda: (fresh(), run()), 200), "congruent": run().congruent}
        entry["reuse_ms"] = best_of(run, 200)
        out.append(entry)
    return out


def far_layer() -> list:
    """`Mesh()` on the closed ellipse scaled by 2^600, and cyclic SE and SA `align` of it onto its images."""
    import numpy as np
    import meshsig as ms
    from meshsig import generators as gen
    from meshsig.geometry import working_points

    out = []
    for n in SIZES:
        unit = gen.ellipse_mesh(n, 2.0, 1.0).points
        pts = np.ldexp(unit, 600)
        entry = {"n": n, "mesh_ms": best_of(lambda: ms.Mesh(pts, closed=True), REPEATS[n]), "cyclic_align": []}
        for group in (ms.Group.SE, ms.Group.SA):
            image = np.roll(ms.random_motion(group, n).apply(unit), -(n // 3), axis=0)
            m1, m2 = ms.Mesh(pts, closed=True), ms.Mesh(np.ldexp(image, 600), closed=True)
            fresh = first_use(m1, m2)
            row = {"group": group.value, "exponents": [working_points(m).k for m in (m1, m2)]}
            try:
                verdict = ms.align(fresh(), m2, group, ms.MatchMode.CYCLIC)
            except (ArithmeticError, ms.MeshSigError) as exc:  # an oracle on unscaled coordinates overflows here
                row["failed"] = f"{type(exc).__name__}: {exc}"
            else:
                row["first_use_ms"] = best_of(lambda: ms.align(fresh(), m2, group, ms.MatchMode.CYCLIC), REPEATS[n])
                row["reuse_ms"] = best_of(lambda: ms.align(m1, m2, group, ms.MatchMode.CYCLIC), REPEATS[n])
                row["congruent"], row["correspondence"] = verdict.congruent, verdict.correspondence
            entry["cyclic_align"].append(row)
        out.append(entry)
    return out


def layers() -> dict:
    """Mesh, block, kernel, per-index and alignment times of the meshsig on sys.path (run in a child process)."""
    import numpy as np
    from meshsig import affine, geometry
    from meshsig import generators as gen

    meshes = [(f"ellipse_mesh({n}, 2, 1)", gen.ellipse_mesh(n, 2.0, 1.0), REPEATS[n]) for n in SIZES]
    meshes.append(("sa-arcs-shaped open arc, n=32", gen.ellipse_mesh(32, 1.6, 1.1, t0=0.4, step=0.094, closed=False), 200))
    out = {"calibration_ms": calibration_ms(), "mesh": mesh_layer(), "sizes": []}
    for name, mesh, repeats in meshes:
        n = mesh.n
        fresh = first_use(mesh)
        with np.errstate(all="ignore"):
            entry = {"mesh": name, "n": n, "block_ms": best_of(lambda: affine._block(fresh()), repeats)}
            tracemalloc.start()
            blk = affine._block(fresh())
            entry["block_tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            win = np.stack(geometry._gather(mesh.points, affine._FIT_OFFSETS, range(n)), axis=1)
            for kernel, call in kernel_calls(affine, blk, win).items():
                entry[f"{kernel}_ms"] = best_of(call, repeats)
        entry["windows_fitted"] = int(blk.fitted.sum())
        if not blk.fitted.any():
            first = min(blk.fit_errors)
            entry["failed"] = f"every window rejected; window {first}: {blk.fit_errors[first]}"
        out["sizes"].append(entry)
    out["pair"] = pair_layer(affine, gen)
    out["per_index"] = per_index_layer()
    out["cyclic_align"] = align_layer()
    out["rules"] = rules_layer()
    out["far_from_unit_scale"] = far_layer()
    out["calibration_ms_after"] = calibration_ms()
    return out


def child_layers(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--layers"], env=env, capture_output=True, text=True,
                          check=True, timeout=900)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list) -> dict:
    out = {}
    for metric, better in BETTER.items():
        p = [pair["parent"]["metrics"][metric] for pair in pairs]
        c = [pair["change"]["metrics"][metric] for pair in pairs]
        sign = 1.0 if better == "higher" else -1.0
        qp, qc = quartiles(p), quartiles(c)
        out[metric] = {
            "better": better, "parent": qp, "change": qc,
            "change_over_parent": qc["median"] / qp["median"],
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "pairs": len(pairs),
            "median_gain_exceeds_parent_iqr": sign * (qc["median"] - qp["median"]) > qp["q3"] - qp["q1"],
        }
    return out


def machine() -> dict:
    import numpy as np
    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"platform": platform.platform(), "cpu": model, "logical_cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--claimed", choices=WORKLOADS, help="the workload whose gain is claimed")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--other-pairs", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=1101)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--layers", action="store_true", help="print the layers of the meshsig on sys.path as one JSON line")
    args = ap.parse_args()
    if args.layers:
        print(json.dumps(layers()))
        return 0
    if not (args.parent and args.change and args.claimed and args.out):
        ap.error("--parent, --change, --claimed and --out are required unless --layers is given")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # name the checkouts by role and the output file by name, not by path
    named = {str(args.parent): "PARENT", str(args.change): "CHANGE", str(args.out): args.out.name}
    argv = [named.get(a, a) for a in sys.argv[1:]]
    method = {"script": "tools/bench_layers.py", "argv": argv, "description": " ".join(__doc__.split())}
    result = {"method": method, "machine": machine(), "layers": {side: child_layers(tree) for side, tree in trees.items()},
              "claimed": args.claimed, "end_to_end": {}, "traced": {}}
    for workload in WORKLOADS:
        pairs = []
        for k in range(args.pairs if workload == args.claimed else args.other_pairs):
            seed, pair = args.first_seed + k, {}
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                pair[side] = run_workload(trees[side], workload, seed, args.seconds, 0)
            pairs.append(pair)
            print(workload, seed, {s: round(r["metrics"]["points_per_s"]) for s, r in pair.items()}, file=sys.stderr)
        result["end_to_end"][workload] = {"runs": pairs, "summary": summarize(pairs)}
    for side, tree in trees.items():
        result["traced"][side] = run_workload(tree, args.claimed, args.first_seed, args.seconds, 1)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
