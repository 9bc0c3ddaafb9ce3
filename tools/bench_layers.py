"""Compare two meshsig checkouts, layer by layer and end to end.

    python tools/bench_layers.py --parent DIR --change DIR --claimed WORKLOAD [--pairs 10]
                                 [--other-pairs 4] [--seconds 20] [--first-seed 1101]
                                 [--out BENCH_<label>.json]

DIR is the root of a checkout (its `src/` and `perfbench/`). Each side's
layers are timed in a fresh process that imports that side's `src/`.

The layers are one table of rows (`table`), each timed by one runner
(`run`). A row names its layer (L0-L3), its case and its sizes, each n with
its number of repeats; a builder that returns the call's arguments for an n;
and the call it times. Every row times the call at first use: every derived
entry built after `Mesh()` is cleared from the row's meshes before each call
(a row on points or arrays has none to clear). A reuse row also times the call
on the entries kept from the call before, and a peak row records the
tracemalloc peak of one first use. A row's notes (`congruent`,
`correspondence`, `exponents`, `windows_fitted`) are read from the result of
one more call after the timed ones. A `MeshSigError` or `ArithmeticError`
raised by any row at a size is recorded as that size's `failed` message,
after the times taken before it; any other exception, numpy warnings under
`-W error` included, stops the tool. The rows:

- L0: `Mesh()` on the points of the closed `ellipse_mesh(n, 2, 1)`, plain
  and scaled by 2^600 (working exponent k != 0), and on a closed five-lobed
  outline r = 1 + 0.3 cos 5t, which is not convex, so that its diameter
  takes the hull path; and `is_ordinary` on the ellipse;
- L1: the equiaffine block `affine._block`, with its tracemalloc peak and
  its fitted windows (a block that fits none fails with its first window's
  error), and the fit, arc-length, sector and gap-bound kernels on the
  arrays the block hands them, under the block's numpy error state (a
  hyperbolic row's sector and a negative gap-bound radicand are NaN
  there, not warnings), on the closed `ellipse_mesh(n, 2, 1)` and
  on a 32-point open arc shaped like sa-arcs'; the blocks of two such arcs
  one at a time and jointly in one pass (`affine.build_blocks`);
- L2: `signed_angle` at one index and, with `euclidean_curvature`, at every
  index (n up to 10^4), `se_signature(EQ2)` (with `spacing_tol=1`, which
  the ellipse's unequal edges need) and `sa_signature(EQ6)` (n up to 10^4,
  and on the 32-point arc), on the closed `ellipse_mesh(n, 2, 1)`; the mesh
  predicates `is_convex`, `is_fine` and `is_affine_fine`, on the closed
  `ellipse_mesh(n, 2, 1)` and on the 32-point arc;
- L3: `align` of a closed radial outline onto its image under each group,
  started at another index (and reversed under E and Abar, with
  CYCLIC_REVERSAL), and index-aligned onto its SE image, at first use and
  reuse with the tracemalloc peak; cyclic SE and SA `align` of the ellipse
  scaled by 2^600 onto its images started at another index, at first use
  and reuse, with both meshes' working exponents; cyclic SA and Abar
  `align` of the radial outline's image under diag(300, 1/300) onto the
  outline started at another index, at first use and reuse (n up to 10^3:
  the first mesh's anisotropy widens the scan's bound until every shift is
  verified, O(n^2)); each rule of the se-rules workload on one of its
  38-point open pairs, `decide_host` on the same points closed, and all of
  them in turn, as one se-rules pair runs them, at first use and reuse
  over 200 repeats; `decide_affine` thm5.7, thm5.8 and cor5.9 on one
  congruent pair of the sa-arcs workload (32-point open ellipse arcs), at
  first use and reuse over 200 repeats;
- L4: the CLI in-process (`cli.main`, its output discarded), on CSV files
  written once per size, before the timed calls: `signature --group se
  --scheme 2` on a 1600-point closed equilateral outline of the se-outlines
  workload, `signature --group sa --scheme 6` on the 32-point open arc of
  the sa-arcs pair, and `congruent --mode cyclic` on a 300-point closed
  radial outline and its SE image started at another index; and
  `selfcheck --trials 5`, whose meshes it draws itself; each records its
  exit code.

Sizes are n in 10^2..10^5 unless a row says otherwise. `--layers` prints
the machine and the rows of the meshsig on sys.path as one JSON line.

Every timed value (`first_use_ms`, `reuse_ms`) is a dict: `ms`, the
minimum over the repeats, unscaled; `calibration_ms`, the benchmark's
calibration pass (a dense 256 x 256 distance pass, the median of 5) timed
right before and right after the repeats, averaged; and `scaled_ms`, `ms`
scaled to a host whose calibration pass takes perfbench's nominal 3.0 ms,
as `perfbench/run.py` scales its operations, to take out the host's changes
of speed between processes. Every row of a process is scaled by the same
calibration, `process_calibration_ms`: the median of the rows'
`calibration_ms` and of the 21-pass medians that the process takes at its
start (`calibration_ms`) and end (`calibration_ms_after`). A row is not
scaled by its own calibration, which one slow pass around a fast row would
raise, making the row read fast.

Each side's layers are timed twice, in the order parent, change, change,
parent, and both runs are recorded, with the lower of their two minimums
per row, size and timed value, unscaled (`lower_ms`) and scaled
(`lower_scaled_ms`): a slow spell of the host shorter than one run then
moves no row.

End to end, `perfbench/run.py` runs each workload in both checkouts in
alternating order (the parent first on even pairs), with seeds
first_seed, first_seed + 1, ...; the claimed workload gets `--pairs`
pairs, the other workloads `--other-pairs`. One traced run of the
claimed workload per side records the per-layer figures. The result is
one JSON file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# each n of the sweep, and the rows' other sizes, with the number of repeats whose minimum a row records
SWEEP = ((100, 50), (1000, 20), (10000, 5), (100000, 2))
ARC = ((32, 200),)
WORKLOADS = ("se-outlines", "sa-arcs", "se-rules", "cyclic-match")
# perfbench/run.py's NOMINAL_CAL_MS: scaled times are those of a host whose calibration pass takes this long
NOMINAL_CAL_MS = 3.0
ROW_CALIBRATIONS = 5
BETTER = {"points_per_s": "higher", "op_p50_ms": "lower", "op_p90_ms": "lower",
          "peak_rss_mb": "lower", "setup_s": "lower"}


def elapsed_ms(f) -> float:
    """Wall time of one call f(), in ms."""
    t0 = time.perf_counter()
    f()
    return 1e3 * (time.perf_counter() - t0)


def best_of(f, repeats: int) -> dict:
    """Minimum wall time of f() over the repeats, in ms, and the mean of the calibration passes timed around them."""
    before = calibration_ms(ROW_CALIBRATIONS)
    t = min(elapsed_ms(f) for _ in range(repeats))
    return {"ms": t, "calibration_ms": (before + calibration_ms(ROW_CALIBRATIONS)) / 2}


def calibration_ms(passes: int = 21) -> float:
    """Median time of the benchmark's calibration pass (a dense 256 x 256 distance pass) over the passes, in ms."""
    import numpy as np
    pts = np.column_stack([np.cos(np.arange(256) * 0.05), np.sin(np.arange(256) * 0.07)])

    def once():
        diff = pts[:, None, :] - pts[None, :, :]
        np.sqrt((diff * diff).sum(axis=2)).max()
    return statistics.median(elapsed_ms(once) for _ in range(passes))


def ellipse(n: int) -> tuple:
    """The closed `ellipse_mesh(n, 2, 1)`, as a row's arguments: the mesh of every row that names none."""
    from meshsig import generators as gen
    return (gen.ellipse_mesh(n, 2.0, 1.0),)


# One case of a layer: `call(*build(n))`, timed at first use at each (n, repeats) of its sizes. A `reuse` row also
# times the call on the entries that the call before kept, a `peak` row records the tracemalloc peak of one first
# use, and `notes(result, *args)` is what to record of the result of one more call.
Row = collections.namedtuple("Row", "layer case call build sizes reuse peak notes",
                             defaults=(ellipse, SWEEP, False, False, lambda result, *args: {}))


def run(row: Row, n: int, repeats: int) -> dict:
    """The row's times and notes at size n, or the library error that stopped it, after the times taken before."""
    from meshsig import Mesh, MeshSigError

    args, entry = row.build(n), {"n": n}
    built_by_mesh = [(m, dict(m._derived)) for m in args if isinstance(m, Mesh)]

    def fresh():  # the arguments, with every derived entry built after Mesh() dropped from their meshes
        for mesh, entries in built_by_mesh:
            mesh._derived = dict(entries)
        return args
    try:
        entry["first_use_ms"] = best_of(lambda: row.call(*fresh()), repeats)
        if row.reuse:
            entry["reuse_ms"] = best_of(lambda: row.call(*args), repeats)
        if row.peak:
            tracemalloc.start()
            row.call(*fresh())
            entry["first_use_tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
        entry.update(row.notes(row.call(*args), *args))
    except (MeshSigError, ArithmeticError) as exc:
        entry["failed"] = f"{type(exc).__name__}: {exc}"
    return entry


def table(workdir: Path) -> list[Row]:
    """Every row of `--layers`, in the order they are timed; the L4 rows write their files under workdir."""
    import numpy as np
    import meshsig as ms
    from meshsig import affine, cli, geometry, meshio, generators as gen
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    on_ellipse, on_arc = "closed ellipse_mesh(n, 2, 1)", "open arc ellipse_mesh(n, 1.6, 1.1, t0=0.4, step=0.094)"
    arc = lambda n: (gen.ellipse_mesh(n, 1.6, 1.1, t0=0.4, step=0.094, closed=False),)
    arcs = lambda n: (*arc(n), gen.ellipse_mesh(n, 2.1, 0.8, t0=2.0, step=0.09, closed=False))
    closed, far = functools.partial(ms.Mesh, closed=True), lambda pts: np.ldexp(pts, 600)
    every_index = lambda f: lambda m: [f(m, i) for i in range(m.n)]
    sa6 = lambda m: ms.sa_signature(m, ms.Scheme.EQ6)
    verdict = lambda v, *meshes: {"congruent": v.congruent, "correspondence": v.correspondence}

    def fitted(blk, mesh):
        if not blk.fitted.any():
            affine._row(mesh, min(blk.fit_errors))  # raises the first window's fit error
        return {"windows_fitted": int(blk.fitted.sum())}

    def kernel_args(kernel, mesh_of, n):  # the kernel's arguments, as the block hands them
        mesh, = mesh_of(n)
        blk, win = affine._block(mesh), np.stack(geometry._gather(mesh.points, affine._FIT_OFFSETS, range(n)), axis=1)
        arrays = [np.array(a) for a in (blk.coef, blk.S, blk.F, blk.center)]
        windows = win if blk.has_window.all() else win[2:-2]
        return {"_fit": (windows,), "_arcs": (blk, slice(None), win[:, :-1], win[:, 1:]), "_sectors": (*arrays, win),
                "_gap_bounds": arrays[:3]}[kernel]

    def as_the_block_calls(kernel):  # the kernel under the errstate of `_Block`, which reads its invalid rows as NaN
        def call(*args):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return kernel(*args)
        return call

    cases = [(ms.Group(group), ms.MatchMode(mode)) for group, mode in (
        ("se", "cyclic"), ("e", "cyclic-reversal"), ("sa", "cyclic"), ("abar", "cyclic-reversal"), ("se", "aligned"))]

    def outline(n):  # a star-shaped outline with no symmetry (random low harmonics of the radius), and its rng
        rng, t = np.random.default_rng(n), np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        r = 1.0 + sum(rng.uniform(-0.08, 0.08) * np.cos(k * t + rng.uniform(0.0, 2.0 * np.pi)) for k in range(2, 6))
        return np.column_stack([r * np.cos(t), r * np.sin(t)]), rng

    def outline_pair(j, n):  # the outline and its image under the j-th case
        pts, rng = outline(n)
        linear = [ms.random_motion(group, rng).linear for group, _ in cases[:j + 1]][-1]  # the cases draw in turn
        mode = cases[j][1]
        start = 0 if mode is ms.MatchMode.INDEX_ALIGNED else n // 3
        order = (start - np.arange(n)) % n if mode is ms.MatchMode.CYCLIC_REVERSAL else (np.arange(n) + start) % n
        return closed(pts), closed((pts @ linear.T)[order])

    def lobed(n):  # reflex at every valley between two lobes, so that its diameter takes the hull path
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return (1.0 + 0.3 * np.cos(5.0 * t))[:, None] * np.column_stack([np.cos(t), np.sin(t)])

    def stretched_pair(n):  # the outline's image under diag(300, 1/300), and the outline started at n // 3
        pts = outline(n)[0]
        return closed(pts * [300.0, 1.0 / 300.0]), closed(np.roll(pts, -(n // 3), axis=0))

    def far_pair(group, n):
        unit = ellipse(n)[0].points
        return closed(far(unit)), closed(far(np.roll(ms.random_motion(group, n).apply(unit), -(n // 3), axis=0)))

    def rule_meshes(n):  # one se-rules pair, open and closed
        pair = workloads.SERules()._pairs(np.random.default_rng(n), n)
        return (*pair["open"], *pair["closed"])

    def sa_pair(n):  # one congruent pair of the sa-arcs workload, n = its 32 points
        pair = workloads.SAArcs()._pair(np.random.default_rng(n), False)
        return pair["m1"], pair["m2"]

    rules = [(f"{name}, se-rules 38-point open pair", lambda a, b, c, d, rule=rule: rule(a, b))
             for name, rule in workloads.OPEN_RULES]
    rules.append(("decide_host, the same points closed", lambda a, b, c, d: ms.decide_host(c, d)))
    rules.append(("every rule above, in turn", lambda *m, each=[r for _, r in rules]: [r(*m) for r in each][-1]))
    rows = [Row("L0", f"Mesh() on the points of the {on_ellipse}", closed, lambda n: (ellipse(n)[0].points,)),
            Row("L0", f"Mesh() on the points of the {on_ellipse} scaled by 2^600", closed,
                lambda n: (far(ellipse(n)[0].points),)),
            Row("L0", "Mesh() on the points of the closed five-lobed outline r = 1 + 0.3 cos 5t (not convex)", closed,
                lambda n: (lobed(n),)),
            Row("L0", f"is_ordinary, {on_ellipse}", ms.is_ordinary)]
    for case, mesh_of, sizes in ((on_ellipse, ellipse, SWEEP), (on_arc, arc, ARC)):
        rows.append(Row("L1", f"affine._block, {case}", affine._block, mesh_of, sizes, peak=True, notes=fitted))
        rows += [Row("L1", f"affine.{k} on the arrays of the block, {case}", as_the_block_calls(getattr(affine, k)),
                     functools.partial(kernel_args, k, mesh_of), sizes)
                 for k in ("_fit", "_arcs", "_sectors", "_gap_bounds")]
    both_arcs = f"the {on_arc} and the open arc ellipse_mesh(n, 2.1, 0.8, t0=2.0, step=0.09)"
    rows += [Row("L1", f"affine._block of each of {both_arcs}", lambda *m: [affine._block(x) for x in m], arcs, ARC),
             Row("L1", f"affine.build_blocks of {both_arcs}, in one pass", affine.build_blocks, arcs, ARC),
             Row("L2", f"signed_angle at index n // 3, {on_ellipse}", lambda m: ms.signed_angle(m, m.n // 3)),
             Row("L2", f"signed_angle at every index, {on_ellipse}", every_index(ms.signed_angle), sizes=SWEEP[:3]),
             Row("L2", f"euclidean_curvature at every index, {on_ellipse}", every_index(ms.euclidean_curvature),
                 sizes=SWEEP[:3]),
             Row("L2", f"se_signature(EQ2, spacing_tol=1), {on_ellipse}",
                 lambda m: ms.se_signature(m, ms.Scheme.EQ2, spacing_tol=1.0)),
             Row("L2", f"sa_signature(EQ6), {on_ellipse}", sa6, sizes=SWEEP[:3]),
             Row("L2", f"sa_signature(EQ6), {on_arc}", sa6, arc, ARC)]
    rows += [Row("L2", f"{f.__name__}, {case}", f, mesh_of, sizes)
             for f in (ms.is_convex, ms.is_fine, ms.is_affine_fine)
             for case, mesh_of, sizes in ((on_ellipse, ellipse, SWEEP), (on_arc, arc, ARC))]
    rows += [Row("L3", f"align {group.value} {mode.value}, closed radial outline onto its image",
                 functools.partial(ms.align, group=group, mode=mode), functools.partial(outline_pair, j),
                 reuse=True, peak=True, notes=verdict) for j, (group, mode) in enumerate(cases)]
    rows += [Row("L3", f"align {group.value} cyclic, {on_ellipse} scaled by 2^600 onto its image",
                 functools.partial(ms.align, group=group, mode=ms.MatchMode.CYCLIC), functools.partial(far_pair, group),
                 reuse=True, notes=lambda v, *m: {"exponents": [geometry.working_points(x).k for x in m], **verdict(v)})
             for group in (ms.Group.SE, ms.Group.SA)]
    rows += [Row("L3", f"align {group.value} cyclic, image of a closed radial outline under diag(300, 1/300) onto it",
                 functools.partial(ms.align, group=group, mode=ms.MatchMode.CYCLIC), stretched_pair, SWEEP[:2],
                 reuse=True, notes=verdict) for group in (ms.Group.SA, ms.Group.ABAR)]
    decisions = [(case, call, rule_meshes, ((38, 200),)) for case, call in rules]
    decisions += [(f"decide_affine {variant}, sa-arcs 32-point congruent pair",
                   functools.partial(ms.decide_affine, variant=variant), sa_pair, ARC) for variant in workloads.SA_VARIANTS]
    rows += [Row("L3", case, call, meshes, sizes, reuse=True, notes=lambda v, *m: {"congruent": v.congruent})
             for case, call, meshes, sizes in decisions]

    def command(argv):  # cli.main(argv), its stdout and stderr discarded
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def cli_args(name, meshes, *options):  # the meshes written as CSV files, once, and the command's argv
        paths = [str(workdir / f"{name}-{k}.csv") for k in range(len(meshes))]
        for mesh, path in zip(meshes, paths):
            meshio.write_mesh_csv(mesh, path)
        return ([name, *paths, *options],)

    exit_code, sig_out = lambda code, argv: {"exit_code": code}, str(workdir / "signature.csv")
    equilateral = lambda n: [closed(workloads.equilateral_closed(np.random.default_rng(n), n, 0.1))]
    return rows + [
        Row("L4", "cli signature --group se --scheme 2, 1600-point closed equilateral outline of se-outlines", command,
            lambda n: cli_args("signature", equilateral(n), "--group", "se", "--scheme", "2", "--closed", "--out",
                               sig_out), ((1600, 20),), notes=exit_code),
        Row("L4", "cli signature --group sa --scheme 6, 32-point open arc of an sa-arcs pair", command,
            lambda n: cli_args("signature", sa_pair(n)[:1], "--group", "sa", "--scheme", "6", "--out", sig_out), ARC,
            notes=exit_code),
        Row("L4", "cli congruent --mode cyclic, 300-point closed radial outline and its SE image", command,
            lambda n: cli_args("congruent", outline_pair(0, n), "--mode", "cyclic", "--closed"), ((300, 50),),
            notes=exit_code),
        Row("L4", "cli selfcheck --trials n", command, lambda n: (["selfcheck", "--trials", str(n)],), ((5, 5),),
            notes=exit_code)]


def layers() -> dict:
    """Every row of the table, timed on the meshsig on sys.path (run in a child process)."""
    out = {"calibration_ms": calibration_ms()}
    with tempfile.TemporaryDirectory() as workdir:
        out["rows"] = [{"layer": row.layer, "case": row.case, "sizes": [run(row, n, repeats) for n, repeats in row.sizes]}
                       for row in table(Path(workdir))]
    out["calibration_ms_after"] = calibration_ms()
    timed = [v for row in out["rows"] for entry in row["sizes"] for v in entry.values() if isinstance(v, dict)]
    cal = statistics.median([out["calibration_ms"], out["calibration_ms_after"], *(v["calibration_ms"] for v in timed)])
    out["process_calibration_ms"] = cal
    for v in timed:  # scaled as perfbench scales its operations
        v["scaled_ms"] = v["ms"] * NOMINAL_CAL_MS / cal
    return out


def child_layers(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--layers"], env=env, capture_output=True, text=True,
                          check=True, timeout=900)
    return json.loads(done.stdout.strip().splitlines()[-1])


def lower(runs: list, value: str) -> list:
    """Per row and size of the `--layers` runs, the lower of their minimums of each timed value: `ms` or `scaled_ms`."""
    rows = []
    for same_row in zip(*(r["rows"] for r in runs)):
        sizes = []
        for entries in zip(*(row["sizes"] for row in same_row)):
            timed = {key for e in entries for key, v in e.items() if isinstance(v, dict)}
            sizes.append({"n": entries[0]["n"], **{key: min(e[key][value] for e in entries if key in e)
                                                   for key in sorted(timed)}})
        rows.append({"layer": same_row[0]["layer"], "case": same_row[0]["case"], "sizes": sizes})
    return rows


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
        print(json.dumps({"machine": machine(), **layers()}))
        return 0
    if not (args.parent and args.change and args.claimed and args.out):
        ap.error("--parent, --change, --claimed and --out are required unless --layers is given")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # name the checkouts by role and the output file by name, not by path
    named = {str(args.parent): "PARENT", str(args.change): "CHANGE", str(args.out): args.out.name}
    argv = [named.get(a, a) for a in sys.argv[1:]]
    method = {"script": "tools/bench_layers.py", "argv": argv, "description": " ".join(__doc__.split())}
    runs = {side: [] for side in trees}
    for side in ("parent", "change", "change", "parent"):
        runs[side].append(child_layers(trees[side]))
    result = {"method": method, "machine": machine(),
              "layers": {side: {"runs": r, "lower_ms": lower(r, "ms"), "lower_scaled_ms": lower(r, "scaled_ms")}
                         for side, r in runs.items()},
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
