"""Command-line front end.

Exit codes: 0 success / congruent, 1 not congruent, 2 parse or flag error,
3 scheme-spacing mismatch, 4 hypotheses not met, 5 group/rule mismatch.
Output is plain text (NO_COLOR is honored trivially; nothing is colored).
Mesh indices printed anywhere are 0-based.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import affine, congruence, euclidean, host, meshio, selfcheck
from .errors import MeshParseError, MeshSigError, SchemeSpacingMismatch
from .geometry import RIGHT_ANGLE_TOL, SPACING_REL_TOL, Group, NeighborhoodSpec
from .signatures import SIGNATURE_REL_TOL, Scheme
from .congruence import MatchMode, Verdict

EXIT_OK = 0
EXIT_NOT_CONGRUENT = 1
EXIT_PARSE = 2
EXIT_SPACING = 3
EXIT_HYPOTHESES = 4
EXIT_RULE_MISMATCH = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshsig",
        description="Joint-invariant signatures and congruence decisions for planar meshes.",
        epilog="exit codes: 0 congruent/success, 1 not congruent, 2 parse or flag error, "
               "3 scheme-spacing mismatch, 4 hypotheses not met, 5 rule/group mismatch",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sig = sub.add_parser("signature", help="compute a mesh signature",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sig.add_argument("input", help="mesh file (CSV 'x,y' lines or JSON)")
    sig.add_argument("--group", choices=["se", "sa"], required=True)
    sig.add_argument("--scheme", type=int, choices=range(1, 9), required=True,
                     help="1-4 Euclidean, 5-8 equiaffine")
    sig.add_argument("--m1", type=int, default=1, help="curvature stencil back-offset (se only)")
    sig.add_argument("--m2", type=int, default=1, help="curvature stencil forward-offset (se only)")
    sig.add_argument("--closed", action="store_true", help="treat a CSV mesh as closed")
    sig.add_argument("--spacing-tol", type=float, default=SPACING_REL_TOL,
                     help="relative equal-spacing tolerance for schemes 1, 2, 5, 6 under either --sa-spacing: "
                          "the longest edge or arc minus the shortest, over the longest")
    sig.add_argument("--sa-spacing", choices=["affine", "euclidean"], default="affine",
                     help="spacing measure for schemes 5-6")
    sig.add_argument("--out", help="signature CSV path (default: stdout)")
    sig.add_argument("--plot", help="also write an SVG plot here")
    sig.set_defaults(func=cmd_signature)

    cong = sub.add_parser("congruent", help="decide congruence of two meshes",
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    cong.add_argument("input1")
    cong.add_argument("input2")
    cong.add_argument("--group", choices=["se", "e", "sa", "abar"], default="se")
    cong.add_argument("--via", choices=sorted(["oracle", *congruence.RULES]), default="oracle",
                      help="decision rule; theorem rules fix their own group")
    cong.add_argument("--mode", choices=["aligned", "cyclic", "cyclic-reversal"],
                      default="aligned", help="index correspondence (cyclic: closed meshes)")
    cong.add_argument("--tol", type=float, default=congruence.DEFAULT_POINT_TOL,
                      help="pointwise tolerance, relative to the mesh diameter")
    cong.add_argument("--sig-tol", type=float, default=SIGNATURE_REL_TOL,
                      help="relative tolerance for signature/sequence hypotheses")
    cong.add_argument("--right-tol", type=float, default=RIGHT_ANGLE_TOL,
                      help="right-angle classification band, radians (thm4.14, thm4.18, thm4.25, "
                           "thm4.26, host: angle types; thm4.14 --fine, cor5.9: fineness)")
    cong.add_argument("--fine", action="store_true",
                      help="thm4.14 only: use the fine-mesh variant of the rule")
    cong.add_argument("--endpoint-rule", choices=congruence.RULES["thm4.26"].options["endpoint_rule"],
                      default="equal-end-angles", help="thm4.26 open-mesh endpoint condition")
    cong.add_argument("--closed", action="store_true", help="treat CSV meshes as closed")
    cong.set_defaults(func=cmd_congruent)

    ctr = sub.add_parser("counterexample", help="emit a counterexample mesh pair",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ctr.add_argument("--id", choices=["ex1", "ex2", "ex3", "affine"], required=True)
    ctr.add_argument("--outdir", default=".", help="directory for the meshes and report")
    ctr.set_defaults(func=cmd_counterexample)

    hst = sub.add_parser("host", help="step-m traversal queries on an n-cycle",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    hst.add_argument("--n", type=int, required=True, help="number of points (0-based indices)")
    group = hst.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="step size to traverse with")
    group.add_argument("--count", action="store_true", help="list valid steps and their count")
    hst.set_defaults(func=cmd_host)

    chk = sub.add_parser("selfcheck", help="run the randomized invariance audits",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--trials", type=int, default=50)
    chk.set_defaults(func=cmd_selfcheck)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use.

    ``parse_args`` returns a fresh namespace and leaves the parser unchanged,
    and the help formatter reads the terminal width when help is printed, so
    one parser serves every ``main`` call.
    """
    return build_parser()


def cmd_signature(args) -> int:
    scheme = Scheme.from_id(args.scheme)
    if args.group != scheme.group.value:
        print(f"error: scheme {args.scheme} belongs to group {scheme.group.value}, not {args.group}",
              file=sys.stderr)
        return EXIT_PARSE
    mesh = meshio.read_mesh(args.input, closed=args.closed or None)
    if scheme.value <= 4:
        spec = NeighborhoodSpec(args.m1, args.m2)
        sig = euclidean.se_signature(mesh, scheme, spec, spacing_tol=args.spacing_tol)
    else:
        if (args.m1, args.m2) != (1, 1):
            print("note: --m1/--m2 apply to Euclidean schemes only; ignored", file=sys.stderr)
        sig = affine.sa_signature(mesh, scheme, spacing=args.sa_spacing,
                                  spacing_tol=args.spacing_tol)
    if not mesh.closed:
        lo, hi = sig.indices[[0, -1]].tolist()
        print(f"note: open mesh: stencils truncate the index range to {lo}..{hi} "
              f"of 0..{mesh.n - 1}", file=sys.stderr)
    provenance = {
        "source": Path(args.input).name,
        "scheme": scheme.label,
        "spacing-tol": args.spacing_tol,
    }
    if args.out:
        meshio.write_signature_csv(sig, args.out, provenance=provenance)
    else:
        sys.stdout.write(meshio.signature_text(sig))
    if args.plot:
        meshio.write_signature_svg(sig, args.plot)
    return EXIT_OK


def cmd_congruent(args) -> int:
    m1 = meshio.read_mesh(args.input1, closed=args.closed or None)
    m2 = meshio.read_mesh(args.input2, closed=args.closed or None)
    group = Group.from_string(args.group)
    if args.via == "oracle":
        verdict = congruence.align(m1, m2, group, MatchMode(args.mode), tol=args.tol)
    elif (rule := congruence.RULES[args.via]).group is not group:
        print(f"error: rule {args.via} decides {rule.group.value} congruence, not {args.group}", file=sys.stderr)
        return EXIT_RULE_MISMATCH
    else:
        verdict = congruence._decide(args.via, m1, m2, sig_tol=args.sig_tol, tol=args.tol, right_tol=args.right_tol,
                                     fine_variant=args.fine, endpoint_rule=args.endpoint_rule)
    print(f"verdict: {verdict.status.value}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    if verdict.congruent:
        g = verdict.witness
        print(f"witness group: {g.group.value}")
        print(f"witness linear: [[{g.linear[0, 0]:.12g}, {g.linear[0, 1]:.12g}], "
              f"[{g.linear[1, 0]:.12g}, {g.linear[1, 1]:.12g}]]")
        print(f"witness translation: [{g.translation[0]:.12g}, {g.translation[1]:.12g}]")
        print(f"max deviation: {verdict.max_deviation:.3e}")
        if verdict.correspondence != "identity":
            print(f"correspondence: {verdict.correspondence}")
        return EXIT_OK
    if verdict.status is Verdict.NOT_CONGRUENT:
        return EXIT_NOT_CONGRUENT
    return EXIT_HYPOTHESES


def cmd_counterexample(args) -> int:
    import json

    mesh_a, mesh_b, report = congruence.counterexample(args.id)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path_a = outdir / f"{args.id}_a.csv"
    path_b = outdir / f"{args.id}_b.csv"
    path_r = outdir / f"{args.id}_report.json"
    meshio.write_mesh_csv(mesh_a, path_a)
    meshio.write_mesh_csv(mesh_b, path_b)
    report = dict(report)
    report["files"] = {"a": path_a.name, "b": path_b.name}
    path_r.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path_a}, {path_b} and {path_r}")
    for key, value in report["expected"].items():
        print(f"expected {key.replace('_', ' ')}: {value}")
    return EXIT_OK


def cmd_host(args) -> int:
    if args.count:
        steps = host.valid_steps(args.n)
        print(f"valid steps for n={args.n}: {steps}")
        print(f"count: {len(steps)} (totient {host.totient(args.n)})")
        return EXIT_OK
    walk = host.traverse(args.n, args.m)
    order = " -> ".join(str(i) for i in walk.order)
    print(f"traversal (0-based): {order}")
    if walk.complete:
        print(f"complete: all {walk.n} points met in {walk.steps} steps")
    else:
        print(f"incomplete after {walk.steps} steps ({len(set(walk.order))} of {walk.n} points met)")
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_all(seed=args.seed, trials=args.trials)
    failed = 0
    for res in results:
        status = "ok" if res.failures == 0 else "FAIL"
        print(f"{status:>4}  {res.name}: {res.trials} trials, {res.failures} failures")
        failed += res.failures
    print(f"total failures: {failed}")
    return EXIT_OK if failed == 0 else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except MeshParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemeSpacingMismatch as exc:
        print(f"scheme-spacing mismatch: {exc}", file=sys.stderr)
        return EXIT_SPACING
    except MeshSigError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
