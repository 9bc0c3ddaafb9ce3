"""The four benchmark workloads: inputs, the timed operation and its checks.

Every workload builds its inputs with its own numpy code from a seeded
generator, times only the calls into meshsig's public functions, and checks
each result against a computation made here, apart from the library, or
against a property the method must have. Every operation of a workload has
the same size and the same mix of work, so that the median and the 90th
percentile of the operation times do not fall between clusters of
differently sized operations. No input is used twice within a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import meshsig as ms
from meshsig import cli, meshio

# ---------------------------------------------------------------------------
# Shared helpers: motions, diameters, witness checks
# ---------------------------------------------------------------------------

REFLECT = np.diag([1.0, -1.0])


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def unimodular(rng) -> np.ndarray:
    """Rotation, shear-free stretch and rotation, normalised to det +1."""
    stretch = math.exp(rng.uniform(-0.6, 0.6))
    lin = rotation(rng.uniform(0.0, 2.0 * math.pi)) @ np.diag([stretch, 1.0 / stretch])
    lin = lin @ rotation(rng.uniform(0.0, 2.0 * math.pi))
    return lin / math.sqrt(np.linalg.det(lin))


def diameter(points: np.ndarray) -> float:
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).max())


def check_witness(verdict, src: np.ndarray, dst: np.ndarray, linear: np.ndarray,
                  translation: np.ndarray, what: str) -> list[str]:
    """A Congruent verdict whose witness maps src onto dst and equals the generating motion."""
    if verdict.status is not ms.Verdict.CONGRUENT:
        return [f"{what}: expected congruent, got {verdict.status.value} ({verdict.reason})"]
    w = verdict.witness
    scale = max(float(np.ptp(dst, axis=0).max()), 1.0)
    deviation = float(np.abs(src @ w.linear.T + w.translation - dst).max())
    problems = []
    if deviation > WITNESS_TOL * scale:
        problems.append(f"{what}: witness leaves deviation {deviation:.3e}")
    if float(np.abs(w.linear - linear).max()) > MOTION_TOL * float(np.abs(linear).max()):
        problems.append(f"{what}: witness linear part differs from the generating motion")
    if float(np.abs(w.translation - translation).max()) > MOTION_TOL * scale:
        problems.append(f"{what}: witness translation differs from the generating motion")
    return problems


def check_not_congruent(verdict, what: str) -> list[str]:
    if verdict.status is ms.Verdict.CONGRUENT:
        return [f"{what}: a perturbed or unrelated pair was reported congruent"]
    return []


# The witness must reproduce the image pointwise to this share of its extent,
# the library's default point tolerance.
WITNESS_TOL = 1e-6
# The recovered motion must equal the generating one to this relative precision.
MOTION_TOL = 1e-6


@dataclass
class Op:
    """One operation's inputs; `points` counts the mesh points handed to meshsig."""

    points: int
    data: dict = field(default_factory=dict)


class Workload:
    name = ""
    round_size = 1

    def make_round(self, rng) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# se-outlines: the CLI `signature` command on ~1600-point CSV outlines
# ---------------------------------------------------------------------------

# Scheme table from the paper's definitions: curvature centres of the
# numerator, the denominator chord's end offsets, and the factor.
SE_SCHEMES = {
    1: {"centers": (0, 1), "chord": (0, 1), "factor": 1.0},
    2: {"centers": (-1, 1), "chord": (-1, 1), "factor": 1.0},
    3: {"centers": (0, 1), "chord": (-1, 2), "factor": 3.0},
    4: {"centers": (-1, 1), "chord": (-3, 3), "factor": 3.0},
}
# Library curvatures must match the reference to this relative precision
# plus the conditioning term below; quotients get the propagated bound.
SE_CURVATURE_RTOL = 1e-9
# meshsig takes the stencil area from the three rounded side lengths. For a
# nearly straight triple (sides a >= b >= c) that loses accuracy: rounding of
# order eps * a moves the small factor b + c - a, so the curvature may err by
# about eps * (a + b + c) / (b + c - a) relative. Measured errors stay below a
# third of one such unit; the check allows SIDE_ROUNDING units.
SIDE_ROUNDING = 4.0
EPS = float(np.finfo(float).eps)
# The `signature` command's default --spacing-tol.
CLI_SPACING_TOL = 1e-6


def reference_curvature(points: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """2|u x v| / (|u| |v| |u - v|) on the (1, 1) stencil, and the error allowed there.

    Entries without a full stencil (the ends of an open mesh) are NaN.
    """
    u = np.roll(points, 1, axis=0) - points
    v = np.roll(points, -1, axis=0) - points
    cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    c, b, a = np.sort(np.column_stack([np.hypot(*u.T), np.hypot(*v.T), np.hypot(*(u - v).T)]), axis=1).T
    kappa = 2.0 * cross / (a * b * c)
    # b + c - a = 16 area^2 / ((a + b + c)(a - b + c)(a + b - c)), free of cancellation
    with np.errstate(divide="ignore"):
        small = 4.0 * cross * cross / ((a + b + c) * (a - b + c) * (a + b - c))
        allowed = kappa * (SE_CURVATURE_RTOL + SIDE_ROUNDING * EPS * (a + b + c) / small)
    allowed[small == 0.0] = np.inf
    if not closed:
        kappa[[0, -1]] = np.nan
    return kappa, allowed


def equilateral_closed(rng, n: int, step: float) -> np.ndarray:
    """Convex, centrally symmetric closed polygon with n equal edges (n even).

    The first half of the edges turns through pi with smoothly varying
    turns; the second half repeats it negated, so the edges sum to zero.
    """
    half = n // 2
    j = np.arange(half)
    weights = 1.0 + 0.5 * np.sin(2.0 * math.pi * rng.integers(1, 4) * j / half + rng.uniform(0, 6.3))
    turns = math.pi / half * weights / weights.mean()
    heading = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate([[0.0], np.cumsum(turns[1:])])
    edges = step * np.column_stack([np.cos(heading), np.sin(heading)])
    edges = np.vstack([edges, -edges])
    return np.vstack([[0.0, 0.0], np.cumsum(edges[:-1], axis=0)]) + rng.uniform(-50, 50, size=2)


def turning_walk(rng, n: int, steps: np.ndarray) -> np.ndarray:
    """Open polyline with the given steps and smooth turns of either sign."""
    k = np.arange(n - 1)
    turns = 0.02 * np.sin(2.0 * math.pi * k / rng.uniform(200, 600) + rng.uniform(0, 6.3))
    turns += rng.uniform(-0.01, 0.01, size=n - 1)
    heading = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(turns)
    edges = steps[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    return np.vstack([[0.0, 0.0], np.cumsum(edges, axis=0)]) + rng.uniform(-50, 50, size=2)


def radial_outline(rng, n: int, jitter: float) -> np.ndarray:
    """Star-shaped closed outline: a few smooth radial harmonics, jittered sample angles."""
    k = np.arange(2, 7)
    amp = rng.uniform(0.0, 0.08, size=k.size) * 2.0 / k
    phase = rng.uniform(0.0, 2.0 * math.pi, size=k.size)
    t = 2.0 * math.pi * (np.arange(n) + rng.uniform(-jitter, jitter, size=n)) / n
    radius = 1.0 + (amp[:, None] * np.cos(k[:, None] * t + phase[:, None])).sum(axis=0)
    scale = rng.uniform(5.0, 50.0)
    return scale * np.column_stack([radius * np.cos(t), radius * np.sin(t)]) + rng.uniform(-50, 50, size=2)


class SEOutlines(Workload):
    """Each operation runs `meshsig signature` in-process on one CSV outline.

    A round covers schemes eq1-eq4, each on a closed and an open outline;
    eq1/eq2 get equally spaced outlines, eq3/eq4 unequally spaced ones.
    """

    name = "se-outlines"
    n = 1600
    configs = [(s, closed) for s in (1, 2, 3, 4) for closed in (True, False)]
    round_size = len(configs)

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def _outline(self, rng, scheme: int, closed: bool) -> np.ndarray:
        step = rng.uniform(0.05, 0.5)
        if scheme <= 2:
            if closed:
                return equilateral_closed(rng, self.n, step)
            return turning_walk(rng, self.n, np.full(self.n - 1, step))
        if closed:
            return radial_outline(rng, self.n, jitter=0.35)
        return turning_walk(rng, self.n, step * rng.uniform(0.6, 1.6, size=self.n - 1))

    def make_round(self, rng) -> list[Op]:
        ops = []
        for k, (scheme, closed) in enumerate(self.configs):
            points = self._outline(rng, scheme, closed)
            src = self.workdir / f"outline-{k}.csv"
            out = self.workdir / f"signature-{k}.csv"
            src.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
            argv = ["signature", str(src), "--group", "se", "--scheme", str(scheme), "--out", str(out)]
            if closed:
                argv.append("--closed")
            ops.append(Op(self.n, {"argv": argv, "points": points, "scheme": scheme,
                                   "closed": closed, "out": out}))
        return ops

    def run(self, op: Op):
        return cli.main(op.data["argv"])

    def check(self, op: Op, code) -> list[str]:
        d = op.data
        if code != 0:
            return [f"signature command exited {code}"]
        scheme, closed, points = d["scheme"], d["closed"], d["points"]
        spec = SE_SCHEMES[scheme]
        n = len(points)
        sig = meshio.read_signature_csv(d["out"])
        problems = []
        if sig.scheme.value != scheme or (sig.spec.m1, sig.spec.m2) != (1, 1):
            problems.append("signature file names the wrong scheme or stencil")
        lo = min(spec["centers"][0] - 1, spec["chord"][0])
        hi = max(spec["centers"][1] + 1, spec["chord"][1])
        expected = np.arange(n) if closed else np.arange(max(0, -lo), n - hi)
        if not np.array_equal(sig.indices, expected):
            return problems + ["signature rows cover the wrong indices"]
        kappa_ref, allowed = reference_curvature(points, closed)
        i = expected
        excess = np.abs(sig.kappas - kappa_ref[i]) / allowed[i]
        if not (excess <= 1.0).all():
            worst = int(np.argmax(excess))
            problems.append(f"curvature at row {worst} differs from the reference by "
                            f"{excess[worst]:.3g} times the allowed error")
        a, b = spec["centers"]
        lo_c, hi_c = spec["chord"]
        chord = np.hypot(*(points[(i + hi_c) % n] - points[(i + lo_c) % n]).T)
        ks_ref = spec["factor"] * (kappa_ref[(i + b) % n] - kappa_ref[(i + a) % n]) / chord
        bound = (spec["factor"] * (allowed[(i + b) % n] + allowed[(i + a) % n]) / chord
                 + SE_CURVATURE_RTOL * np.abs(ks_ref))
        excess = np.abs(sig.kappa_s - ks_ref) / bound
        if not (excess <= 1.0).all():
            worst = int(np.argmax(excess))
            problems.append(f"difference quotient at row {worst} differs from the reference by "
                            f"{excess[worst]:.3g} times its propagated bound")
        # the file must re-read to exactly the doubles meshsig computes in memory
        # from the same points (the CLI's spacing tolerance, the (1, 1) stencil)
        computed = ms.se_signature(ms.Mesh(points.copy(), closed=closed), ms.Scheme.from_id(scheme),
                                   spacing_tol=CLI_SPACING_TOL)
        if not (np.array_equal(sig.indices, computed.indices)
                and np.array_equal(sig.kappas, computed.kappas)
                and np.array_equal(sig.kappa_s, computed.kappa_s)):
            problems.append("signature CSV does not re-read bit for bit to the in-memory signature")
        return problems

    def close(self) -> None:
        for path in self.workdir.glob("*.csv"):
            path.unlink()
        self.workdir.rmdir()


# ---------------------------------------------------------------------------
# sa-arcs: equiaffine decisions and signatures on open ellipse arcs
# ---------------------------------------------------------------------------

SA_VARIANTS = ("thm5.7", "thm5.8", "cor5.9")
# Curvature centres of the numerator and the arc-length end offsets per scheme;
# the conic fit reaches two points to either side of each centre.
SA_SCHEMES = {
    5: {"centers": (0, 1), "arc": (0, 1)},
    6: {"centers": (-1, 1), "arc": (-1, 1)},
    7: {"centers": (0, 1), "arc": (-2, 3)},
    8: {"centers": (-1, 1), "arc": (-5, 5)},
}
# Relative error allowed between the signature's curvature and (ab)^(-2/3).
SA_CURVATURE_RTOL = 1e-7
# kappa_s vanishes on an ellipse; allowed: this share of kappa per arc-length step.
SA_KAPPA_S_TOL = 1e-6


def ellipse_arc(t0: float, n: int, a: float, b: float, step: float) -> np.ndarray:
    t = t0 + step * np.arange(n)
    return np.column_stack([a * np.cos(t), b * np.sin(t)])


class SAArcs(Workload):
    """One congruent and one perturbed pair of open ellipse arcs per operation.

    Arcs have 32 points at a parameter step of 0.09-0.098, so they span
    less than half a turn; the images are unimodular affine copies. The
    perturbed pair maps an arc of an ellipse whose minor axis is 2% longer.
    """

    name = "sa-arcs"
    n = 32
    round_size = 4

    def _pair(self, rng, perturbed: bool):
        a, b = rng.uniform(0.8, 2.5), rng.uniform(0.6, 1.8)
        step, t0 = rng.uniform(0.09, 0.098), rng.uniform(0.0, 2.0 * math.pi)
        offset = rng.uniform(-3, 3, size=2)
        src = ellipse_arc(t0, self.n, a, b, step) + offset
        moved = ellipse_arc(t0, self.n, a, 1.02 * b, step) + offset if perturbed else src
        lin, shift = unimodular(rng), rng.uniform(-5, 5, size=2)
        dst = moved @ lin.T + shift
        return {"a": a, "b": b, "step": step, "src": src, "dst": dst, "linear": lin,
                "shift": shift, "m1": ms.Mesh(src), "m2": ms.Mesh(dst)}

    def make_round(self, rng) -> list[Op]:
        ops = []
        for _ in range(self.round_size):
            same, other = self._pair(rng, False), self._pair(rng, True)
            ops.append(Op(4 * self.n, {"same": same, "other": other}))
        return ops

    def run(self, op: Op):
        same, other = op.data["same"], op.data["other"]
        verdicts = [ms.decide_affine(same["m1"], same["m2"], v) for v in SA_VARIANTS]
        refuted = [ms.decide_affine(other["m1"], other["m2"], v) for v in SA_VARIANTS]
        sigs = [ms.sa_signature(same["m2"], ms.Scheme.from_id(s)) for s in SA_SCHEMES]
        return verdicts, refuted, sigs

    def check(self, op: Op, out) -> list[str]:
        verdicts, refuted, sigs = out
        same = op.data["same"]
        problems = []
        for variant, verdict in zip(SA_VARIANTS, verdicts):
            problems += check_witness(verdict, same["src"], same["dst"], same["linear"],
                                      same["shift"], f"decide_affine {variant} congruent pair")
        for variant, verdict in zip(SA_VARIANTS, refuted):
            problems += check_not_congruent(verdict, f"decide_affine {variant}")
        kappa = (same["a"] * same["b"]) ** (-2.0 / 3.0)
        arc_step = (same["a"] * same["b"]) ** (1.0 / 3.0) * same["step"]
        n = self.n
        for scheme, sig in zip(SA_SCHEMES, sigs):
            spec = SA_SCHEMES[scheme]
            lo = min(spec["centers"][0] - 2, spec["arc"][0])
            hi = max(spec["centers"][1] + 2, spec["arc"][1])
            if not np.array_equal(sig.indices, np.arange(max(0, -lo), n - hi)):
                problems.append(f"eq{scheme} rows cover the wrong indices")
                continue
            err = float(np.abs(sig.kappas / kappa - 1.0).max())
            if not err <= SA_CURVATURE_RTOL:
                problems.append(f"eq{scheme} curvature differs from (ab)^(-2/3) by {err:.3e}")
            drift = float(np.abs(sig.kappa_s).max()) * arc_step / kappa
            if not drift <= SA_KAPPA_S_TOL:
                problems.append(f"eq{scheme} kappa_s of an ellipse is {drift:.3e} of kappa per step")
        return problems


# ---------------------------------------------------------------------------
# se-rules: every Euclidean decision rule on small meshes
# ---------------------------------------------------------------------------

# Every operation decides pairs of both sizes k and SE_RULES_TOTAL - k.
SE_RULES_SIZES = (14, 20, 26, 32, 38)
SE_RULES_TOTAL = 76
# Rule hypotheses compare angle types with a right-angle band; generated
# meshes keep every classified angle this far (radians) from pi/2.
ANGLE_MARGIN = 1e-3

OPEN_RULES = (
    ("decide_dist_angle", lambda a, b: ms.decide_dist_angle(a, b)),
    ("decide_eq1", lambda a, b: ms.decide_eq1(a, b)),
    ("decide_eq2_angle_type", lambda a, b: ms.decide_eq2_angle_type(a, b)),
    ("decide_eq2_angle_type fine", lambda a, b: ms.decide_eq2_angle_type(a, b, fine_variant=True)),
    ("decide_eq2_signed", lambda a, b: ms.decide_eq2_signed(a, b)),
    ("decide_eq2_signed curvature-only", lambda a, b: ms.decide_eq2_signed(a, b, curvature_only=True)),
    ("decide_eq3", lambda a, b: ms.decide_eq3(a, b)),
    ("decide_eq4 equal-end-angles", lambda a, b: ms.decide_eq4(a, b, endpoint_rule="equal-end-angles")),
    ("decide_eq4 obtuse-start", lambda a, b: ms.decide_eq4(a, b, endpoint_rule="obtuse-start")),
    ("align se", lambda a, b: ms.align(a, b, ms.Group.SE)),
    ("align e", lambda a, b: ms.align(a, b, ms.Group.E)),
)


def vertex_angles(points: np.ndarray, back: int, fwd: int, closed: bool) -> np.ndarray:
    idx = np.arange(len(points)) if closed else np.arange(back, len(points) - fwd)
    u = points[(idx - back) % len(points)] - points[idx]
    v = points[(idx + fwd) % len(points)] - points[idx]
    return np.arctan2(np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]), (u * v).sum(axis=1))


def rule_polygon(rng, n: int) -> np.ndarray:
    """Equilateral convex ccw polygon satisfying every rule's hypotheses with margin.

    Angle types must be decidable (no classified angle near pi/2) and the
    obtuse-start rule needs the open mesh's 3-angle at index 3 obtuse.
    """
    while True:
        points = equilateral_closed(rng, n, 1.0)
        angles = np.concatenate([vertex_angles(points, m1, m2, True)
                                 for m1, m2 in ((1, 1), (1, 2), (3, 3), (3, 1))])
        start = vertex_angles(points, 3, 3, False)[0]
        if np.abs(angles - math.pi / 2).min() > ANGLE_MARGIN and start > math.pi / 2 + ANGLE_MARGIN:
            return points


def bend(points: np.ndarray, at: int, theta: float) -> np.ndarray:
    """Rotate the points after `at` about it: edge lengths stay, one angle changes."""
    out = points.copy()
    out[at + 1:] = (points[at + 1:] - points[at]) @ rotation(theta).T + points[at]
    return out


class SERules(Workload):
    """Congruent and perturbed pairs of small equilateral convex meshes.

    Each operation decides a congruent and a perturbed pair at each of two
    sizes, k and 76 - k, so every operation handles the same number of
    points while the sizes range over 14-62. The open meshes go through
    every Euclidean rule and index-aligned `align`; the same points, closed,
    go through `decide_host` (n is never divisible by 3).
    """

    name = "se-rules"
    round_size = len(SE_RULES_SIZES)

    def _pairs(self, rng, n: int) -> dict:
        points = rule_polygon(rng, n)
        lin, shift = rotation(rng.uniform(0.0, 2.0 * math.pi)), rng.uniform(-20, 20, size=2)
        image = points @ lin.T + shift
        other = rule_polygon(rng, n)
        bent = bend(other, n // 2, 0.02) @ lin.T + shift
        return {
            "src": points, "dst": image, "linear": lin, "shift": shift,
            "open": (ms.Mesh(points), ms.Mesh(image)),
            "closed": (ms.Mesh(points, closed=True), ms.Mesh(image, closed=True)),
            "open_perturbed": (ms.Mesh(other), ms.Mesh(bent)),
            "closed_perturbed": (ms.Mesh(other, closed=True), ms.Mesh(bent, closed=True)),
        }

    def make_round(self, rng) -> list[Op]:
        sizes = list(SE_RULES_SIZES)
        rng.shuffle(sizes)
        return [Op(8 * SE_RULES_TOTAL, {"pairs": [self._pairs(rng, k), self._pairs(rng, SE_RULES_TOTAL - k)]})
                for k in sizes]

    def run(self, op: Op):
        out = []
        for p in op.data["pairs"]:
            same = [rule(*p["open"]) for _, rule in OPEN_RULES] + [ms.decide_host(*p["closed"])]
            other = [rule(*p["open_perturbed"]) for _, rule in OPEN_RULES]
            other.append(ms.decide_host(*p["closed_perturbed"]))
            out.append((same, other))
        return out

    def check(self, op: Op, out) -> list[str]:
        names = [name for name, _ in OPEN_RULES] + ["decide_host"]
        problems = []
        for p, (same, other) in zip(op.data["pairs"], out):
            n = len(p["src"])
            for name, verdict in zip(names, same):
                problems += check_witness(verdict, p["src"], p["dst"], p["linear"], p["shift"],
                                          f"{name} n={n} congruent pair")
            for name, verdict in zip(names, other):
                problems += check_not_congruent(verdict, f"{name} n={n}")
        return problems


# ---------------------------------------------------------------------------
# cyclic-match: cyclic alignment of closed outlines with an unknown start
# ---------------------------------------------------------------------------

CYCLIC_CASES = (
    # group, match mode, orientation-reversing, traversed in reverse
    (ms.Group.SE, ms.MatchMode.CYCLIC, False),
    (ms.Group.E, ms.MatchMode.CYCLIC_REVERSAL, True),
    (ms.Group.SA, ms.MatchMode.CYCLIC, False),
    (ms.Group.ABAR, ms.MatchMode.CYCLIC_REVERSAL, True),
)


def correspondence(tag: str, n: int) -> np.ndarray:
    """Index map of an `align` correspondence tag, derived from its definition."""
    base = np.arange(n)
    if tag == "identity":
        return base
    shift = int(tag.rsplit("+", 1)[1])
    if tag.startswith("reversed"):
        return (shift - base) % n
    return (base + shift) % n


class CyclicMatch(Workload):
    """One closed outline against its SE, E, SA and Abar images and an unrelated outline.

    Images start at a random index; the E and Abar images are reflected and
    traversed in reverse. The unrelated outline is scaled to the same
    diameter, so the Euclidean groups cannot reject it before the shift scan.
    Within a round, each group's start indices are stratified over the cycle,
    so every round holds the same spread of scan lengths.
    """

    name = "cyclic-match"
    n = 300
    round_size = 8

    def make_round(self, rng) -> list[Op]:
        n, size = self.n, self.round_size
        starts = [rng.permutation((np.arange(size) + rng.uniform(0, 1, size)) * n / size).astype(int)
                  for _ in CYCLIC_CASES]
        ops = []
        for k in range(size):
            points = radial_outline(rng, n, jitter=0.35)
            unrelated = radial_outline(rng, n, jitter=0.35)
            unrelated = unrelated * (diameter(points) / diameter(unrelated))
            images = []
            for (group, mode, reverse), start in zip(CYCLIC_CASES, starts):
                if group in (ms.Group.SE, ms.Group.E):
                    lin = rotation(rng.uniform(0.0, 2.0 * math.pi))
                else:
                    lin = unimodular(rng)
                if reverse:
                    lin = lin @ REFLECT
                shift = rng.uniform(-50, 50, size=2)
                s = int(start[k])
                order = (s - np.arange(n)) % n if reverse else (np.arange(n) + s) % n
                image = (points @ lin.T + shift)[order]
                images.append({"group": group, "mode": mode, "linear": lin, "shift": shift,
                               "points": image, "mesh": ms.Mesh(image, closed=True)})
            ops.append(Op(6 * n, {"points": points, "mesh": ms.Mesh(points, closed=True),
                                  "unrelated": ms.Mesh(unrelated, closed=True), "images": images}))
        return ops

    def run(self, op: Op):
        m = op.data["mesh"]
        found = [ms.align(m, img["mesh"], img["group"], img["mode"]) for img in op.data["images"]]
        refuted = [ms.align(m, op.data["unrelated"], img["group"], img["mode"])
                   for img in op.data["images"]]
        return found, refuted

    def check(self, op: Op, out) -> list[str]:
        found, refuted = out
        points = op.data["points"]
        problems = []
        for img, verdict in zip(op.data["images"], found):
            what = f"cyclic align {img['group'].value}"
            if verdict.status is not ms.Verdict.CONGRUENT:
                problems.append(f"{what}: expected congruent, got {verdict.status.value}")
                continue
            matched = img["points"][correspondence(verdict.correspondence, self.n)]
            problems += check_witness(verdict, points, matched, img["linear"], img["shift"], what)
        for img, verdict in zip(op.data["images"], refuted):
            problems += check_not_congruent(verdict, f"cyclic align {img['group'].value} unrelated")
        return problems


WORKLOADS = {
    "se-outlines": SEOutlines,
    "sa-arcs": SAArcs,
    "se-rules": SERules,
    "cyclic-match": CyclicMatch,
}
