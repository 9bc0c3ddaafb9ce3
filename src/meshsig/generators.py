"""Deterministic mesh factories for tests, self-checks and experiments."""

from __future__ import annotations

import numpy as np

from .geometry import Mesh


def circle_mesh(n: int, radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0,
                closed: bool = True, label: str = "circle") -> Mesh:
    """n equally spaced points of a circle."""
    t = phase + 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)])
    return Mesh(pts, closed=closed, label=label)


def ellipse_mesh(n: int, a: float, b: float, t0: float = 0.0, step: float | None = None,
                 closed: bool = True, label: str = "ellipse") -> Mesh:
    """Ellipse samples at equal parameter steps (equal equiaffine arc lengths).

    Closed meshes cover the full parameter circle; open meshes walk n points
    from t0 with the given step.
    """
    if closed:
        t = t0 + 2.0 * np.pi * np.arange(n) / n
    else:
        if step is None:
            raise ValueError("open ellipse arcs need an explicit parameter step")
        t = t0 + step * np.arange(n)
    pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
    return Mesh(pts, closed=closed, label=label)


def parabola_mesh(n: int, x0: float = -1.0, x1: float = 1.0, label: str = "parabola") -> Mesh:
    """Points of y = x^2 at equally spaced abscissae (equal arc lengths there)."""
    x = np.linspace(x0, x1, n)
    return Mesh(np.column_stack([x, x * x]), label=label)


def hyperbola_mesh(n: int, t0: float = -1.0, t1: float = 1.0, label: str = "hyperbola") -> Mesh:
    """One branch of x^2 - y^2 = 1, parameterized by (cosh t, sinh t)."""
    t = np.linspace(t0, t1, n)
    return Mesh(np.column_stack([np.cosh(t), np.sinh(t)]), label=label)


def _turning_walk(rng, n: int, steps, label: str) -> Mesh:
    """Open polyline from step lengths and bounded random turning angles."""
    turn_mag = rng.uniform(0.25, 0.9, size=n - 2)
    turn_sign = np.where(rng.random(n - 2) < 0.5, 1.0, -1.0)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    pts = [np.zeros(2)]
    for k in range(n - 1):
        pts.append(pts[-1] + steps[k] * np.array([np.cos(heading), np.sin(heading)]))
        if k < n - 2:
            heading += turn_mag[k] * turn_sign[k]
    return Mesh(np.array(pts), label=label)


def random_equally_spaced_mesh(rng, n: int = 12, step: float = 1.0) -> Mesh:
    """Open ordinary mesh with constant edge length and bounded turns."""
    rng = np.random.default_rng(rng)
    return _turning_walk(rng, n, np.full(n - 1, step), "random-equal")


def random_unequally_spaced_mesh(rng, n: int = 12) -> Mesh:
    """Open ordinary mesh with random edge lengths and bounded turns."""
    rng = np.random.default_rng(rng)
    return _turning_walk(rng, n, rng.uniform(0.6, 1.6, size=n - 1), "random-unequal")


def random_ordinary_mesh(rng, n: int = 10) -> Mesh:
    return random_unequally_spaced_mesh(rng, n)


def random_closed_mesh(rng, n: int = 12) -> Mesh:
    """Closed ordinary mesh: radial jitter around a circle."""
    rng = np.random.default_rng(rng)
    radii = rng.uniform(1.5, 2.5, size=n)
    t = 2.0 * np.pi * np.arange(n) / n + rng.uniform(0.0, 2.0 * np.pi)
    pts = np.column_stack([radii * np.cos(t), radii * np.sin(t)])
    return Mesh(pts, closed=True, label="random-closed")


def random_ellipse_arc_mesh(rng, n: int = 12) -> Mesh:
    """Open convex arc of a random ellipse at equal parameter steps.

    Affinely equally spaced by construction, positive curvature everywhere,
    so the arc satisfies the equiaffine fineness conditions.
    """
    rng = np.random.default_rng(rng)
    a = rng.uniform(0.9, 2.4)
    b = rng.uniform(0.7, 1.8)
    step = rng.uniform(0.16, 0.3)
    t0 = rng.uniform(0.0, 2.0 * np.pi)
    return ellipse_mesh(n, a, b, t0=t0, step=step, closed=False, label="random-ellipse-arc")


def equal_chord_curve_mesh(curve, n: int, chord_len: float, t0: float = 0.0) -> Mesh:
    """Walk n points along a parametric curve with a fixed chord length.

    `curve` maps a parameter array/scalar to points; steps are found by
    bisection, so edges agree to near machine precision.
    """
    pts = [np.asarray(curve(t0), dtype=float)]
    t = t0
    for _ in range(n - 1):
        base = pts[-1]

        def gap(u):
            return float(np.linalg.norm(np.asarray(curve(u), dtype=float) - base)) - chord_len

        hi = t + 1e-6
        while gap(hi) < 0.0:
            hi += 0.1
        lo = max(t, hi - 0.1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        pts.append(np.asarray(curve(t), dtype=float))
    return Mesh(np.array(pts), label="equal-chord")
