"""Step-m traversal of a closed mesh and the traversal-based congruence rule.

Indices are 0-based throughout (the CLI documents the same convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import DEFAULT_POINT_TOL, CongruenceVerdict, _decide
from .errors import InvalidStep
from .geometry import RIGHT_ANGLE_TOL, Mesh
from .signatures import SIGNATURE_REL_TOL


@dataclass(frozen=True)
class Traversal:
    """Visit order of stepping by m around an n-cycle until returning home."""

    n: int
    m: int
    order: np.ndarray  # visited indices, starting and ending at 0
    complete: bool

    @property
    def steps(self) -> int:
        return len(self.order) - 1


def traverse(n: int, m: int) -> Traversal:
    """Step by m around indices 0..n-1 starting at 0 until 0 reappears.

    The walk is complete (every index met exactly once) exactly when
    gcd(m, n) = 1; that equivalence is asserted on every call.
    """
    if n < 3:
        raise InvalidStep(f"need n >= 3, got {n}")
    if not 1 <= m < n:
        raise InvalidStep(f"step must satisfy 1 <= m < n, got m={m}")
    positions = (m * np.arange(n + 1, dtype=np.int64)) % n
    first_return = int(np.argmax(positions[1:] == 0)) + 1
    order = positions[: first_return + 1]
    order.setflags(write=False)
    complete = first_return == n
    assert complete == (np.gcd(m, n) == 1)
    return Traversal(n=n, m=m, order=order, complete=complete)


def _prime_factors(n: int) -> list[int]:
    primes = []
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            primes.append(p)
            while remaining % p == 0:
                remaining //= p
        p += 1 if p == 2 else 2
    if remaining > 1:
        primes.append(remaining)
    return primes


def valid_steps(n: int) -> list[int]:
    """All steps m in [1, n) sharing no factor with n (complete traversals)."""
    if n < 2:
        raise InvalidStep(f"need n >= 2, got {n}")
    coprime = np.ones(n, dtype=bool)
    coprime[0] = False
    for p in _prime_factors(n):
        coprime[::p] = False
    return np.nonzero(coprime)[0].tolist()


def totient(n: int) -> int:
    """Euler's phi, n times the product of (1 - 1/p) over the primes p dividing n."""
    if n < 1:
        raise ValueError(f"totient needs n >= 1, got {n}")
    for p in _prime_factors(n):
        n -= n // p
    return n


def decide_host(m1: Mesh, m2: Mesh, sig_tol: float = SIGNATURE_REL_TOL, tol: float = DEFAULT_POINT_TOL,
                right_tol: float = RIGHT_ANGLE_TOL) -> CongruenceVerdict:
    """Closed-mesh congruence from 3-step data alone (rule host).

    Requires the step-3 traversal to be complete (n not divisible by 3), so
    the three residue classes of the wide stencils chain together; then
    matching signed 3-angle types, 3-step chords and EQ4 signatures force
    congruence, confirmed by the alignment oracle.
    """
    return _decide("host", m1, m2, sig_tol=sig_tol, tol=tol, right_tol=right_tol)
