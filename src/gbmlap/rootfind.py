"""Bracketed scalar root solving.

A single solver backs every transcendental equation in the library:
Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
1973, the ``zeroin`` procedure).  Each step tries inverse quadratic
interpolation through the last three iterates, or a secant step when only
two are distinct; a step that leaves the inner three quarters of the
bracket, or that does not at least halve the step taken two iterations
earlier, is replaced by bisection.  The sign-change interval is kept at
every iteration, and convergence is superlinear on smooth roots.
Stateless and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import MaxIterations, NoSignChange

__all__ = ["RootResult", "solve_bracketed"]


@dataclass(frozen=True)
class RootResult:
    """Outcome of a bracketed solve.

    root lies inside the initial bracket; residual is f(root); bracket is
    the final sign-change interval.
    """

    root: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> RootResult:
    """Find a root of ``f`` on ``[lo, hi]`` by Brent's method.

    Terminates when |f(x)| <= tol, at an endpoint too (``lo`` first), or
    when the bracket width falls below tol*max(1, |x|); no step is shorter
    than half that width.  ``iterations`` counts evaluations of ``f``.

    Raises:
        NoSignChange: neither endpoint is a root and both have the same sign.
        MaxIterations: no convergence within ``max_iter`` evaluations.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")

    a, b = lo, hi
    fa, fb = f(a), f(b)
    evals = 2
    if abs(fa) <= tol:
        return RootResult(a, fa, evals, (lo, hi))
    if abs(fb) <= tol:
        return RootResult(b, fb, evals, (lo, hi))
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({lo})={fa:g} and f({hi})={fb:g} have the same sign")

    # b is the best iterate, c the other end of the sign-change interval and
    # a the previous b; d is the last step and e the one before it
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half_tol = 0.5 * tol * max(1.0, abs(b))
        m = 0.5 * (c - b)
        if abs(fb) <= tol or abs(m) <= half_tol:
            return RootResult(b, fb, evals, (b, c) if b <= c else (c, b))
        if evals >= max_iter:
            raise MaxIterations(
                f"no convergence in {max_iter} evaluations; "
                f"bracket [{min(b, c)}, {max(b, c)}], f={fb:g}"
            )

        if abs(e) < half_tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(half_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m

        a, fa = b, fb
        b += d if abs(d) > half_tol else math.copysign(half_tol, m)
        fb = f(b)
        evals += 1
