"""Bracketed scalar root solving.

Two solvers share one contract: the same argument checks, an endpoint
with |f| <= tol returned as the root after the two endpoint evaluations,
``NoSignChange`` and ``MaxIterations``, the width rule tol*max(1, |x|),
and ``iterations`` counting calls of the function.

* ``solve_newton`` backs the closed-form roots and the convergence-radius
  constant, whose equations have cheap analytic slopes.  One evaluation
  is one call returning the value and the slope.  It is the safeguarded
  Newton method ``rtsafe`` (Press et al., *Numerical Recipes*, 3rd ed.,
  section 9.4): a Newton step is taken only when it lands inside the
  sign-change interval and at least halves the step before last, and
  bisection is taken otherwise, so a wrong slope can slow a solve but
  never lead it out of the bracket.
* ``solve_bracketed`` is for callers' equations with no slope; no library
  module calls it.  It is Brent's method (Brent, *Algorithms for
  Minimization without Derivatives*, 1973, the ``zeroin`` procedure).
  Each step tries inverse quadratic interpolation through the last three
  iterates, or a secant step when only two are distinct; a step that
  leaves the inner three quarters of the bracket, or that does not at
  least halve the step taken two iterations earlier, is replaced by
  bisection.

Both keep the sign-change interval at every iteration and converge
superlinearly on smooth simple roots.  Stateless and safe for concurrent
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, MaxIterations, NoSignChange

__all__ = ["RootResult", "solve_bracketed", "solve_newton"]


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


def _start(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> RootResult | tuple[float, float]:
    """Shared prologue: check the arguments and evaluate both ends.

    Returns the endpoint root (``lo`` first) if an end has |f| <= tol, else
    the two endpoint values.  Raises DomainError on a bad tol or bracket and
    NoSignChange when the ends have the same sign.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    fa, fb = f(lo), f(hi)
    if abs(fa) <= tol:
        return RootResult(lo, fa, 2, (lo, hi))
    if abs(fb) <= tol:
        return RootResult(hi, fb, 2, (lo, hi))
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({lo})={fa:g} and f({hi})={fb:g} have the same sign")
    return fa, fb


def _max_iterations(max_iter: int, a: float, b: float, fx: float) -> MaxIterations:
    return MaxIterations(
        f"no convergence in {max_iter} evaluations; bracket [{min(a, b)}, {max(a, b)}], f={fx:g}"
    )


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
    start = _start(f, lo, hi, tol)
    if isinstance(start, RootResult):
        return start
    a, b = lo, hi
    fa, fb = start
    evals = 2

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
            raise _max_iterations(max_iter, b, c, fb)

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


def solve_newton(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> RootResult:
    """Find a root of f on ``[lo, hi]`` by Newton steps kept inside the bracket.

    ``fdf(x)`` returns ``(f(x), f'(x))``.  The first iterate is the secant
    point of the two endpoint values.  After each evaluation the solve
    ends when |f(x)| <= tol, or when the sign-change interval is narrower
    than tol*max(1, |x|), returning the last point evaluated.  It also
    ends there when a Newton step is shorter than half that width and the
    Newton step before it was at least twice as long, so an overstated
    slope cannot stop it early; otherwise a short step is lengthened to
    half the width.  ``iterations`` counts calls of ``fdf``.

    Raises:
        NoSignChange: neither endpoint is a root and both have the same sign.
        MaxIterations: no convergence within ``max_iter`` evaluations.
    """
    start = _start(lambda x: fdf(x)[0], lo, hi, tol)
    if isinstance(start, RootResult):
        return start
    fa, fb = start
    evals = 2
    x, fx = (lo, fa) if abs(fa) < abs(fb) else (hi, fb)
    if hi - lo <= tol * max(1.0, abs(x)):
        return RootResult(x, fx, evals, (lo, hi))

    # f < 0 at neg and f > 0 at pos, the ends of the sign-change interval.  The
    # first iterate is the secant point, at least half a width from either end;
    # dx is the length of the last step and dx_old of the one before it, and
    # newton marks the last step as a full Newton step
    neg, pos = (lo, hi) if fa < 0.0 else (hi, lo)
    x = lo - fa * (hi - lo) / (fb - fa)
    half_tol = 0.5 * tol * max(1.0, abs(x))
    x = min(max(x, lo + half_tol), hi - half_tol)
    dx = dx_old = hi - lo
    newton = False
    while True:
        if evals >= max_iter:
            raise _max_iterations(max_iter, neg, pos, fx)
        fx, dfx = fdf(x)
        evals += 1
        # x is now one end of the interval, and gap leads from it to the other
        if fx < 0.0:
            neg = x
            gap = pos - x
        else:
            pos = x
            gap = neg - x
        ax = abs(x)
        tol_x = tol * ax if ax > 1.0 else tol
        width = abs(gap)
        if -tol <= fx <= tol or width <= tol_x:
            return RootResult(x, fx, evals, (neg, pos) if neg < pos else (pos, neg))

        # the Newton point is tested by its fraction of gap, which a step below
        # half an ulp of x would not change
        step = fx / dfx if dfx != 0.0 else math.inf
        astep = abs(step)
        if 0.0 < -step / gap < 1.0 and 2.0 * astep <= dx_old:
            if 2.0 * astep < tol_x:
                if newton and 2.0 * astep <= dx:
                    return RootResult(x, fx, evals, (neg, pos) if neg < pos else (pos, neg))
                step = math.copysign(0.5 * tol_x, step)
                dx_old, dx, newton = dx, 0.5 * tol_x, False
            else:
                dx_old, dx, newton = dx, astep, True
        else:
            step = -0.5 * gap
            dx_old, dx, newton = dx, 0.5 * width, False
        x -= step
