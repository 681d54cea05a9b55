"""Bracketed scalar root solving.

One algorithm, the safeguarded Newton method ``rtsafe`` (Press et al.,
*Numerical Recipes*, 3rd ed., section 9.4), behind two entry points:

* ``solve_newton`` checks its arguments for ``_solve_newton``, which the
  closed-form roots and the convergence-radius constant call directly:
  their equations have analytic slopes, and one evaluation returns both.
* ``solve_bracketed`` is for callers' equations with no slope; no library
  module calls it.  It hands ``solve_newton`` the chord slope through the
  last two points evaluated (0 at the first point, which makes it bisect),
  so its Newton steps are secant steps under the same safeguards:
  Dekker's safeguarded secant method (Dekker, "Finding a zero by means of
  successive linear interpolation", 1969).

A Newton step is taken only when it lands inside the sign-change interval
and at least halves the step before last, and bisection is taken
otherwise, so a wrong slope can slow a solve but never lead it out of the
bracket.  Both entry points share one contract: the same argument checks,
an endpoint with |f| <= tol returned as the root after the two endpoint
evaluations, ``NoSignChange`` and ``MaxIterations``, the width rule
tol*max(1, |x|), and ``iterations`` counting calls of the function.  They
keep the sign-change interval at every iteration and converge
superlinearly on smooth simple roots.  Stateless and safe for concurrent
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._mathutil import as_float
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


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> RootResult:
    """Find a root of ``f`` on ``[lo, hi]`` by safeguarded secant steps.

    ``solve_newton`` with the chord slope through the last two points
    evaluated in place of f', so the same stopping rules and contract: an
    endpoint with |f| <= tol is the root (``lo`` first), and otherwise the
    solve ends when |f(x)| <= tol or the bracket is narrower than
    tol*max(1, |x|).  ``iterations`` counts evaluations of ``f``.

    Raises:
        NoSignChange: neither endpoint is a root and both have the same sign.
        MaxIterations: no convergence within ``max_iter`` evaluations.
    """
    last = []  # the last point evaluated and its value

    def fdf(x: float) -> tuple[float, float]:
        fx = f(x)
        slope = (fx - last[1]) / (x - last[0]) if last and x != last[0] else 0.0
        last[:] = x, fx
        return fx, slope

    return solve_newton(fdf, lo, hi, tol, max_iter)


def solve_newton(
    fdf: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> RootResult:
    """Find a root of f on ``[lo, hi]`` by Newton steps kept inside the bracket.

    ``fdf(x)`` returns ``(f(x), f'(x))``.  Both ends are evaluated first
    (``lo`` first), and an end with |f| <= tol is the root.  The first
    iterate is the secant point of the two endpoint values.  After each
    evaluation the solve ends when |f(x)| <= tol, or when the sign-change
    interval is narrower than tol*max(1, |x|), returning the last point
    evaluated.  It also ends there when a Newton step is shorter than half
    that width and the Newton step before it was at least twice as long,
    so an overstated slope cannot stop it early; otherwise a short step is
    lengthened to half the width.  ``iterations`` counts calls of ``fdf``.

    Raises:
        DomainError: tol is not positive, or the bracket is not finite and ordered.
        NoSignChange: neither endpoint is a root and both have the same sign.
        MaxIterations: no convergence within ``max_iter`` evaluations.
    """
    lo, hi, tol = as_float(lo), as_float(hi), as_float(tol)
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    return _solve_newton(fdf, lo, hi, tol, max_iter)


def _solve_newton(fdf, lo: float, hi: float, tol: float, max_iter: int = 200) -> RootResult:
    fa, fb = fdf(lo)[0], fdf(hi)[0]
    evals = 2
    if abs(fa) <= tol:
        return RootResult(lo, fa, evals, (lo, hi))
    if abs(fb) <= tol:
        return RootResult(hi, fb, evals, (lo, hi))
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({lo})={fa:g} and f({hi})={fb:g} have the same sign")
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
            raise MaxIterations(f"no convergence in {max_iter} evaluations; bracket "
                                f"[{min(neg, pos)}, {max(neg, pos)}], f={fx:g}")
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
