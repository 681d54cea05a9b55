"""Bond-side rate function R(b, zeta) and J_B = 2*b^2*R.

J_B is the variational rate governing the exponential decay of the
Laplace transform E[exp(-theta*X_T)] in the scaling regime of
``model.scale``: log F ~ -J_B/(sigma^2*T), equivalently the bond price
is exp(-r0*T*R).  R is evaluated in closed form from one transcendental
root per call:

* hyperbolic branch (root delta in [0, |zeta|]) when b < |zeta|/(2+zeta),
* trigonometric branch (root xi) when b > |zeta|/(2+zeta).

Under delta = 2i*xi the branches are one analytic function of
u = delta^2 = -4*xi^2: one root equation and one value formula
(``_solve_u``, ``_value``).  The branch is the sign of the root u; on the
locus u = 0 is a simple root, where R is ``boundary_value``.

Sign convention: the returned ``value`` is normalized to be the positive
rate, i.e. J_B = 2*b^2*value >= 0 and bond yields r0*value come out
positive.  R(b, 0) is the zeta = 0 case of ``rate_R``, whose root then
solves lambda = b*cos(lambda); small-b and large-b expansions of it are
provided for cheap evaluation and for demonstrating the finite
convergence radius of the series.  All functions are pure and stateless.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from ._mathutil import (as_float, cosh_sinhc, expm1_over_x, finite_floats, require_finite,
                        require_nonnegative, require_positive)
from .errors import BranchError, DomainError
from .rootfind import RootResult, _solve_newton

__all__ = [
    "Branch",
    "RateEval",
    "solve_delta",
    "solve_xi",
    "solve_lambda",
    "rate_R",
    "rate_R_zero_drift",
    "rate_R_series",
    "rate_R_largeb",
    "jb",
    "convergence_radius",
    "boundary_value",
]

# small-b series coefficients of R(b,0) in powers of b^2 (constant term first)
SERIES_COEFFS = (1.0, -1.0 / 3.0, 4.0 / 15.0, -92.0 / 315.0, 1072.0 / 2835.0)


class Branch(str, Enum):
    HYPERBOLIC = "hyperbolic"
    TRIGONOMETRIC = "trigonometric"
    BOUNDARY = "boundary"
    ZERO_DRIFT = "zero_drift"


@dataclass(frozen=True)
class RateEval:
    """R or I_BS value with its branch, root and solver evaluation count (0 if closed form)."""

    value: float
    branch: Branch
    root: float
    residual: float
    evals: int


def _check_zeta(zeta: float) -> None:
    if zeta <= -2.0:
        raise DomainError(f"zeta must be > -2, got {zeta}")


def _root_of(u: float) -> float:
    """The published root of u = delta^2 = -4*xi^2: delta for u > 0, xi for u < 0, else 0."""
    return math.sqrt(u) if u > 0.0 else 0.5 * math.sqrt(-u) if u < 0.0 else 0.0


def _root_result(u: float, residual: float, evals: int, bracket: tuple, to_u: float) -> RootResult:
    """A solve in u, with its final bracket in u/to_u, reported in delta or xi."""
    return RootResult(_root_of(u), residual, evals, tuple(sorted(_root_of(e * to_u) for e in bracket)))


def _rate_eval(value: float, u: float, residual: float, evals: int) -> RateEval:
    """R or I_BS at a solved u: the branch is the sign of u, BOUNDARY where u is 0."""
    branch = Branch.TRIGONOMETRIC if u < 0.0 else Branch.HYPERBOLIC if u > 0.0 else Branch.BOUNDARY
    return RateEval(value, branch, _root_of(u), residual, evals)


def _xi_bound(zeta: float) -> float:
    """A bound above the first zero of P = cos(xi) + zeta*sin(xi)/(2*xi) on xi > 0.

    P > 0 below that zero, and P < 0 from it up to xi = pi; the bound is
    the least of pi/2 + atan(zeta/pi) and pi*sqrt(1 + zeta/2).
    """
    return min(0.5 * math.pi + math.atan(zeta / math.pi), math.pi * math.sqrt(1.0 + 0.5 * zeta))


def _solve_u(b: float, zeta: float, hyperbolic: bool) -> tuple[float, float, int, tuple, float]:
    """Root u = delta^2 = -4*xi^2 of sqrt(zeta^2 - u) = 2*b*P on one side of the locus.

    P = C + zeta*S/2, with C and S from ``cosh_sinhc(u/4)``, is formed as
    (1 + zeta/2)*S + (u/2)*dS/dv, which does not cancel as zeta -> -2.  The
    equation is analytic in u across the locus, where u = 0 is a simple
    root.  Hyperbolic side: squared, zeta^2 - u = 4*b^2*P^2 on [0, zeta^2],
    as small b puts the root at u = zeta^2.  Trigonometric side: P falls
    from 1 + zeta/2 at u = 0 to a first zero below ``_xi_bound`` and stays
    negative up to xi = pi, so a root has 2*b*P <= b*(2 + zeta) and xi
    below sqrt((b*(2 + zeta))^2 - zeta^2)/2; the least of these bounds is
    xi_max.  Each side is solved for w in [-1, 1], u/zeta^2 or
    u/(4*xi_max^2), with a unit right side, so the solver's tolerances are
    relative; below b or |zeta| of about 1.5e-154, where zeta^2/4 or
    xi_max^2 is below the smallest normal float and the sign change is lost
    to rounding, DomainError is raised.  Exactly on the locus, b*(2 + zeta)
    = |zeta|, u = 0 is returned with no evaluation, at any scale.  The end
    w = 0 is a closed form, S = 1 and P = 1 + zeta/2 there, so it is handed
    to the solver and not evaluated.  Returns u, the relative residual, the
    evaluations, the final w bracket and u/w.
    The residual is 1 - 4*b^2*P^2/(zeta^2 - u) on the hyperbolic side and
    the solver's own (sqrt(zeta^2 - u) - 2*b*P)/(b*(2 + zeta)) on the
    trigonometric side, which stays finite at any b.
    """
    reach, az = b * (2.0 + zeta), abs(zeta)
    if reach == az:
        return 0.0, 0.0, 0, (0.0, 0.0), 1.0
    z2 = zeta * zeta
    a = 1.0 + 0.5 * zeta
    if hyperbolic:
        scale, lo, hi = 0.25 * z2, 0.0, 1.0
        b2 = b * b
        q = (2.0 * b / zeta) ** 2
        f_lo, f_hi = 1.0 - q * a * a, None  # f at w = 0, where S = 1 and P = 1 + zeta/2

        def fdf(w: float) -> tuple[float, float]:
            v = w * scale
            _, s, d = cosh_sinhc(v)
            p = a * s + 2.0 * v * d
            return 1.0 - w - q * p * p, -1.0 - b2 * p * (s + zeta * d)
    else:
        xi_max = min(0.5 * math.sqrt((reach - az) * (reach + az)), _xi_bound(zeta))
        scale, lo, hi = xi_max * xi_max, -1.0, 0.0
        k, m = 1.0 / reach, 2.0 / a
        h1, h2 = 2.0 * scale * k, 0.25 * scale * m
        f_lo, f_hi = None, math.sqrt(z2) * k - 1.0  # f at w = 0, where S = 1

        # (sqrt(zeta^2 - u) - 2*b*P)/reach, with P/(1 + zeta/2) = S + m*v*dS/dv
        def fdf(w: float) -> tuple[float, float]:
            v = w * scale
            _, s, d = cosh_sinhc(v)
            r = math.sqrt(z2 - 4.0 * v)
            return r * k - s - m * v * d, -(h1 / r if r > 0.0 else math.inf) - h2 * (s + zeta * d)

    if scale < sys.float_info.min:
        raise DomainError(f"the root's bracket underflows at b={b}, zeta={zeta}: its scale "
                          f"{scale:g} (zeta^2/4 or xi_max^2) is below the smallest normal float")
    res = _solve_newton(fdf, lo, hi, 1e-15, f_lo=f_lo, f_hi=f_hi)
    w, f, to_u = res.root, res.residual, 4.0 * scale
    u = w * to_u
    residual = f / (1.0 - w) if hyperbolic and w < 1.0 else f
    return u, residual, res.iterations, res.bracket, to_u


def solve_delta(b: float, zeta: float) -> RootResult:
    """Root delta in [0, |zeta|] of the hyperbolic-branch equation, for b > 0 and zeta > -2.

    The equation is zeta^2 - delta^2 = 4*b^2*P^2 with P = cosh(delta/2) +
    zeta*sinh(delta/2)/delta, solved for u = delta^2 (``_solve_u``); the
    residual is relative, 1 - 4*b^2*P^2/(zeta^2 - delta^2).  The branch
    test is ``rate_R``'s: BranchError is raised where b*(2 + zeta) > |zeta|
    in floating point, so at zeta = 0 for every b, and exactly on the locus
    b*(2 + zeta) == |zeta| the root is 0.
    """
    b, zeta = finite_floats(b=b, zeta=zeta)
    _check_zeta(zeta)
    require_positive(b=b)
    if b * (2.0 + zeta) > abs(zeta):
        raise BranchError(f"b={b} exceeds the branch boundary {abs(zeta) / (2.0 + zeta)} for zeta={zeta}")
    return _root_result(*_solve_u(b, zeta, True))


def solve_xi(b: float, zeta: float) -> RootResult:
    """Root xi in [0, pi) of the trigonometric-branch equation.

    The equation is 2*xi^2*(4*xi^2 + zeta^2) = 2*b^2*(2*xi*cos(xi) +
    zeta*sin(xi))^2, solved unsquared, sqrt(4*xi^2 + zeta^2) =
    b*(2*cos(xi) + zeta*sinc(xi)), for u = -4*xi^2 (``_solve_u``).  That
    drops the double zero at xi = 0 and the roots where the log argument
    2*xi*cos(xi) + zeta*sin(xi) of the closed form is not positive.  b must
    be > 0 and zeta > -2.  The branch test is ``rate_R``'s: BranchError is
    raised where b*(2 + zeta) < |zeta| in floating point, and exactly on
    the locus b*(2 + zeta) == |zeta| the root is 0.  The residual is
    relative to the equation's reach b*(2 + zeta):
    (sqrt(4*xi^2 + zeta^2) - b*(2*cos(xi) + zeta*sinc(xi)))/(b*(2 + zeta)).
    """
    b, zeta = finite_floats(b=b, zeta=zeta)
    _check_zeta(zeta)
    require_positive(b=b)
    if b * (2.0 + zeta) < abs(zeta):
        raise BranchError(f"b={b} is below the branch boundary {abs(zeta) / (2.0 + zeta)} for zeta={zeta}")
    return _root_result(*_solve_u(b, zeta, False))


def solve_lambda(b: float) -> RootResult:
    """Root lambda in (0, pi/2) of lambda = b*cos(lambda), for b > 0: ``solve_xi(b, 0)``."""
    return solve_xi(b, 0.0)


def _value(b: float, zeta: float, u: float) -> float:
    """R at a solved root u = delta^2 = -4*xi^2 of either branch (positive-rate normalization).

    R = P*(2*S - P) - (zeta/b^2)*log(P) + zeta^2/(2*b^2), with S from
    ``cosh_sinhc(u/4)`` and the log argument P = C + zeta*S/2 taken from
    the root equation on the trigonometric side, P = sqrt(zeta^2 - u)/(2*b),
    whose sum does not cancel (C + zeta*S/2 does near P's zero, where the
    root sits at large b).  The hyperbolic side forms P as
    (1 + zeta/2)*S + (u/2)*dS/dv, since sqrt(zeta^2 - u) cancels as u ->
    zeta^2 at small b.  Raises DomainError where P or the value is not a
    positive finite number.
    """
    _, s, d = cosh_sinhc(0.25 * u)
    p = math.sqrt(zeta * zeta - u) / (2.0 * b) if u < 0.0 else (1.0 + 0.5 * zeta) * s + 0.5 * u * d
    if p > 0.0:
        value = p * (2.0 * s - p) - (zeta / (b * b)) * math.log(p) + zeta * zeta / (2.0 * b * b)
        if 0.0 < value < math.inf:
            return value
    raise DomainError(
        f"R has no positive finite value in double precision at b={b}, zeta={zeta} "
        f"(root u = {u!r}, log argument P = {p!r})"
    )


def boundary_value(zeta: float) -> float:
    """Closed-form R exactly on the branch boundary b = |zeta|/(2+zeta).

    Common limit of both branches as their roots go to zero:
    -(zeta^2/4 - 1 - (2+zeta)^2/2 + (2+zeta)^2/zeta * log(1+zeta/2)).
    Verified against both one-sided branch evaluations; reduces to 1 as
    zeta -> 0.  Raises DomainError where the evaluation overflows (zeta
    above about 1e154).
    """
    (zeta,) = finite_floats(zeta=zeta)
    _check_zeta(zeta)
    return _boundary_value(zeta)


def _boundary_value(zeta: float) -> float:
    if abs(zeta) < 1e-5:
        return 1.0 + 0.5 * zeta + zeta * zeta / 12.0
    p = 2.0 + zeta
    printed = -1.0 + 0.25 * zeta * zeta - 0.5 * p * p + (p * p / zeta) * math.log1p(0.5 * zeta)
    if not math.isfinite(printed):
        raise DomainError(f"boundary_value overflows double precision at zeta={zeta}")
    return -printed


def rate_R(b: float, zeta: float) -> RateEval:
    """Rate function R(b, zeta) >= 0 with branch dispatch.

    b = 0 returns the b -> 0 limit (e^zeta - 1)/zeta (J_B is 0 there
    regardless); zeta = 0 is the trigonometric branch.  zeta must be > -2.
    Raises DomainError on overflow, an underflowed bracket (``_solve_u``) or a
    value that is not positive and finite.
    """
    return _rate_R(as_float(b), as_float(zeta))


def _rate_R(b: float, zeta: float) -> RateEval:
    if not (0.0 <= b < math.inf and -2.0 < zeta < math.inf):  # b, zeta from ``model._scaled``
        require_finite(b=b, zeta=zeta)
        require_nonnegative(b=b)
        _check_zeta(zeta)
    if b == 0.0:
        return RateEval(expm1_over_x(zeta), Branch.ZERO_DRIFT, root=0.0, residual=0.0, evals=0)
    try:
        u, residual, evals, _, _ = _solve_u(b, zeta, b * (2.0 + zeta) < abs(zeta))
        # exactly on the locus the closed form avoids the zeta/b^2 cancellation
        value = _value(b, zeta, u) if u != 0.0 else _boundary_value(zeta)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"rate_R overflows double precision at b={b}, zeta={zeta} "
            "(cosh/sinh of the hyperbolic root, or zeta/b^2, exceed 1.8e308)"
        ) from None
    return _rate_eval(value, u, residual, evals)


def rate_R_zero_drift(b: float) -> RateEval:
    """Zero-drift rate R(b, 0) = sin(2*lambda)/lambda - cos(lambda)^2: ``rate_R(b, 0)``."""
    return _rate_R(as_float(b), 0.0)


def rate_R_series(b: float, order: int = 8) -> float:
    """Truncated small-b series of R(b, 0).

    ``order`` is the highest power of b retained, one of {2, 4, 6, 8}.
    The series has a finite convergence radius (see
    ``convergence_radius``); truncations are only meaningful below it.
    """
    (b,) = finite_floats(b=b)
    if order not in (2, 4, 6, 8):
        raise ValueError(f"order must be one of 2, 4, 6, 8, got {order}")
    b2 = b * b
    total = 0.0
    for k in range(order // 2, -1, -1):  # Horner from the highest retained power
        total = total * b2 + SERIES_COEFFS[k]
    return total


def rate_R_largeb(b: float) -> float:
    """Large-b expansion of R(b, 0): 2/b - pi^2/4*(b^-2 - b^-3 + b^-4).

    Coefficients verified against the full solve (errors 3e-5 at b=10,
    9e-7 at b=20, decaying like b^-5).
    """
    (b,) = finite_floats(b=b)
    require_positive(b=b)
    q = math.pi * math.pi / 4.0
    inv = 1.0 / b
    return 2.0 * inv - q * inv * inv * (1.0 - inv + inv * inv)


def jb(b: float, zeta: float) -> float:
    """Variational rate J_B(b, zeta) = 2*b^2*R(b, zeta) >= 0.

    Taken as 2*b*(b*R): b^2 overflows past b = 1.3e154, while b*R stays
    near 2 at large b.  J_B is 0 at b = 0 for every zeta that ``rate_R``
    accepts; any other zeta raises ``rate_R``'s error.
    """
    b, zeta = as_float(b), as_float(zeta)
    if b == 0.0 and -2.0 < zeta < math.inf:
        return 0.0
    return 2.0 * b * (b * _rate_R(b, zeta).value)


@lru_cache(maxsize=1)
def convergence_radius() -> tuple[float, float]:
    """Constants (y0, R_b) of the small-b series convergence bound.

    y0 solves y*tanh(y) = 1 and R_b = y0/cosh(y0) is the radius: the
    series converges for |b| < R_b (about 0.6627).
    """
    def fdf(y):
        t = math.tanh(y)
        return y * t - 1.0, t + y * (1.0 - t * t)

    y0 = _solve_newton(fdf, 0.5, 2.0, 1e-15).root
    return y0, y0 / math.cosh(y0)
