"""Bond-side rate function R(b, zeta) and J_B = 2*b^2*R.

J_B is the variational rate governing the exponential decay of the
Laplace transform E[exp(-theta*X_T)] in the scaling regime of
``model.scale``: log F ~ -J_B/(sigma^2*T), equivalently the bond price
is exp(-r0*T*R).  R is evaluated in closed form from one transcendental
root per call:

* hyperbolic branch (root delta in [0, |zeta|]) when b <= |zeta|/(2+zeta),
* trigonometric branch (root xi) when b >= |zeta|/(2+zeta),
* a closed-form value exactly on the boundary locus, where both roots
  degenerate to zero.

Sign convention: the returned ``value`` is normalized to be the positive
rate, i.e. J_B = 2*b^2*value >= 0 and bond yields r0*value come out
positive.  R(b, 0) is the zeta = 0 case of ``rate_R``, whose root then
solves lambda = b*cos(lambda); small-b and large-b expansions of it are
provided for cheap evaluation and for demonstrating the finite
convergence radius of the series.  All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from ._mathutil import require_finite, sinc, sinc_d, sinhc, sinhc_d
from .errors import BranchError, DomainError, NoRootInInterval, NoSignChange
from .rootfind import RootResult, solve_bracketed, solve_newton

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

# relative width of the exact-boundary detection window around b = |zeta|/(2+zeta)
_BOUNDARY_WINDOW = 1e-13

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


def _branch_threshold(zeta: float) -> float:
    """Boundary locus b = |zeta|/(2+zeta) separating the two branches."""
    return abs(zeta) / (2.0 + zeta)


def _check_zeta(zeta: float) -> None:
    if zeta <= -2.0:
        raise DomainError(f"zeta must be > -2, got {zeta}")


def solve_delta(b: float, zeta: float) -> RootResult:
    """Root delta in [0, |zeta|] of the hyperbolic-branch equation.

    The equation is zeta^2 - delta^2 = 4*b^2*(cosh(delta/2) +
    zeta*sinh(delta/2)/delta)^2; the delta -> 0 factor is evaluated by
    series (limit zeta/2), so the boundary root delta = 0 is exact.
    """
    require_finite(b=b, zeta=zeta)
    _check_zeta(zeta)
    if zeta == 0.0 or b <= 0.0:
        raise BranchError(f"hyperbolic branch needs zeta != 0 and b > 0, got b={b}, zeta={zeta}")
    thr = _branch_threshold(zeta)
    if b > thr * (1.0 + 1e-12):
        raise BranchError(f"b={b} exceeds the branch boundary {thr} for zeta={zeta}")

    b4 = 4.0 * b * b

    # value and slope; the slope takes sinh(h) as h*sinhc(h)
    def fdf(d: float) -> tuple[float, float]:
        h = 0.5 * d
        s, ds = sinhc_d(h)
        paren = math.cosh(h) + 0.5 * zeta * s
        slope = 0.5 * h * s + 0.25 * zeta * ds
        return zeta * zeta - d * d - b4 * paren * paren, -2.0 * d - 2.0 * b4 * paren * slope

    return solve_newton(fdf, 0.0, abs(zeta), tol=1e-15)


def solve_xi(b: float, zeta: float) -> RootResult:
    """Root xi in [0, pi) of the trigonometric-branch equation.

    The equation is 2*xi^2*(4*xi^2 + zeta^2) = 2*b^2*(2*xi*cos(xi) +
    zeta*sin(xi))^2.  It is solved in the unsquared form
    sqrt(4*xi^2 + zeta^2) = b*(2*cos(xi) + zeta*sinc(xi)) on [0, pi], which
    drops the spurious double zero at xi = 0 and the roots with a negative
    right side: every root of the unsquared form has 2*xi*cos(xi) +
    zeta*sin(xi) > 0, so it lies below the first positive zero of that
    factor, where the log argument in the closed form stays positive.  At
    xi = 0 the difference is |zeta| - b*(2 + zeta): xi = 0 is returned on
    the branch boundary, and NoRootInInterval is raised when b is on its
    hyperbolic side or zeta <= -2.  The reported residual is against the
    squared equation.
    """
    require_finite(b=b, zeta=zeta)
    if b <= 0.0:
        raise DomainError(f"solve_xi requires b > 0, got {b}")
    z2 = zeta * zeta

    # value and slope; the slope takes sin(x) as x*sinc(x), and at x = zeta = 0
    # the slope of the root term is its right-hand limit 2
    def hdh(x: float) -> tuple[float, float]:
        r = math.sqrt(4.0 * x * x + z2)
        s, ds = sinc_d(x)
        return (
            r - b * (2.0 * math.cos(x) + zeta * s),
            (4.0 * x / r if r > 0.0 else 2.0) + b * (2.0 * x * s - zeta * ds),
        )

    try:
        res = solve_newton(hdh, 0.0, math.pi, tol=1e-15)
    except NoSignChange:
        raise NoRootInInterval(
            f"no trigonometric root for b={b}, zeta={zeta}: "
            "b is on the hyperbolic side or zeta <= -2"
        ) from None
    xi = res.root
    paren = 2.0 * xi * math.cos(xi) + zeta * math.sin(xi)
    residual = 2.0 * xi * xi * (4.0 * xi * xi + z2) - 2.0 * b * b * paren * paren
    return RootResult(root=xi, residual=residual, iterations=res.iterations, bracket=res.bracket)


def solve_lambda(b: float) -> RootResult:
    """Root lambda in (0, pi/2) of lambda = b*cos(lambda), for b > 0: ``solve_xi(b, 0)``."""
    return solve_xi(b, 0.0)


def _hyp_value(b: float, zeta: float, delta: float) -> float:
    """Hyperbolic-branch R at a solved delta (positive-rate normalization)."""
    half = 0.5 * delta
    sh = sinhc(half)
    printed = (
        1.0
        + math.sinh(half) ** 2
        + 0.25 * zeta * (zeta - 4.0) * sh * sh
        - (2.0 - zeta) * sinhc(delta)
        + (zeta / (b * b)) * math.log(math.cosh(half) + 0.5 * zeta * sh)
        - zeta * zeta / (2.0 * b * b)
    )
    return -printed


def _trig_value(b: float, zeta: float, xi: float) -> float:
    """Trigonometric-branch R at a solved xi (positive-rate normalization)."""
    sc = sinc(xi)
    printed = (
        1.0
        - math.sin(xi) ** 2
        - 0.25 * zeta * (4.0 - zeta) * sc * sc
        + (zeta - 2.0) * sinc(2.0 * xi)
        + (zeta / (b * b)) * math.log(math.cos(xi) + 0.5 * zeta * sc)
        - zeta * zeta / (2.0 * b * b)
    )
    return -printed


def boundary_value(zeta: float) -> float:
    """Closed-form R exactly on the branch boundary b = |zeta|/(2+zeta).

    Common limit of both branches as their roots go to zero:
    -(zeta^2/4 - 1 - (2+zeta)^2/2 + (2+zeta)^2/zeta * log(1+zeta/2)).
    Verified against both one-sided branch evaluations; reduces to 1 as
    zeta -> 0.  Raises DomainError where the evaluation overflows (zeta
    above about 1e154).
    """
    require_finite(zeta=zeta)
    _check_zeta(zeta)
    if abs(zeta) < 1e-5:
        return 1.0 + 0.5 * zeta + zeta * zeta / 12.0
    p = 2.0 + zeta
    printed = -1.0 + 0.25 * zeta * zeta - 0.5 * p * p + (p * p / zeta) * math.log1p(0.5 * zeta)
    if not math.isfinite(printed):
        raise DomainError(f"boundary_value overflows double precision at zeta={zeta}")
    return -printed


def rate_R(b: float, zeta: float) -> RateEval:
    """Rate function R(b, zeta) >= 0 with branch dispatch.

    b = 0 returns 1 by continuity of the small-b series (J_B is 0 there
    regardless); zeta = 0 is the trigonometric branch.  zeta must be > -2.
    """
    require_finite(b=b, zeta=zeta)
    if b < 0.0:
        raise DomainError(f"rate_R requires b >= 0, got {b}")
    _check_zeta(zeta)
    if b == 0.0:
        return RateEval(value=1.0, branch=Branch.ZERO_DRIFT, root=0.0, residual=0.0, evals=0)
    thr = _branch_threshold(zeta)
    if zeta != 0.0 and abs(b - thr) <= _BOUNDARY_WINDOW * max(1.0, thr):
        return RateEval(
            value=boundary_value(zeta), branch=Branch.BOUNDARY, root=0.0, residual=0.0, evals=0
        )
    if b < thr:
        try:
            res = solve_delta(b, zeta)
            value = _hyp_value(b, zeta, res.root)
        except OverflowError:
            raise DomainError(
                f"rate_R overflows double precision at b={b}, zeta={zeta} "
                "(cosh/sinh of the hyperbolic root exceed 1.8e308)"
            ) from None
        branch = Branch.HYPERBOLIC
    else:
        res = solve_xi(b, zeta)
        value = _trig_value(b, zeta, res.root)
        branch = Branch.TRIGONOMETRIC
    return RateEval(
        value=value, branch=branch, root=res.root, residual=res.residual, evals=res.iterations
    )


def rate_R_zero_drift(b: float) -> RateEval:
    """Zero-drift rate R(b, 0) = sin(2*lambda)/lambda - cos(lambda)^2: ``rate_R(b, 0)``."""
    return rate_R(b, 0.0)


def rate_R_series(b: float, order: int = 8) -> float:
    """Truncated small-b series of R(b, 0).

    ``order`` is the highest power of b retained, one of {2, 4, 6, 8}.
    The series has a finite convergence radius (see
    ``convergence_radius``); truncations are only meaningful below it.
    """
    require_finite(b=b)
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
    require_finite(b=b)
    if b <= 0.0:
        raise DomainError(f"rate_R_largeb requires b > 0, got {b}")
    q = math.pi * math.pi / 4.0
    inv = 1.0 / b
    return 2.0 * inv - q * inv * inv * (1.0 - inv + inv * inv)


def jb(b: float, zeta: float) -> float:
    """Variational rate J_B(b, zeta) = 2*b^2*R(b, zeta) >= 0."""
    if b == 0.0:
        return 0.0
    return 2.0 * b * b * rate_R(b, zeta).value


@lru_cache(maxsize=1)
def convergence_radius() -> tuple[float, float]:
    """Constants (y0, R_b) of the small-b series convergence bound.

    y0 solves y*tanh(y) = 1 and R_b = y0/cosh(y0) is the radius: the
    series converges for |b| < R_b (about 0.6627).
    """
    res = solve_bracketed(lambda y: y * math.tanh(y) - 1.0, 0.5, 2.0, tol=1e-15)
    y0 = res.root
    return y0, y0 / math.cosh(y0)
