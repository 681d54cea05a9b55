"""Zero-coupon bond pricing when the short rate is a geometric Brownian motion.

Five deterministic methods, each returning a BondQuote:

* ``bond_asymptotic``   - exp(-r0*T*R(b, zeta)) from the rate function;
* ``bond_exact_zero_drift`` - the exact a = 0 price as a single oscillatory
  integral, summed lobe by lobe between the zeros of sin(2*sqrt(y)*sinh z);
* ``bond_small_rate``   - second-order expansion in r0 from the first two
  moments of the time integral;
* ``bond_taylor_small_T`` - short-maturity Taylor expansion of the log price
  (a = 0 only; only those coefficients are known);
* ``bond_perpetual``    - the T -> infinity limit (finite for a < sigma^2/2),
  an inverse-gamma Laplace transform in terms of Bessel K.

The exact integrand is stabilized by absorbing the 2*e^(-z) tail of the
amplitude (whose closed-form integral is 1/a - K_1(a)) and by writing both
of its erfc terms through the scaled function erfcx behind one shared
factor e^(-(w^2 + c^2)), w = z/sqrt(s), c = sqrt(s)/2: one exp and two
erfcx per node, so the amplitude decays like exp(-z^2/s) with no overflow
(past s = 2,704, where erfcx(w - c) would overflow, a two-term form with
erfc is used).  Quadrature subdivides at the sine's zeros
z_k = asinh(k*pi/(2*sqrt(y))) with an adaptively refined Gauss-Kronrod
G15/K31 panel per lobe.  Lobes are evaluated in blocks of 16, 32, 64, ...
lobes: one call to the integrand, at 31 nodes per lobe, gives every lobe
of a block its coarse (15-point Gauss) and fine (31-point Kronrod) sums,
and only a lobe whose two sums disagree is refined further.  The
alternating lobe partial sums are accelerated with Wynn's epsilon
algorithm over a window of the last 24 sums; summation runs lobe by lobe
over each block and stops when the extrapolated value has settled below
quad_tol (after at least 6 lobes) or when three consecutive lobes each
contribute less than quad_tol, whichever comes first.  A T = 200 bond
(r0 = 0.05, sigma = 0.5) then needs 14 lobes instead of 13,465, in one
integrand call.  A non-finite y or s, or a non-finite integrand value,
raises DomainError.  Everything here is stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._mathutil import expm1_over_x, expm1_over_x_d1, expm1_over_x_d2, require_finite
from .errors import DomainError, QuadratureNotConverged
from .model import ModelParams, scale
from .ratefn import rate_R

__all__ = [
    "BondMethod",
    "BondQuote",
    "bond_asymptotic",
    "bond_exact_zero_drift",
    "moment_m1",
    "moment_m2",
    "bond_small_rate",
    "bond_taylor_small_T",
    "bond_perpetual",
    "QuadratureResult",
    "sin_sinh_quadrature",
]


class BondMethod(str, Enum):
    ASYMPTOTIC = "asymptotic"
    EXACT_QUADRATURE = "exact_quadrature"
    SMALL_RATE = "small_rate"
    TAYLOR_SMALL_T = "taylor_small_t"
    PERPETUAL = "perpetual"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class BondQuote:
    """Price with the method that produced it.

    yield_equiv is -log(price)/T, None for the perpetual bond (no T).
    diagnostics carry method specifics (root, quadrature error estimate,
    series terms, or MC stderr).
    """

    price: float
    method: BondMethod
    yield_equiv: float | None
    diagnostics: dict


# 15-point Gauss-Legendre rule on [-1, 1], equal to numpy's leggauss(15)
# (written out so that importing this module does not load numpy.polynomial)
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
# 31-point Kronrod extension of the rule above (QUADPACK's K31, exact to
# degree 46): the 16 nodes it adds, which interleave with the 15 Gauss
# nodes, and the weights of all 31 nodes in ascending order
_KRONROD_NODES = np.array([
    -0.9980022986933971, -0.9677390756791391, -0.8972645323440819, -0.790418501442466,
    -0.650996741297417, -0.4850818636402397, -0.29918000715316884, -0.1011420669187175,
    0.1011420669187175, 0.29918000715316884, 0.4850818636402397, 0.650996741297417,
    0.790418501442466, 0.8972645323440819, 0.9677390756791391, 0.9980022986933971,
])
_K31_NODES = np.empty(31)
_K31_NODES[0::2] = _KRONROD_NODES
_K31_NODES[1::2] = _GL_NODES
_K31_WEIGHTS = np.array([
    0.005377479872923349, 0.015007947329316122, 0.02546084732671532, 0.03534636079137585,
    0.04458975132476488, 0.05348152469092809, 0.06200956780067064, 0.06985412131872826,
    0.07684968075772038, 0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
    0.09664272698362368, 0.09917359872179196, 0.10076984552387559, 0.10133000701479154,
    0.10076984552387559, 0.09917359872179196, 0.09664272698362368, 0.09312659817082532,
    0.08856444305621176, 0.08308050282313302, 0.07684968075772038, 0.06985412131872826,
    0.06200956780067064, 0.05348152469092809, 0.04458975132476488, 0.03534636079137585,
    0.02546084732671532, 0.015007947329316122, 0.005377479872923349,
])
# A panel's 31 nodes as fractions of its width from its low edge, and the
# weights per unit width of its coarse (G15, on the 15 Gauss nodes) and fine
# (K31, on all 31) sums
_PANEL_OFFSETS = 0.5 + 0.5 * _K31_NODES
_PANEL_WEIGHTS = np.zeros((31, 2))
_PANEL_WEIGHTS[1::2, 0] = 0.5 * _GL_WEIGHTS
_PANEL_WEIGHTS[:, 1] = 0.5 * _K31_WEIGHTS
_MAX_DEPTH = 12
# Wynn epsilon table over the lobe partial sums: how many sums it spans, and
# how many lobes must be summed before its value may end the summation
_WYNN_WINDOW = 24
_WYNN_MIN_LOBES = 6
# Lobes in the first block; each later block doubles.  One integrand call
# costs about as much as 15-20 more lobes in the call, so one block of 16
# covers every sum that stops by lobe 16 in a single call
_FIRST_BLOCK = 16
# Largest c = sqrt(s)/2 at which the exact bond's amplitude uses the
# one-exponent form: erfcx(w - c) reaches about 2*e^(c^2), which overflows
# past c = 26.6
_ONE_EXP_C_MAX = 26.0


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a sine-sinh integral with how it was obtained.

    ``summation`` is "extrapolated" when the Wynn epsilon estimate ended the
    lobe sum and "raw" when three small lobes did; ``n_panels`` counts the
    G15/K31 panels of the summed lobes and ``depth_cap_hits`` those
    panels that reached the refinement cap unconverged (their value is used
    as is); ``n_calls`` counts calls to the amplitude, one per block of
    lobes plus one per refinement of a panel.
    """

    value: float
    error_estimate: float
    n_lobes: int
    summation: str
    n_panels: int
    depth_cap_hits: int
    n_calls: int


def _panel_sums(g: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
                counts: list[int]) -> list[list[float]]:
    """[coarse, fine] Gauss-Kronrod sums of g over each panel [lo, hi].

    The coarse sum is the 15-point Gauss-Legendre rule, the fine sum its
    31-point Kronrod extension, which reuses the 15 Gauss nodes.  One call
    to g covers every panel (31 nodes each); counts[2] is incremented per
    call.  Raises DomainError if any value of g is not finite.
    """
    width = hi - lo
    z = lo[:, None] + width[:, None] * _PANEL_OFFSETS
    v = g(z.ravel())
    counts[2] += 1
    if not np.isfinite(v).all():
        raise DomainError(f"the integrand is not finite on z in [{lo[0]:g}, {hi[-1]:g}]")
    return ((v.reshape(-1, 31) @ _PANEL_WEIGHTS) * width[:, None]).tolist()


def _refine(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
            coarse: float, fine: float, tol: float, depth: int, counts: list[int]) -> float:
    """Integral of g over the panel [lo, hi] from its coarse and fine sums.

    The fine (K31) sum is kept when it agrees with the coarse (G15) one;
    otherwise both halves get their G15/K31 pair from one call to g (62
    nodes) and are refined in turn.  counts[0] is incremented per panel,
    counts[1] per panel that stops at the depth cap without agreement.
    """
    counts[0] += 1
    if abs(fine - coarse) <= max(tol, 1e-13 * abs(fine)):
        return fine
    if depth >= _MAX_DEPTH:
        counts[1] += 1
        return fine
    mid = 0.5 * (lo + hi)
    left, right = _panel_sums(g, np.array([lo, mid]), np.array([mid, hi]), counts)
    return (_refine(g, lo, mid, *left, 0.5 * tol, depth + 1, counts)
            + _refine(g, mid, hi, *right, 0.5 * tol, depth + 1, counts))


def sin_sinh_quadrature(
    amplitude: Callable[[np.ndarray], np.ndarray],
    freq: float,
    tol: float = 1e-9,
    max_lobes: int = 100_000,
) -> QuadratureResult:
    """integral_0^inf sin(freq*sinh(z)) * amplitude(z) dz by signed lobes.

    Lobe k spans [asinh(k*pi/freq), asinh((k+1)*pi/freq)], one half-period
    of the sine.  Lobes are evaluated in blocks of 16, 32, 64, ... lobes,
    the last clipped to ``max_lobes``.  One call to the amplitude, at 31
    nodes per lobe, gives the coarse (G15) and fine (K31) Gauss-Kronrod sums
    of every lobe of a block; only a lobe whose two sums disagree is
    refined adaptively.  The lobe partial sums feed a Wynn epsilon table
    (the highest even column of each diagonal is the extrapolated value);
    its error estimate is the distance from the latest value to the two
    before it.  Summation runs lobe by lobe over
    each block and stops at whichever comes first:

    * extrapolated: at least ``_WYNN_MIN_LOBES`` lobes are summed and the
      epsilon error estimate is below ``tol``;
    * raw: three consecutive lobes each contribute less than ``tol`` in
      magnitude; the alternating tail is then bounded by the last lobe.

    ``amplitude`` must be elementwise on a 1-D array of z.  It may be
    evaluated on lobes past the one where the sum stops, up to the end of
    the current block (up to lobe 16 even when the sum stops at lobe 3),
    and must be finite there too.

    The reported error estimate is at least ``tol``.  Raises DomainError
    for a non-finite or non-positive ``freq``, a non-positive ``tol``, or
    as soon as one call gives a non-finite integrand value; raises
    QuadratureNotConverged past ``max_lobes`` lobes (extreme
    freq/amplitude combinations).
    """
    if not (0.0 < freq < math.inf):
        raise DomainError(f"freq must be finite and > 0, got {freq}")
    if not (tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")

    def g(z: np.ndarray) -> np.ndarray:
        return np.sin(freq * np.sinh(z)) * amplitude(z)

    inf = math.inf
    panel_tol = 0.01 * tol
    counts = [0, 0, 0]
    total = 0.0
    streak = 0
    last = inf
    # diag is the ascending diagonal of Wynn's epsilon table after the latest
    # partial sum: entry j+1 is eps_{j-1} + 1/(new eps_j - old eps_j) of the
    # diagonal before, with eps_-1 = 0.  A zero or non-finite difference (equal
    # sums, or a column already converged to rounding) is never divided by:
    # the diagonal ends at that column and regrows from the columns below it.
    # It keeps at most _WYNN_WINDOW entries, so it spans that many sums
    diag: list[float] = []
    prev1: float | None = None  # the two previous extrapolated values
    prev2: float | None = None
    k0, size = 0, _FIRST_BLOCK
    while k0 < max_lobes:
        k1 = min(k0 + size, max_lobes)
        edges = np.arcsinh(np.arange(k0, k1 + 1) * math.pi / freq)
        sums = _panel_sums(g, edges[:-1], edges[1:], counts)
        edges = edges.tolist()
        for i, (coarse, fine) in enumerate(sums):
            if abs(fine - coarse) <= max(panel_tol, 1e-13 * abs(fine)):
                counts[0] += 1
                lobe = fine
            else:
                lobe = _refine(g, edges[i], edges[i + 1], coarse, fine, panel_tol, 0, counts)
            total += lobe
            last = abs(lobe)
            streak = streak + 1 if last < tol else 0
            if streak >= 3:
                return QuadratureResult(total, max(last, tol), k0 + i + 1, "raw", *counts)
            new = [total]
            eps, below = total, 0.0
            for old in diag[:_WYNN_WINDOW - 1]:
                d = eps - old
                if not 0.0 < abs(d) < inf:
                    break
                eps = below + 1.0 / d
                if not -inf < eps < inf:
                    break
                new.append(eps)
                below = old
            diag = new
            est = diag[(len(diag) - 1) & ~1] if len(diag) >= 3 else None
            if est is not None and prev1 is not None and prev2 is not None:
                err = abs(est - prev1) + abs(est - prev2)
                if err < tol and k0 + i + 1 >= _WYNN_MIN_LOBES:
                    return QuadratureResult(est, max(err, tol), k0 + i + 1, "extrapolated",
                                            *counts)
            prev1, prev2 = est, prev1
        k0, size = k1, 2 * size
    raise QuadratureNotConverged(
        f"lobe contributions still {last:g} > {tol:g} and the extrapolated sum "
        f"unsettled after {max_lobes} lobes"
    )


def _validate_bond_args(r0: float, sigma: float, a: float, T: float) -> None:
    require_finite(r0=r0, sigma=sigma, a=a, T=T)
    if r0 < 0.0:
        raise DomainError(f"r0 must be >= 0, got {r0}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if T <= 0.0:
        raise DomainError(f"T must be > 0, got {T}")


def bond_asymptotic(r0: float, sigma: float, a: float, T: float) -> BondQuote:
    """Price exp(-r0*T*R(b, zeta)) with (b, zeta) from ``model.scale``."""
    _validate_bond_args(r0, sigma, a, T)
    if r0 == 0.0:
        return BondQuote(1.0, BondMethod.ASYMPTOTIC, 0.0, {"b": 0.0, "zeta": a * T})
    sc = scale(ModelParams(sigma=sigma, a=a, T=T, theta=r0))
    ev = rate_R(sc.b, sc.zeta)
    y = r0 * ev.value
    return BondQuote(
        price=math.exp(-y * T),
        method=BondMethod.ASYMPTOTIC,
        yield_equiv=y,
        diagnostics={
            "b": sc.b,
            "zeta": sc.zeta,
            "rate": ev.value,
            "branch": ev.branch.value,
            "root": ev.root,
            "residual": ev.residual,
        },
    )


def _exact_amplitude(s: float) -> Callable[[np.ndarray], np.ndarray]:
    """q(z) of ``bond_exact_zero_drift``, elementwise, for s = sigma^2*T/2.

    With w = z/sqrt(s) and c = sqrt(s)/2, e^(-z)*erfc(w - c) and
    e^z*erfc(w + c) share the factor e^(-(w^2 + c^2)), so

        q(z) = e^(-(w^2 + c^2)) * (erfcx(w - c) + erfcx(w + c)),

    one exp and two erfcx per node.  erfcx(w - c) reaches about 2*e^(c^2),
    so past c = _ONE_EXP_C_MAX (s above 2,704) the two-term form
    e^(-z)*erfc(w - c) + e^(-(w^2 + c^2))*erfcx(w + c), whose first term
    stays below 2*e^(-z), is used instead.
    """
    from scipy import special as _sp  # loaded here, so that importing gbmlap does not load it

    sqrt_s = math.sqrt(s)
    c = 0.5 * sqrt_s
    c2 = c * c
    if c <= _ONE_EXP_C_MAX:
        def amplitude(z: np.ndarray) -> np.ndarray:
            w = z / sqrt_s
            return np.exp(-c2 - w * w) * (_sp.erfcx(w - c) + _sp.erfcx(w + c))
    else:
        def amplitude(z: np.ndarray) -> np.ndarray:
            t1 = np.exp(-z) * _sp.erfc((2.0 * z - s) / (2.0 * sqrt_s))
            t2 = np.exp(-0.25 * s - z * z / s) * _sp.erfcx((s + 2.0 * z) / (2.0 * sqrt_s))
            return t1 + t2
    return amplitude


def bond_exact_zero_drift(
    r0: float, sigma: float, T: float, quad_tol: float = 1e-9
) -> BondQuote:
    """Exact zero-drift price by oscillatory quadrature.

    B = 1 - sqrt(y) * integral_0^inf sin(2*sqrt(y)*sinh z) * q(z) dz with
    y = 2*r0/sigma^2, s = sigma^2*T/2 and the stabilized amplitude

        q(z) = e^(-z)*erfc(w - c) + e^z*erfc(w + c),  w = z/sqrt(s), c = sqrt(s)/2,

    algebraically equal to 2*e^(-z) + e^z*Erfc((s+2z)/(2 sqrt s))
    - e^(-z)*Erfc((s-2z)/(2 sqrt s)) but free of cancellation.  It is
    evaluated as e^(-(w^2 + c^2)) * (erfcx(w - c) + erfcx(w + c)), one exp
    and two erfcx per node, and for s above 2,704, where erfcx(w - c)
    would overflow, as e^(-z)*erfc(w - c) + e^(-(w^2 + c^2))*erfcx(w + c)
    (see ``_exact_amplitude``).  The absolute error estimate is <=
    quad_tol.  Raises DomainError when y or s is zero or not finite in
    floating point.
    """
    _validate_bond_args(r0, sigma, 0.0, T)
    if r0 == 0.0:
        raise DomainError("bond_exact_zero_drift requires r0 > 0")
    y = 2.0 * r0 / (sigma * sigma)
    s = 0.5 * sigma * sigma * T
    for name, v in (("y = 2*r0/sigma^2", y), ("s = sigma^2*T/2", s)):
        if not (0.0 < v < math.inf):
            raise DomainError(
                f"{name} is {v:g} (r0={r0}, sigma={sigma}, T={T}); the exact quadrature "
                f"needs it finite and > 0"
            )
    sqrt_y = math.sqrt(y)
    quad = sin_sinh_quadrature(_exact_amplitude(s), 2.0 * sqrt_y, tol=quad_tol)
    price = 1.0 - sqrt_y * quad.value
    err = sqrt_y * quad.error_estimate
    if price <= err:
        raise DomainError(
            f"exact price is below the quadrature's absolute resolution: computed "
            f"{price:g} against an error estimate of {err:g} (r0={r0}, sigma={sigma}, "
            f"T={T}); the absolute tolerance cannot resolve prices this small"
        )
    return BondQuote(
        price=price,
        method=BondMethod.EXACT_QUADRATURE,
        yield_equiv=-math.log(price) / T,
        diagnostics={
            "y": y,
            "s": s,
            "n_lobes": quad.n_lobes,
            "error_estimate": err,
            "summation": quad.summation,
            "n_panels": quad.n_panels,
            "depth_cap_hits": quad.depth_cap_hits,
            "n_calls": quad.n_calls,
        },
    )


def moment_m1(a: float, sigma: float, T: float) -> float:
    """First moment of the time integral: (e^(a*T) - 1)/a, limit T at a = 0."""
    require_finite(a=a, sigma=sigma, T=T)
    if T <= 0.0:
        raise DomainError(f"T must be > 0, got {T}")
    return T * expm1_over_x(a * T)


def moment_m2(a: float, sigma: float, T: float) -> float:
    """Second moment of the time integral.

    m2 = 2/(a+sigma^2) * ((e^((2a+sigma^2)T) - 1)/(2a+sigma^2)
         - (e^(aT) - 1)/a), with every removable singularity (a -> 0,
    2a+sigma^2 -> 0, a+sigma^2 -> 0) handled by series.  Writing
    f(u) = T*(e^(uT) - 1)/(uT), this is the difference quotient
    2*(f(a+c) - f(a))/c at c = a+sigma^2, which degenerates to 2*f'(a)
    as c -> 0.
    """
    require_finite(a=a, sigma=sigma, T=T)
    if T <= 0.0:
        raise DomainError(f"T must be > 0, got {T}")
    c = a + sigma * sigma
    if abs(c * T) < 1e-6:
        return 2.0 * (T * T * expm1_over_x_d1(a * T) + 0.5 * c * T * T * T * expm1_over_x_d2(a * T))
    return 2.0 * (T * expm1_over_x((a + c) * T) - T * expm1_over_x(a * T)) / c


def bond_small_rate(r0: float, sigma: float, a: float, T: float) -> BondQuote:
    """Second-order small-r0 price 1 - r0*m1 + r0^2*m2/2.

    An upper bound on the true price (from e^-x <= 1 - x + x^2/2 inside
    the expectation); only meaningful while r0*m1 is small.  Raises
    DomainError where the second-order term exceeds the first-order one,
    so that the truncated series says nothing about the price.
    """
    _validate_bond_args(r0, sigma, a, T)
    m1 = moment_m1(a, sigma, T)
    m2 = moment_m2(a, sigma, T)
    first = r0 * m1
    second = 0.5 * r0 * r0 * m2
    if second > first:
        raise DomainError(
            f"small-rate expansion is invalid here: its second-order term r0^2*m2/2 = "
            f"{second:g} exceeds its first-order term r0*m1 = {first:g}"
        )
    price = 1.0 - first + second
    if price <= 0.0:
        raise DomainError(f"small-rate expansion is invalid here (price {price:g} <= 0)")
    return BondQuote(
        price=price,
        method=BondMethod.SMALL_RATE,
        yield_equiv=-math.log(price) / T,
        diagnostics={"m1": m1, "m2": m2, "first_order_term": first, "second_order_term": second},
    )


def bond_taylor_small_T(r0: float, sigma: float, T: float) -> BondQuote:
    """Short-maturity log-price expansion, zero drift only.

    -(1/(r0*T))*log(price) = 1 - sigma^2*r0*T^2/3! - sigma^4*r0*T^3/4!
    - (sigma^6*r0/5! - sigma^4*r0^2/15)*T^4.  Coefficients beyond this
    order (and any a != 0 terms) are not known in closed form here.
    Raises DomainError once the truncated ratio is not positive, where
    sigma^2*r0*T^2 is too large for the expansion (it would price above 1).
    """
    _validate_bond_args(r0, sigma, 0.0, T)
    s2 = sigma * sigma
    t2 = s2 * r0 * T * T / 6.0
    t3 = s2 * s2 * r0 * T * T * T / 24.0
    t4 = (s2 * s2 * s2 * r0 / 120.0 - s2 * s2 * r0 * r0 / 15.0) * T ** 4
    ratio = 1.0 - t2 - t3 - t4
    if not ratio > 0.0:
        raise DomainError(
            f"short-maturity expansion is invalid here: sigma^2*r0*T^2 = {s2 * r0 * T * T:g} "
            f"is not small (truncated yield ratio {ratio:g} <= 0)"
        )
    y = r0 * ratio
    return BondQuote(
        price=math.exp(-y * T),
        method=BondMethod.TAYLOR_SMALL_T,
        yield_equiv=y,
        diagnostics={"yield_ratio": ratio, "terms": (t2, t3, t4)},
    )


def bond_perpetual(r0: float, sigma: float, a: float) -> BondQuote:
    """Infinite-maturity price, finite iff a < sigma^2/2.

    price = 2/Gamma(nu) * y^(nu/2) * K_nu(2*sqrt(y)) with y = 2*r0/sigma^2
    and nu = 1 - 2*a/sigma^2 (the Laplace transform of the limiting
    inverse-gamma distribution of the integral), evaluated as the exponential
    of its logarithm with the scaled e^x*K_nu(x), so that neither Gamma(nu),
    y^(nu/2) nor K_nu overflows or underflows on its own; a price below the
    float range comes back as 0.0.  Raises DomainError where e^x*K_nu(x)
    is not a finite positive float.
    """
    require_finite(r0=r0, sigma=sigma, a=a)
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if r0 <= 0.0:
        raise DomainError(f"bond_perpetual requires r0 > 0, got {r0}")
    if a >= 0.5 * sigma * sigma:
        raise DomainError(
            f"no finite perpetual price: a={a} >= sigma^2/2={0.5 * sigma * sigma}"
        )
    y = 2.0 * r0 / (sigma * sigma)
    nu = 1.0 - 2.0 * a / (sigma * sigma)
    x = 2.0 * math.sqrt(y)
    from scipy.special import kve  # loaded here, so that importing gbmlap does not load it

    k = float(kve(nu, x))
    if not 0.0 < k < math.inf:
        raise DomainError(
            f"perpetual price not representable: e^x*K_nu(x) at x = 2*sqrt(y) is {k!r} "
            f"for nu = {nu!r}, y = {y!r}"
        )
    price = math.exp(math.log(2.0) - math.lgamma(nu) + 0.5 * nu * math.log(y) + math.log(k) - x)
    return BondQuote(
        price=price,
        method=BondMethod.PERPETUAL,
        yield_equiv=None,
        diagnostics={"y": y, "nu": nu},
    )
