"""Zero-coupon bond pricing when the short rate is a geometric Brownian motion.

Five deterministic methods, each returning a BondQuote:

* ``bond_asymptotic``   - exp(-r0*T*R(b, zeta)) from the rate function;
* ``bond_exact_zero_drift`` - the exact a = 0 price as a single oscillatory
  integral, taken on a contour shifted off the real axis;
* ``bond_small_rate``   - second-order expansion in r0 from the first two
  moments of the time integral;
* ``bond_taylor_small_T`` - short-maturity Taylor expansion of the log price
  (a = 0 only; only those coefficients are known);
* ``bond_perpetual``    - the T -> infinity limit (finite for a < sigma^2/2),
  an inverse-gamma Laplace transform in terms of Bessel K.

The exact integrand is stabilized by writing both erfc terms of its
amplitude q through the scaled function erfcx behind one shared factor
e^(-(w^2 + c^2)), w = z/sqrt(s), c = sqrt(s)/2, so the amplitude decays
like exp(-z^2/s) with no overflow.  That factor and the oscillator
e^(i*f*sinh z) are one exponential, so the integrand costs one complex exp
and one erfcx call on the stacked arguments w -+ c per node (past
s = 2,704, where erfcx(w - c) would overflow, a two-term form with erfc
and two exps is used).  The amplitude is entire, so by Cauchy the integral of
sin(f*sinh z)*q(z) along the real axis equals one up the imaginary axis
to a height h and then along Im z = h, where e^(i*f*sinh z) decays like
e^(-f*sin(h)*cosh x) instead of oscillating (numerical steepest descent
in its simplest form; Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44,
2006).  The imaginary leg has a closed form: q(z) = 2*e^(-z) + g(z) with
g(z) = e^z*erfc(w + c) - e^(-z)*erfc(c - w) odd and real on the real
axis, so g(it) is imaginary, Re q(it) = 2*cos(t), and the leg gives
2*(1 - e^(-f*sin h))/f.  The horizontal leg is one Gauss-Kronrod G15/K31
panel: one call to the integrand, at 31 complex nodes, gives its coarse
and fine sums, and only a panel whose two sums disagree is bisected, its
two halves' sums coming from one call at 62 nodes.  The nodes are
lo + length*offsets from one of two precomputed offset tables (``_PANEL``
and ``_HALVES``), one product with the table's weights gives the sums,
and the panel's end points and sums are Python complex numbers, so a
price that takes one call makes few numpy calls besides the integrand's.
The cost does not grow with T, and small s = sigma^2*T/2, where q falls
from 2 to 0 within a few sqrt(s), is resolved.  A non-finite y or s, or
a non-finite integrand value, raises DomainError.  The exact price's
set-up runs in Python floats, whatever scalar type its inputs have.
Each public function here takes a float32 or an int argument as its float
(``_mathutil.as_float``).  Everything here is stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._mathutil import (as_float, exp, expm1_over_x, expm1_over_x_dd, finite_floats, require_finite,
                        require_positive)
from .errors import DomainError
from .model import _check_params, _scaled
from .ratefn import _rate_R

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
# The offset tables.  _PANEL: a panel's 31 nodes as fractions of its length
# from its start, and the weights per unit length of its coarse (G15, on the 15
# Gauss nodes) and fine (K31, on all 31) sums.  _HALVES: the 62 nodes of the
# panel's two halves (the left half's 31, then the right's) as fractions of the
# whole panel, and the weights of each half's coarse and fine sums per unit
# length of the whole panel.  Both are complex, so that their products with a
# complex length and with the integrand's values cast nothing per call
_PANEL_OFFSETS = (0.5 + 0.5 * _K31_NODES).astype(complex)
_PANEL_WEIGHTS = np.zeros((31, 2), complex)
_PANEL_WEIGHTS[1::2, 0] = 0.5 * _GL_WEIGHTS
_PANEL_WEIGHTS[:, 1] = 0.5 * _K31_WEIGHTS
_HALVES_WEIGHTS = np.zeros((62, 4), complex)
_HALVES_WEIGHTS[:31, :2] = _HALVES_WEIGHTS[31:, 2:] = 0.5 * _PANEL_WEIGHTS
_PANEL = (_PANEL_OFFSETS, _PANEL_WEIGHTS)
_HALVES = (np.concatenate((0.5 * _PANEL_OFFSETS, 0.5 + 0.5 * _PANEL_OFFSETS)), _HALVES_WEIGHTS)
_MAX_DEPTH = 12
# Largest c = sqrt(s)/2 at which the exact bond's amplitude uses the
# one-exponent form: erfcx(w - c) reaches about 2*e^(c^2), which overflows
# past c = 26.6
_ONE_EXP_C_MAX = 26.0
# Longest horizontal leg: sinh and cosh stay finite below x = 710
_X_MAX_CAP = 700.0


def _panel_sums(F: Callable[[np.ndarray], np.ndarray], lo: complex, length: complex,
                table: tuple[np.ndarray, np.ndarray], counts: list[int]) -> list[float]:
    """Coarse and fine sums of Im integral F(z) dz along the panel lo -> lo + length.

    ``table`` is ``_PANEL`` or ``_HALVES``: F is called once, at the nodes
    z = lo + length*offsets, and the product of its values with the table's
    weights gives [coarse, fine] for the panel, or [coarse, fine] of its left
    half followed by those of its right half.  The coarse sum is the 15-point
    Gauss-Legendre rule, the fine sum its 31-point Kronrod extension, which
    reuses the 15 Gauss nodes.  counts[2] is incremented per call.  Raises
    DomainError if any value of F is not finite.
    """
    offsets, weights = table
    z = length * offsets
    z += lo
    v = F(z)
    counts[2] += 1
    if not np.isfinite(v).all():
        raise DomainError(f"the integrand is not finite between z = {lo:g} and {lo + length:g}")
    return [(length * sum_).imag for sum_ in v.dot(weights).tolist()]


def _refine(F: Callable[[np.ndarray], np.ndarray], lo: complex, hi: complex,
            coarse: float, fine: float, tol: float, depth: int, counts: list[int]) -> float:
    """Im integral F(z) dz along the panel lo -> hi from its coarse and fine sums.

    The fine (K31) sum is kept when it agrees with the coarse (G15) one;
    otherwise both halves get their G15/K31 pair from one call to F at the
    62 nodes of the ``_HALVES`` table and are refined in turn.  counts[0] is
    incremented per panel, counts[1] per panel that stops at the depth cap
    without agreement.
    """
    counts[0] += 1
    if abs(fine - coarse) <= max(tol, 1e-13 * abs(fine)):
        return fine
    if depth >= _MAX_DEPTH:
        counts[1] += 1
        return fine
    mid = 0.5 * (lo + hi)
    left_coarse, left_fine, right_coarse, right_fine = _panel_sums(F, lo, hi - lo, _HALVES, counts)
    return (_refine(F, lo, mid, left_coarse, left_fine, 0.5 * tol, depth + 1, counts)
            + _refine(F, mid, hi, right_coarse, right_fine, 0.5 * tol, depth + 1, counts))


def _contour_sum(F: Callable[[np.ndarray], np.ndarray], tol: float,
                 lo: complex, hi: complex) -> tuple[float, int, int, int]:
    """Im integral F(z) dz along the segment lo -> hi, for an F like ``_exact_integrand``'s.

    With F = e^(i*freq*sinh z)*q(z) entire and q real on the real axis,
    Cauchy moves Im integral_0^inf F(x) dx = integral_0^inf sin(freq*sinh x)*q(x) dx
    to the legs 0 -> ih -> ih + x_max:

        Re integral_0^h F(it) dt + Im integral_0^x_max F(x + ih) dx,

    where |e^(i*freq*sinh z)| is e^(-freq*sin t) on the first leg and
    e^(-freq*sin(h)*cosh x) on the second.  The first leg has a closed form
    for the caller's q; the caller passes the second, lo = ih and
    hi = x_max + ih, with an x_max that leaves a tail below tol/8.  It is
    one G15/K31 panel from one call to F at the 31 nodes of the ``_PANEL``
    table, bisected while its two sums differ by more than tol/4.  Returns
    the value, the panels integrated, those that stopped at the refinement
    cap unconverged (their value is used as is) and the calls to F.
    """
    counts = [0, 0, 0]
    coarse, fine = _panel_sums(F, lo, hi - lo, _PANEL, counts)
    value = _refine(F, lo, hi, coarse, fine, 0.25 * tol, 0, counts)
    return value, counts[0], counts[1], counts[2]


def bond_asymptotic(r0: float, sigma: float, a: float, T: float) -> BondQuote:
    """Price exp(-r0*T*R(b, zeta)) with (b, zeta) as ``model.scale`` forms them."""
    r0, sigma, a, T = as_float(r0), as_float(sigma), as_float(a), as_float(T)
    _check_params("r0", r0, sigma, a, T)
    if r0 == 0.0:
        zeta = a * T
        if not -math.inf < zeta < math.inf:  # a*T overflows; a and T are finite here
            require_finite(zeta=zeta)
        return BondQuote(1.0, BondMethod.ASYMPTOTIC, 0.0, {"b": 0.0, "zeta": zeta})
    b, zeta = _scaled(sigma, a, T, r0)
    ev = _rate_R(b, zeta)
    y = r0 * ev.value
    return BondQuote(
        price=math.exp(-y * T),
        method=BondMethod.ASYMPTOTIC,
        yield_equiv=y,
        diagnostics={
            "b": b,
            "zeta": zeta,
            "rate": ev.value,
            "branch": ev.branch.value,
            "root": ev.root,
            "residual": ev.residual,
        },
    )


def _exact_integrand(s: float, freq: float) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """F(z) = e^(i*freq*sinh z)*q(z) of ``bond_exact_zero_drift``, elementwise, and q's form.

    With w = z/sqrt(s) and c = sqrt(s)/2, q's terms e^(-z)*erfc(w - c) and
    e^z*erfc(w + c) share the factor e^(-(w^2 + c^2)), so

        F(z) = e^(i*freq*sinh z - c^2 - w^2) * (erfcx(w - c) + erfcx(w + c)),

    one complex exp per node and one erfcx call on the stacked w -+ c: the
    "one_exp" form.  erfcx(w - c) reaches about 2*e^(c^2), so past
    c = _ONE_EXP_C_MAX (s above 2,704) the "two_term" form

        F(z) = e^(i*freq*sinh z - z)*erfc(w - c) + e^(i*freq*sinh z - c^2 - w^2)*erfcx(w + c),

    whose first term stays below 2*|e^(i*freq*sinh z - z)|, is used
    instead, with two exps.  At freq = 0 the phase is left out and sinh is
    not formed, so F is q itself, also on real z past |z| = 710.  scipy's
    erfc and erfcx are bound, and the shifts -+c stacked, once per F.
    Returns the form's name and F.
    """
    from scipy import special as _sp  # loaded here, so that importing gbmlap does not load it

    erfc, erfcx = _sp.erfc, _sp.erfcx
    sqrt_s = math.sqrt(s)
    c = 0.5 * sqrt_s
    c2 = c * c
    i_freq = 1j * freq

    def phase(z: np.ndarray) -> np.ndarray | float:
        """i*freq*sinh(z), or 0.0 at freq = 0."""
        return i_freq * np.sinh(z) if freq else 0.0

    if c <= _ONE_EXP_C_MAX:
        shifts = np.array([[-c], [c]])

        def one_exp(z: np.ndarray) -> np.ndarray:
            w = z / sqrt_s
            e = erfcx(w + shifts)
            return np.exp(phase(z) - c2 - w * w) * (e[0] + e[1])
        return "one_exp", one_exp

    def two_term(z: np.ndarray) -> np.ndarray:
        w = z / sqrt_s
        p = phase(z)
        return np.exp(p - z) * erfc(w - c) + np.exp(p - c2 - w * w) * erfcx(w + c)
    return "two_term", two_term


def _exact_cutoff(s: float, freq: float, h: float, tol: float) -> float:
    """Length of the exact bond's horizontal leg at height h: its tail is below tol/8.

    |erfcx(zeta)| <= 1 on Re zeta >= 0 (the Faddeeva function at i*zeta),
    so there |erfc(zeta)| <= |e^(-zeta^2)|, and elsewhere |erfc(zeta)| <=
    2 + |e^(-zeta^2)|.  At z = x + ih, Re((w -+ c)^2) = (x/sqrt(s) -+ c)^2
    - h^2/s, and both terms of q give

        |q(x + ih)| <= 2*e^(-x) + 2*e^((h^2 - x^2)/s - s/4) <= 2*(1 + e^(h^2/s))*e^(-x),
        |q(x + ih)| <= 2*e^((h^2 - x^2)/s - s/4)  past x = s/2.

    Times |e^(i*freq*sinh z)| = e^(-f*cosh x), f = freq*sin(h), the last
    two bounds fall with a logarithmic slope of at least 1 (2x/s >= 1 past
    s/2), and the bound drops at s/2, so the integral past any x is below
    the bound at x.  The leg ends where that bound first falls below tol/8:
    Newton's method on its convex exponent, from a point past there, stays
    past there.  It is at most 700, where the bound is at most 2*(1 + e^(h^2/s))*e^-700.
    """
    f, g, half = freq * math.sin(h), h * h / s, 0.5 * s
    level = math.log(16.0) - math.log(tol)
    # before s/2: x + f*cosh(x) >= level + log(1 + e^g)
    a, q, lvl = 1.0, 0.0, level + g + math.log1p(math.exp(-g))
    x = min(half, lvl)
    f_cosh_half = f * math.cosh(min(half, _X_MAX_CAP))
    if half + f_cosh_half < lvl:
        # past s/2: f*cosh(x) + x^2/s >= level + g - s/4
        a, q, lvl = 0.0, 1.0 / s, level + g - 0.25 * s
        if f_cosh_half + half * half / s >= lvl:
            return half
        x = math.sqrt(s * lvl)
    elif f >= lvl:
        return 0.0
    x = min(x, math.acosh(max(1.0, lvl / f)) if f > 0.0 else x, _X_MAX_CAP)
    for _ in range(50):
        step = (a * x + q * x * x + f * math.cosh(x) - lvl) / (a + 2.0 * q * x + f * math.sinh(x))
        if not step > 1e-6 * x:
            break
        x -= step
    return x


def _imaginary_leg(freq: float, h: float) -> float:
    """Re integral_0^h e^(-freq*sin t)*q(it) dt, as Re q(it) = 2*cos(t) (module docstring)."""
    return -2.0 * math.expm1(-freq * math.sin(h)) / freq


def bond_exact_zero_drift(r0: float, sigma: float, T: float,
                          quad_tol: float = 1e-9) -> BondQuote:
    """Exact zero-drift price by quadrature on a shifted contour.

    B = 1 - sqrt(y) * integral_0^inf sin(2*sqrt(y)*sinh z) * q(z) dz with
    y = 2*r0/sigma^2, s = sigma^2*T/2 and the stabilized amplitude

        q(z) = e^(-z)*erfc(w - c) + e^z*erfc(w + c),  w = z/sqrt(s), c = sqrt(s)/2,

    algebraically equal to 2*e^(-z) + e^z*Erfc((s+2z)/(2 sqrt s))
    - e^(-z)*Erfc((s-2z)/(2 sqrt s)) but free of cancellation (see
    ``_exact_integrand``).  q is entire, so the integral runs up the
    imaginary axis to h = atan(sqrt(y)*s), near the saddle of
    e^(2i*sqrt(y)*sinh z - z^2/s), but at most 20/sqrt(y), then along
    Im z = h up to x_max, where a bound on the integrand drops below
    quad_tol/8 (see ``_contour_sum`` and ``_exact_cutoff``).  With
    f = 2*sqrt(y), the first leg is exactly 2*(1 - e^(-f*sin h))/f (see
    ``_imaginary_leg``); only the second is integrated numerically, and
    the diagnostics count its panels and calls.
    ``diagnostics["amplitude"]`` names the form of q used ("one_exp", or
    "two_term" past s = 2,704).  The price's absolute error estimate is
    sqrt(y) times quad_tol, and ``yield_error_estimate`` =
    error_estimate/(T*price) bounds the yield's error to first order.
    Raises DomainError when y or s is zero or not finite in floating
    point, or quad_tol is not > 0.  The inputs are taken as Python floats,
    and so are the diagnostics.
    """
    r0, sigma, T, quad_tol = as_float(r0), as_float(sigma), as_float(T), as_float(quad_tol)
    _check_params("r0", r0, sigma, 0.0, T)
    require_positive(r0=r0, quad_tol=quad_tol)
    # the set-up runs in Python floats, also from numpy scalars, whose
    # arithmetic costs several times more per step
    r0, sigma, T, quad_tol = float(r0), float(sigma), float(T), float(quad_tol)
    s2 = sigma * sigma
    y = 2.0 * r0 / s2 if s2 > 0.0 else math.inf
    s = 0.5 * sigma * sigma * T
    if not (0.0 < y < math.inf and 0.0 < s < math.inf):
        name, v = ("y = 2*r0/sigma^2", y) if not 0.0 < y < math.inf else ("s = sigma^2*T/2", s)
        raise DomainError(
            f"{name} is {v:g} (r0={r0}, sigma={sigma}, T={T}); the exact quadrature "
            f"needs it finite and > 0"
        )
    sqrt_y = math.sqrt(y)
    f = 2.0 * sqrt_y
    # at most 20/sqrt(y): q grows like e^(h^2/s) up the imaginary axis, so at the
    # start of the horizontal leg it is below e^min(r0*T, 400/(r0*T))
    h = min(math.atan(sqrt_y * s), 20.0 / sqrt_y)
    x_max = _exact_cutoff(s, f, h, quad_tol)
    form, F = _exact_integrand(s, f)
    value, n_panels, depth_cap_hits, n_calls = _contour_sum(F, quad_tol, 1j * h, x_max + 1j * h)
    price = 1.0 - sqrt_y * (_imaginary_leg(f, h) + value)
    err = sqrt_y * quad_tol
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
            "y": y, "s": s, "amplitude": form, "n_lobes": n_panels,
            "error_estimate": err,
            "n_panels": n_panels, "depth_cap_hits": depth_cap_hits,
            "n_calls": n_calls, "height": h, "x_max": x_max,
            "yield_error_estimate": err / (T * price),
        },
    )


def moment_m1(a: float, sigma: float, T: float) -> float:
    """First moment of the time integral: (e^(a*T) - 1)/a, limit T at a = 0."""
    a, sigma, T = finite_floats(a=a, sigma=sigma, T=T)
    require_positive(T=T)
    return T * expm1_over_x(a * T)


def moment_m2(a: float, sigma: float, T: float) -> float:
    """Second moment of the time integral.

    m2 = 2/(a+sigma^2) * ((e^((2a+sigma^2)T) - 1)/(2a+sigma^2)
         - (e^(aT) - 1)/a), with every removable singularity (a -> 0,
    2a+sigma^2 -> 0, a+sigma^2 -> 0) handled by series.  With E(x) =
    (e^x - 1)/x, q = a*T and d = c*T, c = a+sigma^2, this is 2*T^2 times
    the divided difference (E(q + d) - E(q))/d, taken in the form that
    does not cancel:

    * |q| < 1 and |d| < 1: by E's power series (``expm1_over_x_dd``), which
      holds its accuracy down to d = 0;
    * |q| >= 1 and |q + d| > |d|: as (e^q*E(d) - E(q))/(q + d);
    * elsewhere |d| >= 1/2, and the difference itself does not cancel.

    Raises DomainError where e^q, E or m2 overflows.
    """
    a, sigma, T = finite_floats(a=a, sigma=sigma, T=T)
    require_positive(T=T)
    c = a + sigma * sigma
    q, d = a * T, c * T
    if abs(q) < 1.0 and abs(d) < 1.0:
        m2 = 2.0 * T * T * expm1_over_x_dd(q, q + d)
    elif abs(q) >= 1.0 and abs(q + d) > abs(d):
        m2 = 2.0 * T * T * (exp(q) * expm1_over_x(d) - expm1_over_x(q)) / (q + d)
    else:
        m2 = 2.0 * (T * expm1_over_x((a + c) * T) - T * expm1_over_x(a * T)) / c
    if not math.isfinite(m2):
        raise DomainError(f"moment_m2 overflows double precision at a={a}, sigma={sigma}, T={T}")
    return m2


def bond_small_rate(r0: float, sigma: float, a: float, T: float) -> BondQuote:
    """Second-order small-r0 price 1 - r0*m1 + r0^2*m2/2.

    An upper bound on the true price (from e^-x <= 1 - x + x^2/2 inside
    the expectation); only meaningful while r0*m1 is small.  Raises
    DomainError where the second-order term exceeds the first-order one,
    so that the truncated series says nothing about the price.
    """
    r0, sigma, a, T = as_float(r0), as_float(sigma), as_float(a), as_float(T)
    _check_params("r0", r0, sigma, a, T)
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
    r0, sigma, T = as_float(r0), as_float(sigma), as_float(T)
    _check_params("r0", r0, sigma, 0.0, T)
    s2 = sigma * sigma
    t2 = s2 * r0 * T * T / 6.0
    t3 = s2 * s2 * r0 * T * T * T / 24.0
    try:
        t4 = (s2 * s2 * s2 * r0 / 120.0 - s2 * s2 * r0 * r0 / 15.0) * T ** 4
    except OverflowError:
        raise DomainError(f"short-maturity expansion is invalid: T^4 overflows at T={T}") from None
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
    r0, sigma, a = finite_floats(r0=r0, sigma=sigma, a=a)
    require_positive(r0=r0, sigma=sigma)
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
