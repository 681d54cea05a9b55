"""Distribution-side rate function I_BS and the Asian-option approximation.

I_BS(x) governs the exponential decay of P(X_T/T near x*S0) at speed
1/(sigma^2*T) and vanishes exactly at the forward moneyness
x* = (e^zeta - 1)/zeta with zeta = (r-q)*T.  Out-of-the-money Asian
option prices then satisfy (sigma^2*T)*log(price) -> -I_BS(K/S0), and an
equivalent log-normal volatility

    Sigma_LN^2 = sigma^2 * log^2(K/A_fwd) / (2*I_BS(K/S0))

prices the Asian as a European option on the forward average
A_fwd = S0*(e^zeta - 1)/zeta.  The sigma^2 factor makes the European
proxy's log-price exponent match the asymptotic one (the ATM limit is
the classical sigma/sqrt(3)).

Closed forms come in two branches joined continuously at x = 1 + zeta/2:
hyperbolic (root delta >= 0) for x above, trigonometric (root xi > 0,
past pi/2 only for x <= 2*zeta/pi^2) below.  As for R, they are one root
equation in u = delta^2 = -4*xi^2 and one value formula
(``_ibs_solve_u``, ``_ibs_value``), and the branch is the sign of the
root u.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._mathutil import as_float, cosh_sinhc, expm1_over_x, require_finite
from .errors import BranchError, DomainError, NoRootInInterval, NoSignChange
from .ratefn import RateEval, _rate_eval, _root_result, _xi_bound
from .rootfind import RootResult, _solve_newton
from .specfun import _norm_cdf

__all__ = [
    "OptionKind",
    "AsianInputs",
    "OptionQuote",
    "ibs_solve_delta",
    "ibs_solve_xi",
    "rate_ibs",
    "a_fwd",
    "sigma_ln",
    "european_bs_price",
    "asian_price_approx",
    "otm_log_price_limit",
]

# relative moneyness window around A_fwd inside which the ATM limit is used
_ATM_WINDOW = 1e-4
# Taylor coefficients of V(zeta) in _atm_curvature: (2^(n+2)*n + 2)/(n+3)!, n = 0..17
_ATM_VARIANCE_SERIES = tuple((2.0 ** (n + 2) * n + 2.0) / math.factorial(n + 3) for n in range(18))


class OptionKind(str, Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class AsianInputs:
    """Inputs for an arithmetic-average option on a gBM asset.

    s0/k in currency (> 0), r/q per year, sigma per sqrt-year (> 0),
    t in years (> 0).
    """

    s0: float
    k: float
    r: float
    q: float
    sigma: float
    t: float
    kind: OptionKind

    def __post_init__(self):
        for name in ("s0", "k", "r", "q", "sigma", "t"):
            object.__setattr__(self, name, as_float(getattr(self, name)))
        require_finite(s0=self.s0, k=self.k, r=self.r, q=self.q, sigma=self.sigma, t=self.t)
        if self.s0 <= 0.0 or self.k <= 0.0:
            raise DomainError("s0 and k must be > 0")
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma}")
        if self.t <= 0.0:
            raise DomainError(f"t must be > 0, got {self.t}")


# kept for perfbench/workloads.py, which keys outputs on `asian.IbsEval is type(out)`
IbsEval = RateEval


@dataclass(frozen=True)
class OptionQuote:
    """Price plus the method that produced it and method diagnostics.

    price is None for the otm-limit method, which yields only the decay
    exponent (in diagnostics), not a price level.
    """

    price: float | None
    method: str
    diagnostics: dict


def _ibs_solve_u(x: float, zeta: float, hyperbolic: bool) -> tuple[float, float, int, tuple, float]:
    """Root u = delta^2 = -4*xi^2 of S*C + zeta*S^2/2 = x on one side of the pivot u = 0.

    C and S are ``cosh_sinhc(u/4)``.  The left side increases in u, is
    1 + zeta/2 at u = 0 and equals S*P, with P = C + zeta*S/2 formed as in
    R's equation; it is solved as S*P/x = 1, so the root resolves x at any
    scale.  Hyperbolic side: the upper end of the bracket is found by
    quadrupling u from 1, its lower end is the last probe below the root
    (or 0), the solver reuses both probes' values, and the count includes
    every probe.  Trigonometric side: [-4*xi_b^2, 0], xi in [0, xi_b],
    with xi_b = pi/2 where the left side there, 2*zeta/pi^2, is below x,
    and else ``_xi_bound(zeta)``, where P <= 0 and the left side is at
    most 0 < x.  Returns u, the residual S*P - x, the
    evaluations, the final bracket and its factor 1.
    """
    a = 1.0 + 0.5 * zeta
    k = 1.0 / x
    calls = 0
    known = {}  # probe values at the bracket ends, handed to the solver once

    def fdf(u: float) -> tuple[float, float]:
        nonlocal calls
        if u in known:
            return known.pop(u)
        calls += 1
        v = 0.25 * u
        _, s, d = cosh_sinhc(v)
        p = a * s + 2.0 * v * d
        return s * p * k - 1.0, 0.25 * k * (d * p + 0.5 * s * (s + zeta * d))

    if hyperbolic:
        lo, hi = 0.0, 1.0
        f_lo, f_hi = None, fdf(hi)
        while f_hi[0] < 0.0:
            lo, f_lo, hi = hi, f_hi, 4.0 * hi
            if hi > 490000.0:  # delta = sqrt(u) past 700, where cosh(delta) nears overflow
                raise NoSignChange(f"no delta bracket below overflow for x={x}, zeta={zeta}")
            f_hi = fdf(hi)
        known[hi] = f_hi
        if f_lo is not None:
            known[lo] = f_lo
    else:
        xi_b = 0.5 * math.pi if x * math.pi ** 2 > 2.0 * zeta else _xi_bound(zeta)
        lo, hi = -4.0 * xi_b * xi_b, 0.0
    try:
        res = _solve_newton(fdf, lo, hi, 1e-15)
    except NoSignChange:  # the probed hyperbolic bracket always changes sign
        raise NoRootInInterval(
            f"the trigonometric bracket's sign change is lost to rounding at x={x}, zeta={zeta}"
        ) from None
    return res.root, res.residual * x, calls, res.bracket, 1.0


def ibs_solve_delta(x: float, zeta: float) -> RootResult:
    """Root delta >= 0 of sinh(d)/d + 2*zeta*sinh^2(d/2)/d^2 = x.

    Requires x >= 1 + zeta/2 (the left side at delta = 0); solved for
    u = delta^2 by ``_ibs_solve_u``.  At the pivot x = 1 + zeta/2 the
    root 0 is returned after two evaluations.
    """
    x, zeta = as_float(x), as_float(zeta)
    require_finite(x=x, zeta=zeta)
    if x < (1.0 + 0.5 * zeta) * (1.0 - 1e-12):
        raise BranchError(f"hyperbolic branch needs x >= 1 + zeta/2, got x={x}, zeta={zeta}")
    return _root_result(*_ibs_solve_u(x, zeta, True))


def ibs_solve_xi(x: float, zeta: float) -> RootResult:
    """Root xi >= 0 of sin(2*xi)/(2*xi)*(1 + zeta*tan(xi)/(2*xi)) = x, below P's first zero.

    Requires 0 < x <= 1 + zeta/2.  Solved in the pole-free form
    sinc(2*xi) + zeta*sinc(xi)^2/2 = x, for u = -4*xi^2 (``_ibs_solve_u``).
    The left side falls from 1 + zeta/2 at xi = 0 to 0 at the first zero
    of P = cos(xi) + zeta*sin(xi)/(2*xi), so every x in the domain has a
    root xi in [0, that zero), with a positive log argument P in the closed
    form: xi <= pi/2 for x > 2*zeta/pi^2 (the left side at pi/2), and past
    pi/2 below that when zeta > 0.  At the pivot x = 1 + zeta/2 the root
    is 0.  NoRootInInterval is raised where the bracket's sign change is
    lost to rounding: x and zeta both tiny, as at (1e-21, 1e-21).  Small x
    alone resolves: at zeta = 0.1 the root is found down to x = 1e-300.
    """
    x, zeta = as_float(x), as_float(zeta)
    require_finite(x=x, zeta=zeta)
    if x <= 0.0:
        raise DomainError(f"ibs_solve_xi requires x > 0, got {x}")
    if x > (1.0 + 0.5 * zeta) * (1.0 + 1e-12):
        raise BranchError(f"trigonometric branch needs x <= 1 + zeta/2, got x={x}, zeta={zeta}")
    return _root_result(*_ibs_solve_u(x, zeta, False))


def _ibs_value(x: float, zeta: float, u: float) -> float:
    """I_BS = (u - zeta^2)*(1 - S/P)/2 - 2*zeta*log(P) + zeta^2 at a solved root u.

    S as in ``_ibs_solve_u``, and the log argument P = C + zeta*S/2 taken
    from the root equation S*P = x, P = x/S, which does not cancel near P's
    zero, where the root sits as x -> 0.  Raises DomainError where P is not
    positive or the value is not finite.
    """
    s = cosh_sinhc(0.25 * u)[1]
    p = x / s
    if p > 0.0:
        value = 0.5 * (u - zeta * zeta) * (1.0 - s / p) - 2.0 * zeta * math.log(p) + zeta * zeta
        if math.isfinite(value):
            return value
    raise DomainError(
        f"I_BS is not resolved in double precision at x={x}, zeta={zeta} "
        f"(root u = {u!r}, log argument P = x/S = {p!r})"
    )


def rate_ibs(x: float, zeta: float) -> RateEval:
    """Rate function I_BS(x) >= 0; zero exactly at x = (e^zeta - 1)/zeta.

    Raises DomainError where the value is not finite, and on the hyperbolic
    side where the root misses S*P = x by more than 1e-8 relative (zeta << 0
    next to P's zero, or x near 0 at zeta = -2): there the value's slope in
    u, about S^2/(2x), turns the root's rounding into an error as large as
    the value.  The trigonometric value is not that sensitive to u, so its
    root resolves I_BS down to x = 1e-300 although S*P then misses x.
    """
    return _rate_ibs(as_float(x), as_float(zeta))


def _rate_ibs(x: float, zeta: float) -> RateEval:
    if not (0.0 < x < math.inf and -math.inf < zeta < math.inf):  # x = k/s0 from a caller
        require_finite(x=x, zeta=zeta)
        raise DomainError(f"rate_ibs requires x > 0, got {x}")
    u, residual, evals, _, _ = _ibs_solve_u(x, zeta, x > 1.0 + 0.5 * zeta)
    if u > 0.0 and not abs(residual) <= 1e-8 * x:
        raise DomainError(
            f"I_BS is not resolved in double precision at x={x}, zeta={zeta} "
            f"(the hyperbolic root u = {u!r} misses S*P = x by {residual:.1e})"
        )
    value = _ibs_value(x, zeta, u)
    if -1e-9 < value < 0.0:  # roundoff at the rate function's zero
        value = 0.0
    return _rate_eval(value, u, residual, evals)


def a_fwd(s0: float, a: float, t: float) -> float:
    """Expected time-average of the asset: s0*(e^(a*t) - 1)/(a*t)."""
    s0, a, t = as_float(s0), as_float(a), as_float(t)
    require_finite(s0=s0, a=a, t=t)
    if s0 <= 0.0 or t <= 0.0:
        raise DomainError("a_fwd requires s0 > 0 and t > 0")
    return s0 * expm1_over_x(a * t)


def _atm_curvature(zeta: float) -> float:
    """x*^2 * I_BS''(x*) = x*^2/V(zeta) at the rate function's zero x* = (e^zeta - 1)/zeta.

    V(zeta) = int_0^1 ((e^zeta - e^(zeta*t))/zeta)^2 dt is the scaled
    variance of the time average to leading order.  Its closed form
    (e^(2 zeta) - 2 e^zeta (e^zeta - 1)/zeta + (e^(2 zeta) - 1)/(2 zeta))/zeta^2
    cancels like 1e-16/zeta^2, so |zeta| < 0.5 uses its Taylor series; above
    that the ratio is formed without e^(2 zeta), which would overflow first.
    """
    if abs(zeta) < 0.5:
        v = 0.0
        for c in reversed(_ATM_VARIANCE_SERIES):
            v = v * zeta + c
        xstar = expm1_over_x(zeta)
        return xstar * xstar / v
    if zeta > 0.0:
        em = -math.expm1(-zeta)
        return em * em / (1.0 - 2.0 * em / zeta - 0.5 * math.expm1(-2.0 * zeta) / zeta)
    e, em = math.exp(zeta), math.expm1(zeta)
    return em * em / (e * e - 2.0 * e * em / zeta + 0.5 * math.expm1(2.0 * zeta) / zeta)


def sigma_ln(k: float, s0: float, sigma: float, a: float, t: float) -> float:
    """Equivalent log-normal volatility for the European proxy.

    Within a relative window of 1e-4 around K = A_fwd the 0/0 limit is
    taken from the quadratic behaviour of I_BS at its zero x*, whose
    curvature is 1/V(zeta) (see ``_atm_curvature``); this gives
    sigma*sqrt(V(zeta))/x*, which is sigma/sqrt(3) at zeta = 0.  Raises
    DomainError naming k where k/A_fwd is 0 or inf in double precision.
    """
    k, s0, sigma, a, t = as_float(k), as_float(s0), as_float(sigma), as_float(a), as_float(t)
    zeta = a * t
    require_finite(k=k, s0=s0, sigma=sigma, a=a, t=t, zeta=zeta)
    if k <= 0.0 or s0 <= 0.0:
        raise DomainError("sigma_ln requires k > 0 and s0 > 0")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    return _sigma_ln(k, s0, sigma, zeta, s0 * expm1_over_x(zeta))[0]


def _sigma_ln(k: float, s0: float, sigma: float, zeta: float, fwd: float) -> tuple[float, bool]:
    m = k / fwd  # fwd = A_fwd; the flag returned is True for the ATM-window limit
    if not 0.0 < m < math.inf:
        raise DomainError(f"sigma_ln needs k/A_fwd in the float range, got k={k!r}, A_fwd={fwd!r}")
    log_m = math.log(m)
    if abs(log_m) < _ATM_WINDOW:
        return sigma / math.sqrt(_atm_curvature(zeta)), True
    ibs = _rate_ibs(k / s0, zeta).value
    return sigma * abs(log_m) / math.sqrt(2.0 * ibs), False


def european_bs_price(
    f: float, k: float, t: float, vol: float, df: float, kind: OptionKind
) -> float:
    """Undiscounted-forward Black formula: df*(F*N(d1) - K*N(d2)) for calls.

    Puts by parity.  An sd = vol*sqrt(t) of 0 gives the discounted intrinsic
    value, and an sd that overflows the sd -> inf limit, df*F for a call and
    df*K for a put; an F/K that underflows gives 0 for a call.
    """
    f, k, t, vol, df = as_float(f), as_float(k), as_float(t), as_float(vol), as_float(df)
    require_finite(f=f, k=k, t=t, vol=vol, df=df)
    if f <= 0.0 or k <= 0.0 or t <= 0.0 or df <= 0.0:
        raise DomainError("european_bs_price requires f, k, t, df > 0")
    if vol < 0.0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    return _european_bs_price(f, k, t, vol, df, OptionKind(kind))


def _european_bs_price(f: float, k: float, t: float, vol: float, df: float,
                       kind: OptionKind) -> float:
    sd = vol * math.sqrt(t)
    if sd == 0.0:
        intrinsic = max(f - k, 0.0) if kind is OptionKind.CALL else max(k - f, 0.0)
        return df * intrinsic
    if sd == math.inf:
        call = df * f
    else:
        m = f / k
        d1 = (math.log(m) / sd if m > 0.0 else -math.inf) + 0.5 * sd
        d2 = d1 - sd
        call = df * (f * _norm_cdf(d1) - k * _norm_cdf(d2))
    if kind is OptionKind.CALL:
        return call
    return call - df * (f - k)


def asian_price_approx(inp: AsianInputs) -> OptionQuote:
    """Asian price as a European option at strike K with vol Sigma_LN, or its ATM limit."""
    a = inp.r - inp.q
    zeta = a * inp.t
    if not -math.inf < zeta < math.inf:  # a = r - q or a*t overflows
        require_finite(a=a, zeta=zeta)
    fwd = inp.s0 * expm1_over_x(zeta)
    vol, atm_limit = _sigma_ln(inp.k, inp.s0, inp.sigma, zeta, fwd)
    df = math.exp(-inp.r * inp.t)
    if not (vol < math.inf and df > 0.0):
        european_bs_price(fwd, inp.k, inp.t, vol, df, inp.kind)  # raises its argument error
    price = _european_bs_price(fwd, inp.k, inp.t, vol, df, OptionKind(inp.kind))
    return OptionQuote(
        price=price,
        method="approx",
        diagnostics={
            "sigma_ln": vol,
            "a_fwd": fwd,
            "zeta": zeta,
            "moneyness": inp.k / inp.s0,
            "discount_factor": df,
            "atm_limit": atm_limit,
        },
    )


def otm_log_price_limit(
    k: float, s0: float, sigma: float, a: float, t: float, kind: OptionKind
) -> float:
    """Limit of (sigma^2*t)*log(price) for an out-of-the-money option.

    Equals -I_BS(K/S0); requires K >= S0 for calls and K <= S0 for puts
    (at K = S0 this is the rate-function value at unit moneyness, zero
    for zero drift).
    """
    k, s0, sigma, a, t = as_float(k), as_float(s0), as_float(sigma), as_float(a), as_float(t)
    require_finite(k=k, s0=s0, sigma=sigma, a=a, t=t)
    if sigma <= 0.0 or t <= 0.0 or k <= 0.0 or s0 <= 0.0:
        raise DomainError("otm_log_price_limit requires k, s0, sigma, t > 0")
    kind = OptionKind(kind)
    if kind is OptionKind.CALL and k < s0:
        raise DomainError(f"call is not out-of-the-money: k={k} < s0={s0}")
    if kind is OptionKind.PUT and k > s0:
        raise DomainError(f"put is not out-of-the-money: k={k} > s0={s0}")
    return -_rate_ibs(k / s0, a * t).value
