"""Deterministic invariant suite behind the ``validate`` CLI command.

Every check is a pure function returning a CheckResult; ``run_checks``
executes them in order with timing.  Monte Carlo cross-checks are not
part of this suite (they live in the test suite), so the whole run is
reproducible and fast; ``quick`` coarsens the expensive grids.

``table1_row`` and ``table3_row`` compute the published tables' rows for
the table checks, ``gbmlap reproduce`` and the acceptance tests.  Three
checks fail by design and report the computed values in the detail
string.  Two (``table1_asymptotic_yields``, ``table3_reproduction``) come
from published-digit rounding: they require rounded cells, and a few are
printed truncated (``reference.KNOWN_PRINT_DEVIATIONS``).  The third,
``series_small_b``, comes from the series' own truncation term (about
0.54*b^10: 2.8e-6 at b = 0.3, above its 1e-6 bound).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import asian, dothan, oracles, ratefn, reference
from .model import t_max
from .specfun import bessel_k

__all__ = ["CheckResult", "Table1Row", "Table3Row", "run_checks", "table1_row", "table3_row"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Table1Row:
    """Computed columns of a table-1 row: exact price, exact and asymptotic yields in %."""

    b_exact: float
    r_exact_pct: float
    r_asympt_pct: float


@dataclass(frozen=True)
class Table3Row:
    """Computed columns of a table-3 row: root xi, -log(B)/T and the asymptotic price."""

    xi: float
    neg_log_b_over_t: float
    b_asympt: float


def table1_row(T: float, sigma: float) -> Table1Row:
    """Table 1 at maturity T and volatility sigma (zero drift, r0 from the scenario)."""
    r0 = reference.TABLE1_SCENARIO["r0"]
    exact = dothan.bond_exact_zero_drift(r0, sigma, T)
    asympt = dothan.bond_asymptotic(r0, sigma, 0.0, T)
    return Table1Row(exact.price, 100.0 * exact.yield_equiv, 100.0 * asympt.yield_equiv)


def table3_row(T: float) -> Table3Row:
    """Table 3 at maturity T (drifted scenario)."""
    sc = reference.TABLE3_SCENARIO
    q = dothan.bond_asymptotic(sc["r0"], sc["sigma"], sc["a"], T)
    return Table3Row(q.diagnostics["root"], q.yield_equiv, q.price)


def check_table1_bond_prices(quick: bool) -> tuple[bool, str]:
    worst = 0.0
    bad = []
    for (T, sigma, b_pub, _, _) in reference.TABLE1_ROWS:
        got = table1_row(T, sigma).b_exact
        err = abs(got - b_pub)
        worst = max(worst, err)
        if err > 2e-6:
            bad.append(f"(T={T:g}, sigma={sigma:g}): {got:.6f} vs {b_pub:.6f}")
    if bad:
        return False, "; ".join(bad)
    return True, f"15 rows within 2e-6 of published prices (worst {worst:.2e})"


def check_table1_asymptotic_yields(quick: bool) -> tuple[bool, str]:
    bad = []
    worst = 0.0
    for (T, sigma, _, _, r_pub) in reference.TABLE1_ROWS:
        got = table1_row(T, sigma).r_asympt_pct
        err = abs(got - r_pub)
        worst = max(worst, err)
        if err > 5e-4:
            bad.append(f"(T={T:g}, sigma={sigma:g}): {got:.6f}% vs printed {r_pub}%")
    if bad:
        return False, (
            "known print truncations in the published column: " + "; ".join(bad)
        )
    return True, f"15 rows within 0.0005% of published yields (worst {worst:.2e})"


def check_table3(quick: bool) -> tuple[bool, str]:
    bad = []
    for (T, xi_pub, nlb_pub, b_pub, _) in reference.TABLE3_ROWS:
        row = table3_row(T)
        if abs(row.xi - xi_pub) > 1e-6:
            bad.append(f"T={T:g}: xi {row.xi:.6f} vs {xi_pub}")
        if abs(row.neg_log_b_over_t - nlb_pub) > 5e-5:
            bad.append(f"T={T:g}: -logB/T {row.neg_log_b_over_t:.5f} vs {nlb_pub}")
        if abs(row.b_asympt - b_pub) > 5e-4:
            bad.append(f"T={T:g}: B_asympt {row.b_asympt:.6f} vs printed {b_pub} (print truncation)")
    if bad:
        return False, "; ".join(bad)
    return True, "8 rows match xi/-logB/B at stated tolerances"


def check_convergence_constants(quick: bool) -> tuple[bool, str]:
    y0, rb = ratefn.convergence_radius()
    ok = abs(y0 - 1.19968) <= 1e-5 and abs(rb - 0.662743) <= 1e-6
    resid = y0 * math.tanh(y0) - 1.0
    ok = ok and abs(resid) <= 1e-12
    return ok, f"y0={y0:.8f}, R_b={rb:.8f}, defining residual {resid:.1e}"


def check_series_small_b(quick: bool) -> tuple[bool, str]:
    grid = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    worst_b, worst = 0.0, 0.0
    for b in grid:
        err = abs(ratefn.rate_R_series(b, 8) - ratefn.rate_R_zero_drift(b).value)
        if err > worst:
            worst_b, worst = b, err
    if worst > 1e-6:
        return False, (
            f"max |series - full| = {worst:.2e} at b={worst_b:g} exceeds 1e-6; the true "
            f"truncation term (~0.54*b^10) makes 1e-6 unattainable at b=0.3 "
            f"(bound holds for b <= 0.25)"
        )
    return True, f"series matches full solve to 1e-6 for b <= 0.3 (worst {worst:.2e})"


def check_series_divergence(quick: bool) -> tuple[bool, str]:
    # truncated series departs hard beyond the convergence radius, while the
    # full solve stays finite and monotone decreasing
    for b in (0.9, 1.0, 1.1):
        err = abs(ratefn.rate_R_series(b, 8) - ratefn.rate_R_zero_drift(b).value)
        if err <= 1e-2:
            return False, f"series error {err:.2e} at b={b:g} does not exceed 1e-2"
    prev = math.inf
    for b in np.arange(0.9, 3.01, 0.1):
        v = ratefn.rate_R_zero_drift(float(b)).value
        if not (0.0 < v < prev):
            return False, f"full solve not finite/monotone at b={b:.1f}"
        prev = v
    # empirical divergence onset sits at the scale of the radius R_b, which
    # is what the default t_max threshold 2*R_b^2 encodes
    onset = None
    for b in np.arange(0.40, 1.21, 0.01):
        if abs(ratefn.rate_R_series(float(b), 8) - ratefn.rate_R_zero_drift(float(b)).value) > 1e-2:
            onset = float(b)
            break
    _, rb = ratefn.convergence_radius()
    if onset is None or not (0.55 <= onset <= 0.95):
        return False, f"series 1e-2 departure at b={onset}, not near R_b={rb:.4f}"
    thr = 2.0 * rb * rb
    ok = abs(t_max(0.1, 0.3) - math.sqrt(thr / (0.09 * 0.1))) < 1e-12
    return ok, f"series departs at b~{onset:.2f} (R_b={rb:.4f}); t_max uses 2*R_b^2={thr:.4f}"


def check_branch_continuity(quick: bool) -> tuple[bool, str]:
    eps = 1e-8
    worst_side, worst_mid = 0.0, 0.0
    for z in (0.25, 0.5, 1.0, 2.0, 4.0, -0.5):
        thr = abs(z) / (2.0 + z)
        lo = ratefn.rate_R(thr - eps, z).value
        hi = ratefn.rate_R(thr + eps, z).value
        bv = ratefn.boundary_value(z)
        worst_side = max(worst_side, abs(lo - hi))
        worst_mid = max(worst_mid, abs(0.5 * (lo + hi) - bv))
    ok = worst_side <= 1e-6 and worst_mid <= 1e-8
    return ok, f"side gap {worst_side:.2e} (<=1e-6), midpoint vs closed form {worst_mid:.2e} (<=1e-8)"


def check_zero_drift_consistency(quick: bool) -> tuple[bool, str]:
    worst = 0.0
    for b in (0.1, 0.5, 1.0, 2.0, 5.0):
        worst = max(
            worst, abs(ratefn.rate_R(b, 1e-10).value - ratefn.rate_R_zero_drift(b).value)
        )
    return worst <= 1e-6, f"max |R(b, 1e-10) - R_0(b)| = {worst:.2e}"


def check_largeb_accuracy(quick: bool) -> tuple[bool, str]:
    worst = 0.0
    for b in (10.0, 15.0, 20.0, 40.0, 100.0):
        worst = max(worst, abs(ratefn.rate_R_largeb(b) - ratefn.rate_R_zero_drift(b).value))
    return worst <= 1e-4, f"max expansion error for b >= 10: {worst:.2e}"


def check_root_residuals(quick: bool) -> tuple[bool, str]:
    worst = 0.0
    for b in (0.05, 0.3, 1.0, 3.0, 20.0):
        worst = max(worst, abs(ratefn.solve_lambda(b).residual))
    for z in (0.5, 1.5, -0.5):
        thr = abs(z) / (2.0 + z)
        for frac in (0.3, 0.8):
            worst = max(worst, abs(ratefn.solve_delta(frac * thr, z).residual))
        for b in (1.5 * thr, 3.0 * thr):
            worst = max(worst, abs(ratefn.solve_xi(b, z).residual))
    return worst <= 1e-12, f"max defining-equation residual {worst:.2e}"


def check_jb_monotone(quick: bool) -> tuple[bool, str]:
    for z in (0.0, 0.7, -0.3):
        prev = -1.0
        for b in np.arange(0.1, 3.01, 0.1):
            j = ratefn.jb(float(b), z)
            if j <= prev:
                return False, f"J_B not increasing at b={b:.1f}, zeta={z}"
            prev = j
    return True, "J_B strictly increasing in b for zeta in {-0.3, 0, 0.7}"


def check_jb_oracle(quick: bool) -> tuple[bool, str]:
    n = 3 if quick else 5
    worst = 0.0
    for b in np.linspace(0.1, 2.0, n):
        for z in np.linspace(-0.5, 2.0, n):
            d = abs(oracles.jb_variational(float(b), float(z)).value - ratefn.jb(float(b), float(z)))
            worst = max(worst, d)
    return worst <= 1e-4, f"{n}x{n} grid, max |collocation - closed form| = {worst:.2e}"


def check_ibs_zero_and_oracle(quick: bool) -> tuple[bool, str]:
    worst_zero = 0.0
    for z in (0.0, 0.25, 0.5, 1.0):
        xstar = asian.a_fwd(1.0, z, 1.0)
        worst_zero = max(worst_zero, abs(asian.rate_ibs(xstar, z).value))
        if not (asian.rate_ibs(xstar * 1.1, z).value > 0.0
                and asian.rate_ibs(xstar * 0.9, z).value > 0.0):
            return False, f"I_BS not positive around its zero at zeta={z}"
    if worst_zero > 1e-10:
        return False, f"I_BS at its zero: {worst_zero:.2e} > 1e-10"
    xs = (0.5, 2.0) if quick else (0.3, 0.5, 0.8, 1.2, 2.0, 3.0)
    zs = (0.0, 1.0) if quick else (0.0, 0.5, 1.0)
    worst = 0.0
    for x in xs:
        for z in zs:
            d = abs(oracles.ibs_variational(x, z).value - asian.rate_ibs(x, z).value)
            worst = max(worst, d)
    ok = worst <= 1e-4
    return ok, f"zero residual {worst_zero:.1e}; collocation oracle grid max diff {worst:.2e}"


def check_ibs_branch_continuity(quick: bool) -> tuple[bool, str]:
    worst = 0.0
    for z in (0.0, 0.2, 0.5, 1.0):
        piv = 1.0 + 0.5 * z
        lo = asian.rate_ibs(piv * (1.0 - 1e-9), z).value
        hi = asian.rate_ibs(piv * (1.0 + 1e-9), z).value
        worst = max(worst, abs(lo - hi))
    return worst <= 1e-8, f"max branch gap at x = 1 + zeta/2: {worst:.2e}"


def check_atm_sigma_ln(quick: bool) -> tuple[bool, str]:
    sigma = 0.2
    atm0 = asian.sigma_ln(100.0, 100.0, sigma, 0.0, 1.0)
    err0 = abs(atm0 - sigma / math.sqrt(3.0))
    if err0 > 1e-3 * sigma:
        return False, f"zeta=0 ATM limit {atm0:.6f} vs sigma/sqrt(3), err {err0:.2e}"
    afwd = asian.a_fwd(100.0, 0.5, 1.0)
    atm = asian.sigma_ln(afwd, 100.0, sigma, 0.5, 1.0)
    worst = 0.0
    for side in (1.0 - 1.2e-4, 1.0 + 1.2e-4):
        worst = max(worst, abs(asian.sigma_ln(afwd * side, 100.0, sigma, 0.5, 1.0) - atm))
    ok = worst <= 1e-3 * sigma
    return ok, f"ATM err {err0:.1e}; switchover gap {worst:.2e} (<= {1e-3 * sigma:.1e})"


def _sine_sinh_integral(a: float, tol: float) -> tuple[float, int]:
    """integral_0^inf e^(-z)*sin(a*sinh z) dz = 1/a - K_1(a) by the exact bond's contour.

    The contour has height pi/2, where |e^(i*a*sinh z)| = e^(-a*cosh(Re z)).
    Its imaginary leg is half the bond's closed form, as Re e^(-it) = cos(t)
    is half of Re q(it) = 2*cos(t).  Past x_max = max(asinh(1/a),
    acosh(log(8/tol)/a)) the integrand, with |e^(-z)| <= 1, is below tol/8
    and falls with a logarithmic slope of at least 1, so its tail is below
    tol/8 too.  Returns the value and the horizontal leg's depth-cap hits.
    """
    h = 0.5 * math.pi
    level = math.log(8.0) - math.log(tol)
    x_max = max(math.asinh(1.0 / a), math.acosh(max(1.0, level / a)))
    value, _, depth_cap_hits, _ = dothan._contour_sum(
        lambda z: np.exp(1j * a * np.sinh(z) - z), tol, 1j * h, x_max + 1j * h)
    return 0.5 * dothan._imaginary_leg(a, h) + value, depth_cap_hits


def check_quadrature_selftest(quick: bool) -> tuple[bool, str]:
    grid = (0.5, 2.0) if quick else (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst = 0.0
    for a in grid:
        val, _ = _sine_sinh_integral(a, 1e-9)
        worst = max(worst, abs(val - (1.0 / a - bessel_k(1.0, a))))
    return worst <= 1e-8, f"sine-sinh identity max error {worst:.2e} on {len(grid)} points"


def check_bessel_recurrence(quick: bool) -> tuple[bool, str]:
    worst = 0.0
    for nu in (0.5, 1.0, 1.7, 3.0):
        for x in (0.01, 0.1, 1.0, 5.0, 20.0):
            lhs = bessel_k(nu + 1.0, x)
            # K_(nu-1) via the K_-nu = K_nu symmetry when the order is negative
            rhs = bessel_k(abs(nu - 1.0), x) + (2.0 * nu / x) * bessel_k(nu, x)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst <= 1e-9, f"K recurrence max relative defect {worst:.2e}"


def check_small_rate_limit(quick: bool) -> tuple[bool, str]:
    def two_sided(r0: float, sigma: float, T: float) -> tuple[float, float, dothan.BondQuote]:
        # (exact price, lower, upper): the small-rate quote 1 - r0*m1 + r0^2*m2/2 less the
        # Jensen bound on the third moment, m3 <= T^2*(e^(3*(a+sigma^2)*T)-1)/(3*(a+sigma^2))
        # (E[e^(3*sigma*W_s + 3*(a-sigma^2/2)*s)] = e^(3*(a+sigma^2)*s)), a = 0 here
        upper = dothan.bond_small_rate(r0, sigma, 0.0, T)
        bound3 = T * T * math.expm1(3.0 * sigma * sigma * T) / (3.0 * sigma * sigma)
        b_exact = dothan.bond_exact_zero_drift(r0, sigma, T, quad_tol=1e-11).price
        return b_exact, upper.price - (r0 ** 3 / 6.0) * bound3, upper

    gaps = []
    for r0 in (0.02, 0.01, 0.005):
        b_exact, lower, upper = two_sided(r0, 0.2, 1.0)
        half_m2 = 0.5 * upper.diagnostics["m2"]
        gaps.append(abs((b_exact - 1.0 + r0 * upper.diagnostics["m1"]) / (r0 * r0) - half_m2))
        if not (lower <= b_exact <= upper.price):
            return False, f"two-sided bound violated at r0={r0}"
    if not (gaps[0] > gaps[1] > gaps[2]):
        return False, f"limit ratio not approaching m2/2 monotonically: {gaps}"
    if gaps[-1] >= 1e-2 * half_m2:
        return False, f"final gap {gaps[-1]:.2e} >= 1% of m2/2"
    # s = sigma^2*T/2 = 5.7e-9: the exact amplitude falls from 2 to 0 within a few sqrt(s)
    b_exact, lower, upper = two_sided(1.23e-5, 0.00121, 0.00785)
    if not (lower <= b_exact <= upper.price):
        return False, (f"two-sided bound violated at s = 5.7e-9: {b_exact!r} not in "
                       f"[{lower!r}, {upper.price!r}]")
    return True, (f"ratio -> m2/2 monotonically (gaps {gaps[0]:.2e} > {gaps[1]:.2e} > "
                  f"{gaps[2]:.2e}); small-s price within its two-sided bound")


def check_perpetual_limit(quick: bool) -> tuple[bool, str]:
    r0, sigma = 0.05, 0.5
    perp = dothan.bond_perpetual(r0, sigma, 0.0).price
    gap200 = abs(dothan.bond_exact_zero_drift(r0, sigma, 200.0).price - perp)
    if gap200 > 1e-3:
        return False, f"|B(200) - B(inf)| = {gap200:.2e} > 1e-3"
    if not quick:
        prev = math.inf
        for T in (25.0, 50.0, 100.0, 200.0):
            gap = abs(dothan.bond_exact_zero_drift(r0, sigma, T).price - perp)
            if gap >= prev:
                return False, f"approach to the perpetual price not monotone at T={T:g}"
            prev = gap
    # exponential factor: r0*T*R(b,0) - 2*sqrt(2*r0/sigma^2) stays bounded
    target = 2.0 * math.sqrt(2.0 * r0 / (sigma * sigma))
    worst = 0.0
    for T in (50.0, 100.0, 500.0, 1000.0, 5000.0):
        worst = max(worst, abs(dothan.bond_asymptotic(r0, sigma, 0.0, T).yield_equiv * T - target))
    ok = worst <= 0.5
    return ok, f"|B(200)-B(inf)|={gap200:.1e}; exponent defect bounded by {worst:.3f} on T<=5000"


def check_taylor_small_T(quick: bool) -> tuple[bool, str]:
    qt = dothan.bond_taylor_small_T(0.1, 0.1, 1.0)
    qx = dothan.bond_exact_zero_drift(0.1, 0.1, 1.0, quad_tol=1e-11)
    err = abs(qt.price - qx.price)
    if err > 1e-6:
        return False, f"Taylor vs exact at (0.1, 0.1, 1): {err:.2e} > 1e-6"
    # regrouping the T-expansion at fixed b reproduces the series coefficients
    lead = abs(qt.diagnostics["terms"][0] - (0.5 * 0.01 * 0.1) / 3.0)
    return lead <= 1e-15, f"Taylor vs exact {err:.2e}; leading term matches b^2/3 to {lead:.1e}"


def check_asympt_error_regime(quick: bool) -> tuple[bool, str]:
    # the asymptotic enters its regime at large b: at sigma=0.5, T=10 the
    # normalized yield error decreases in r0 (at small b it increases, which
    # the stated small-b grid in the source's observation does not satisfy)
    errs = []
    for r0 in (0.1, 0.2, 0.4):
        ya = dothan.bond_asymptotic(r0, 0.5, 0.0, 10.0).yield_equiv
        ye = dothan.bond_exact_zero_drift(r0, 0.5, 10.0).yield_equiv
        errs.append(abs(ya - ye) / r0)
    ok = errs[0] > errs[1] > errs[2]
    return ok, f"normalized yield errors at r0=(0.1,0.2,0.4): {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}"


_CHECKS: tuple[tuple[str, Callable[[bool], tuple[bool, str]]], ...] = (
    ("table1_bond_prices", check_table1_bond_prices),
    ("table1_asymptotic_yields", check_table1_asymptotic_yields),
    ("table3_reproduction", check_table3),
    ("convergence_constants", check_convergence_constants),
    ("series_small_b", check_series_small_b),
    ("series_divergence", check_series_divergence),
    ("branch_continuity", check_branch_continuity),
    ("zero_drift_consistency", check_zero_drift_consistency),
    ("largeb_accuracy", check_largeb_accuracy),
    ("root_residuals", check_root_residuals),
    ("jb_monotone", check_jb_monotone),
    ("jb_oracle", check_jb_oracle),
    ("ibs_zero_and_oracle", check_ibs_zero_and_oracle),
    ("ibs_branch_continuity", check_ibs_branch_continuity),
    ("atm_sigma_ln", check_atm_sigma_ln),
    ("quadrature_selftest", check_quadrature_selftest),
    ("bessel_recurrence", check_bessel_recurrence),
    ("small_rate_limit", check_small_rate_limit),
    ("perpetual_limit", check_perpetual_limit),
    ("taylor_small_T", check_taylor_small_T),
    ("asympt_error_regime", check_asympt_error_regime),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run the suite; never raises (a crashing check reports as failed)."""
    results = []
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(quick)
        except Exception as exc:  # surface the failure, keep the suite running
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
