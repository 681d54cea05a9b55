"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single CRITERION line (visible with ``pytest -s``)
before asserting.  Two published columns (table 1's asymptotic yield and
table 3's asymptotic price) mix rounded and truncated cells, so a printed
cell is matched when it equals the computed value either rounded or
truncated to the printed decimals (``_printed_digits_match``).  The
8-term small-b series is checked against its own truncation bound
(``_SERIES_C5``, ``_SERIES_C6``).  README "Known deviations" gives the
evidence for both rules.
"""

import math
import time

import numpy as np

from gbmlap import asian, dothan, oracles, ratefn, reference
from gbmlap.asian import AsianInputs, OptionKind
from gbmlap.model import ModelParams, scale
from gbmlap.validation import run_checks, table1_row, table3_row


# Magnitudes of the first two omitted coefficients of the small-b series
# R(b, 0) = sum_k c_k b^(2k): c5 = -84752/155925, c6 = +1020928/1216215.
_SERIES_C5 = 84752.0 / 155925.0
_SERIES_C6 = 1020928.0 / 1216215.0


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _printed_digits_match(value: float, printed: float, decimals: int) -> bool:
    """True if ``printed`` is ``value`` rounded or truncated to ``decimals``.

    Compared as integers in units of the last printed digit; ``value`` is
    positive, so truncation is the floor.
    """
    unit = 10**decimals
    digits = round(printed * unit)
    return digits in (round(value * unit), math.floor(value * unit))


def test_criterion_01_table1_reproduction():
    t0 = time.perf_counter()
    bad_b, bad_r = [], []
    for (T, sigma, b_pub, _, r_pub) in reference.TABLE1_ROWS:
        row = table1_row(T, sigma)
        if abs(row.b_exact - b_pub) > 2e-6:
            bad_b.append((T, sigma, row.b_exact, b_pub))
        pct = row.r_asympt_pct
        if not _printed_digits_match(pct, r_pub, 3):
            bad_r.append((T, sigma, round(pct, 7), r_pub))
    elapsed = time.perf_counter() - t0
    ok = not bad_b and not bad_r and elapsed < 10.0
    _report(
        1,
        ok,
        f"15 rows in {elapsed:.2f}s; B column violations: {bad_b or 'none'}; "
        f"R column violations (printed digits neither rounded nor truncated): "
        f"{bad_r or 'none'}",
    )
    assert elapsed < 10.0
    assert not bad_b, f"B_exact outside +-2e-6 of published: {bad_b}"
    assert not bad_r, (
        f"R_asympt printed digits are neither the computed value rounded nor "
        f"truncated to 3 decimals: {bad_r}. The column mixes both conventions: "
        f"rows (5, 0.2) and (10, 0.1) print the same quantity (b^2 = 0.05, "
        f"value 9.8396570%) as 9.840 and 9.839. See README 'Known deviations'."
    )


def test_criterion_02_table3_reproduction():
    t0 = time.perf_counter()
    bad = []
    for (T, xi_pub, nlb_pub, b_pub, _) in reference.TABLE3_ROWS:
        row = table3_row(T)
        nlb, price = row.neg_log_b_over_t, row.b_asympt
        if abs(row.xi - xi_pub) > 1e-6:
            bad.append((T, "xi", row.xi, xi_pub))
        if abs(nlb - nlb_pub) > 5e-5:
            bad.append((T, "neg_log_B_over_T", nlb, nlb_pub))
        if not _printed_digits_match(price, b_pub, 3):
            bad.append((T, "B_asympt", round(price, 6), b_pub))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(2, ok, f"8 rows in {elapsed:.3f}s; violations: {bad or 'none'}")
    assert elapsed < 1.0
    assert not bad, (
        f"table-3 values outside stated tolerances: {bad}. xi is checked to "
        f"1e-6 and -log(B)/T to 5e-5; B_asympt passes when its printed digits "
        f"are the computed price rounded or truncated to 3 decimals (T=3 "
        f"prints 0.814944 as 0.814, T=15 prints 0.254869 as 0.255). See "
        f"README 'Known deviations'."
    )


def test_criterion_03_convergence_constants():
    y0, rb = ratefn.convergence_radius()
    ok = abs(y0 - 1.19968) <= 1e-5 and abs(rb - 0.662743) <= 1e-6
    resid = y0 * math.tanh(y0) - 1.0
    ok = ok and abs(resid) <= 1e-12
    _report(3, ok, f"y0={y0:.8f} (+-1e-5 of 1.19968), R_b={rb:.8f} (+-1e-6 of 0.662743)")
    assert abs(y0 - 1.19968) <= 1e-5
    assert abs(rb - 0.662743) <= 1e-6
    assert abs(resid) <= 1e-12


def test_criterion_04_series_behavior():
    inside = []
    for b in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        diff = ratefn.rate_R_series(b, 8) - ratefn.rate_R_zero_drift(b).value
        # alternating tail: |c5|b^10 - |c6|b^12 <= diff <= |c5|b^10, widened by
        # a few ulps of R ~ 1 where the bound's width is below double roundoff
        lower = _SERIES_C5 * b**10 - _SERIES_C6 * b**12 - 1e-15
        upper = _SERIES_C5 * b**10 + 1e-15
        if not lower <= diff <= upper or (b <= 0.25 and abs(diff) > 1e-6):
            inside.append((b, diff))
    exploded = all(
        abs(ratefn.rate_R_series(b, 8) - ratefn.rate_R_zero_drift(b).value) > 1e-2
        for b in (0.9, 1.0, 1.1)
    )
    finite_monotone = True
    prev = math.inf
    for b in np.arange(0.9, 3.01, 0.1):
        v = ratefn.rate_R_zero_drift(float(b)).value
        if not (0.0 < v < prev):
            finite_monotone = False
        prev = v
    ok = not inside and exploded and finite_monotone
    _report(
        4,
        ok,
        f"series truncation-bound (and <=1e-6 for b<=0.25) violations for b<=0.3: "
        f"{inside or 'none'}; error>1e-2 for b>=0.9: {exploded}; "
        f"full solve finite+monotone: {finite_monotone}",
    )
    assert exploded and finite_monotone
    assert not inside, (
        f"8-term series minus full solve outside [|c5|b^10 - |c6|b^12 - 1e-15, "
        f"|c5|b^10 + 1e-15] (c5 = -84752/155925, c6 = 1020928/1216215), or "
        f"above 1e-6 for b <= 0.25: {inside}. See README 'Known deviations'."
    )


def test_criterion_05_laplace_oracle_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for b in np.linspace(0.1, 2.0, 5):
        for z in np.linspace(-0.5, 2.0, 5):
            d = abs(
                oracles.jb_variational(float(b), float(z)).value
                - 2.0 * b * b * ratefn.rate_R(float(b), float(z)).value
            )
            worst = max(worst, float(d))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _report(5, ok, f"5x5 grid worst |shooting - 2b^2R| = {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_06_asian_rate_function():
    worst_zero = 0.0
    for z in (0.0, 0.25, 0.5, 1.0):
        xstar = math.expm1(z) / z if z else 1.0
        worst_zero = max(worst_zero, abs(asian.rate_ibs(xstar, z).value))
    worst_grid = 0.0
    for x in (0.5, 0.8, 1.2, 2.0, 3.0):
        for z in (0.0, 0.5, 1.0):
            d = abs(oracles.ibs_variational(x, z).value - asian.rate_ibs(x, z).value)
            worst_grid = max(worst_grid, d)
    atm = asian.sigma_ln(100.0, 100.0, 0.2, 0.0, 1.0)
    atm_err = abs(atm - 0.2 / math.sqrt(3.0))
    ok = worst_zero <= 1e-10 and worst_grid <= 1e-4 and atm_err <= 1e-3 * 0.2
    _report(
        6,
        ok,
        f"I_BS zero residual {worst_zero:.1e} (<=1e-10); oracle grid {worst_grid:.2e} "
        f"(<=1e-4); ATM limit error {atm_err:.2e} (<=1e-3*sigma)",
    )
    assert worst_zero <= 1e-10
    assert worst_grid <= 1e-4
    assert atm_err <= 1e-3 * 0.2


def test_criterion_07_monte_carlo_cross_checks():
    t0 = time.perf_counter()
    est = oracles.mc_laplace(0.1, 0.1, 0.0, 1.0, 1_000_000, 512, seed=20240811)
    lap_diff = abs(est.mean - 0.904853)
    lap_ok = lap_diff <= 3.0 * est.stderr

    inp = AsianInputs(s0=100.0, k=110.0, r=0.05, q=0.0, sigma=0.3, t=1.0, kind=OptionKind.CALL)
    mc = oracles.mc_asian_price(inp, 200_000, 256, seed=7)
    approx = asian.asian_price_approx(inp).price
    band = max(3.0 * mc.stderr, 0.02 * mc.mean)
    asian_ok = abs(mc.mean - approx) <= band
    elapsed = time.perf_counter() - t0
    ok = lap_ok and asian_ok and elapsed < 60.0
    _report(
        7,
        ok,
        f"laplace MC {est.mean:.8f} vs 0.904853 (diff {lap_diff:.2e}, 3se {3 * est.stderr:.2e}); "
        f"asian MC {mc.mean:.4f} vs approx {approx:.4f} (band {band:.4f}); {elapsed:.0f}s",
    )
    assert lap_ok, (est.mean, est.stderr)
    assert asian_ok, (mc.mean, approx, band)
    assert elapsed < 60.0


def test_criterion_08_small_rate_asymptotics():
    sigma, T = 0.2, 1.0
    m1 = dothan.moment_m1(0.0, sigma, T)
    m2 = dothan.moment_m2(0.0, sigma, T)
    half_m2 = 0.5 * m2
    # Jensen bound on the third moment, m3 <= T^2*(e^(3*sigma^2*T)-1)/(3*sigma^2)
    # (the numerically verified form; m3 = 1.0411 here sits inside it)
    bound3 = T * T * math.expm1(3.0 * sigma * sigma * T) / (3.0 * sigma * sigma)
    gaps = []
    bounds_ok = True
    for r0 in (0.02, 0.01, 0.005):
        b = dothan.bond_exact_zero_drift(r0, sigma, T, quad_tol=1e-11).price
        gaps.append(abs((b - 1.0 + r0 * m1) / (r0 * r0) - half_m2))
        upper = 1.0 - r0 * m1 + r0 * r0 * half_m2
        lower = upper - (r0 ** 3 / 6.0) * bound3
        bounds_ok = bounds_ok and (lower <= b <= upper)
    monotone = gaps[0] > gaps[1] > gaps[2]
    final_ok = gaps[-1] < 1e-2 * half_m2
    ok = monotone and final_ok and bounds_ok
    _report(
        8,
        ok,
        f"limit gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e} "
        f"(final < 1% of m2/2 = {1e-2 * half_m2:.2e}); two-sided bounds hold: {bounds_ok}",
    )
    assert monotone, gaps
    assert final_ok, gaps
    assert bounds_ok


def test_criterion_09_perpetual_bond():
    r0, sigma = 0.05, 0.5
    perp = dothan.bond_perpetual(r0, sigma, 0.0).price
    gap = abs(dothan.bond_exact_zero_drift(r0, sigma, 200.0).price - perp)
    target = 2.0 * math.sqrt(2.0 * r0 / (sigma * sigma))
    worst = 0.0
    for T in (50.0, 100.0, 500.0, 1000.0, 5000.0):
        sc = scale(ModelParams(sigma=sigma, a=0.0, T=T, theta=r0))
        worst = max(worst, abs(r0 * T * ratefn.rate_R_zero_drift(sc.b).value - target))
    ok = gap <= 1e-3 and worst <= 0.5
    _report(
        9,
        ok,
        f"|B_exact(200) - B_perpetual| = {gap:.2e} (<=1e-3); "
        f"|r0*T*R - 2*sqrt(2r0/sigma^2)| bounded by {worst:.3f} on T in [50, 5000]",
    )
    assert gap <= 1e-3
    assert worst <= 0.5


def test_criterion_10_validate_runtime():
    t0 = time.perf_counter()
    full = run_checks(quick=False)
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    quick = run_checks(quick=True)
    t_quick = time.perf_counter() - t0
    known_red = {"table1_asymptotic_yields", "table3_reproduction", "series_small_b"}
    full_fails = {r.name for r in full if not r.passed}
    quick_fails = {r.name for r in quick if not r.passed}
    ok = (
        t_full < 120.0
        and t_quick < 15.0
        and len(full) == len(quick)
        and full_fails == known_red
        and quick_fails == known_red
    )
    _report(
        10,
        ok,
        f"validate full: {len(full)} checks in {t_full:.1f}s (<120s); quick: {t_quick:.1f}s "
        f"(<15s); failing checks are exactly the documented published-digit deviations",
    )
    assert t_full < 120.0
    assert t_quick < 15.0
    assert full_fails == known_red, full_fails
    assert quick_fails == known_red, quick_fails
