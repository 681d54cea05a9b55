import math

import pytest
from hypothesis import given, settings, strategies as st

from gbmlap.asian import (
    AsianInputs,
    OptionKind,
    a_fwd,
    asian_price_approx,
    european_bs_price,
    ibs_solve_delta,
    ibs_solve_xi,
    otm_log_price_limit,
    rate_ibs,
    sigma_ln,
)
from gbmlap.errors import BranchError, DomainError, NoRootInInterval
from gbmlap.ratefn import Branch
from gbmlap.rootfind import solve_bracketed


def _bisect(f, lo, hi, n=200):
    # independent plain bisection used as the oracle for monotone equations
    flo = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_ibs_delta_boundary_and_oracle():
    for z in (0.0, 0.5, 1.0):
        assert abs(ibs_solve_delta(1.0 + 0.5 * z, z).root) < 1e-9
        # the pivot root is the bracket's lower end, after two counted evaluations
        assert ibs_solve_delta(1.0 + 0.5 * z, z).iterations == 2
    # bisection oracle on the monotone left side at x = 2, zeta = 0
    ref = _bisect(lambda d: math.sinh(d) / d - 2.0, 1e-9, 10.0)
    res = ibs_solve_delta(2.0, 0.0)
    assert abs(res.root - ref) < 1e-12
    assert abs(res.root - 2.17731898496531) < 1e-12
    # residual substitution at (x=3, zeta=1)
    res = ibs_solve_delta(3.0, 1.0)
    d = res.root
    lhs = math.sinh(d) / d + 2.0 * 1.0 * math.sinh(0.5 * d) ** 2 / (d * d)
    assert abs(lhs - 3.0) <= 1e-12
    with pytest.raises(BranchError):
        ibs_solve_delta(1.0, 1.0)


def test_ibs_delta_counts_every_evaluation(monkeypatch):
    # the bracket probes are evaluations of the equation too: count them
    # through cosh_sinhc, which the equation calls once per evaluation
    from gbmlap import asian

    calls = 0
    cosh_sinhc = asian.cosh_sinhc

    def counted(v):
        nonlocal calls
        calls += 1
        return cosh_sinhc(v)

    monkeypatch.setattr(asian, "cosh_sinhc", counted)
    for x, zeta in ((1.2, 0.1), (3.0, 1.0), (1e6, 0.5), (1.0, 0.0)):
        calls = 0
        res = ibs_solve_delta(x, zeta)
        assert calls == res.iterations


def test_ibs_xi_boundary_and_oracle():
    for z in (0.0, 0.5):
        assert abs(ibs_solve_xi(1.0 + 0.5 * z, z).root) < 1e-9
        assert ibs_solve_xi(1.0 + 0.5 * z, z).iterations == 2
    ref = _bisect(lambda t: math.sin(2.0 * t) / (2.0 * t) - 0.5, 1e-9, math.pi / 2 - 1e-9)
    res = ibs_solve_xi(0.5, 0.0)
    assert abs(res.root - ref) < 1e-12
    assert abs(res.root - 0.94774713351699) < 1e-12
    # residual substitution at (x=0.9, zeta=0.2)
    res = ibs_solve_xi(0.9, 0.2)
    t = res.root
    lhs = math.sin(2.0 * t) / (2.0 * t) * (1.0 + 0.1 * math.tan(t) / t)
    assert abs(lhs - 0.9) <= 1e-12
    # x below the left side's value 2*zeta/pi^2 at pi/2: the root is past pi/2,
    # still below P's first zero
    res = ibs_solve_xi(0.1, 1.0)
    assert abs(res.root - 1.69349829785) < 1e-10 and res.root > 0.5 * math.pi
    # at x = 1e-21 the bracket's end value S*P/x - 1 is lost to rounding
    with pytest.raises(NoRootInInterval):
        ibs_solve_xi(1e-21, 1e-21)
    with pytest.raises(BranchError):
        ibs_solve_xi(2.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(zeta=st.floats(-1.99, 3.0), v=st.floats(1e-6, 1.0 - 1e-6), below=st.booleans())
def test_ibs_xi_root_below_sine_zero(zeta, v, below):
    # x across (2*zeta/pi^2, 1 + zeta/2), where the root is at most pi/2, or,
    # for zeta >= 0.01, across (0, 2*zeta/pi^2], where it is past pi/2
    lo = max(0.0, 2.0 * zeta / math.pi ** 2)
    if below and zeta >= 0.01:
        x = lo * v
    else:
        x = lo + (1.0 + 0.5 * zeta - lo) * v
    res = ibs_solve_xi(x, zeta)
    t = res.root
    assert 0.0 < t <= 0.5 * math.pi or (x <= lo and t < math.pi)
    assert 2.0 * t * math.cos(t) + zeta * math.sin(t) > 0.0
    assert abs(res.residual) <= 1e-12


@pytest.mark.parametrize("x, zeta, value", [
    (0.1, 1.0, 19.7183002126), (0.1, 5.0, 43.7118377724), (0.5, 5.0, 15.8607500092),
    (3.0, 20.0, 147.809323872), (0.1, 20.0, 254.606670473),
])
def test_rate_ibs_root_past_half_pi(x, zeta, value):
    # x <= 2*zeta/pi^2 puts the root past pi/2; the closed form meets the
    # collocation oracle and its frozen value
    from gbmlap.oracles import ibs_variational

    ev = rate_ibs(x, zeta)
    assert ev.branch is Branch.TRIGONOMETRIC and ev.root > 0.5 * math.pi
    assert abs(ev.value - ibs_variational(x, zeta).value) <= 1e-9 * value
    assert abs(ev.value - value) <= 1e-9 * value


def test_rate_ibs_zero_locus():
    for z in (0.0, 0.25, 0.5, 1.0):
        xstar = math.expm1(z) / z if z else 1.0
        assert abs(rate_ibs(xstar, z).value) <= 1e-10
        assert rate_ibs(1.1 * xstar, z).value > 0.0
        assert rate_ibs(0.9 * xstar, z).value > 0.0
    assert rate_ibs(1.0, 0.0).value == 0.0


def test_rate_ibs_frozen_values():
    ev = rate_ibs(2.0, 0.0)
    assert ev.branch is Branch.HYPERBOLIC and ev.evals > 0
    assert abs(ev.value - 0.63636749452524) < 1e-12
    ev = rate_ibs(0.5, 0.0)
    assert ev.branch is Branch.TRIGONOMETRIC
    assert abs(ev.value - 0.841595790105893) < 1e-12


def test_rate_ibs_branch_continuity():
    for z in (0.0, 0.2, 0.5, 1.0):
        piv = 1.0 + 0.5 * z
        lo = rate_ibs(piv * (1.0 - 1e-9), z).value
        hi = rate_ibs(piv * (1.0 + 1e-9), z).value
        assert abs(lo - hi) <= 1e-8


def test_rate_ibs_domain():
    with pytest.raises(DomainError):
        rate_ibs(0.0, 0.0)
    with pytest.raises(DomainError):
        rate_ibs(-1.0, 0.0)


@pytest.mark.parametrize("x, zeta", [(1e-300, -2.0), (1e-11, -30.0)])
def test_rate_ibs_unresolved_log_argument_is_domain_error(x, zeta):
    # hyperbolic roots that miss S*P = x: the value's slope in u, about
    # S^2/(2x), turns their rounding into an error as large as the value (at
    # (1e-11, -30) it would be 6e-5 relative); these raised ZeroDivisionError
    # or a bare "math domain error"
    with pytest.raises(DomainError) as exc:
        rate_ibs(x, zeta)
    assert f"x={x}, zeta={zeta}" in str(exc.value)


# I_BS(x, zeta) at small x from mpmath at 2*log10(1/x) + 80 digits, on the
# value formula with P = C + zeta*S/2 summed, whose cancellation near P's zero
# (where the root sits as x -> 0) those digits absorb
_SMALL_X = [
    (1e-06, 0.1, 1999997.7409693564), (1e-08, 0.1, 199999998.6619983),
    (1e-10, 0.1, 19999999999.58303), (1e-20, 0.1, 2e+20), (1e-50, 0.1, 2e+50),
    (1e-100, 0.1, 2e+100), (1e-200, 0.1, 2e+200), (1e-300, 0.1, 1.9999999999999998e+300),
    (1e-06, 1.0, 2000022.0975227328), (1e-08, 1.0, 200000031.30785593),
    (1e-10, 1.0, 20000000040.518196), (1e-20, 1.0, 2e+20), (1e-50, 1.0, 2e+50),
    (1e-100, 1.0, 2e+100), (1e-200, 1.0, 2e+200), (1e-300, 1.0, 1.9999999999999998e+300),
    (1e-06, 5.0, 2000136.930166907), (1e-08, 5.0, 200000182.98184517),
    (1e-10, 5.0, 20000000229.033546), (1e-20, 5.0, 2e+20), (1e-50, 5.0, 2e+50),
    (1e-100, 5.0, 2e+100), (1e-200, 5.0, 2e+200), (1e-300, 5.0, 1.9999999999999998e+300),
    (1e-06, -0.5, 1999981.774690986), (1e-08, -0.5, 199999977.16951683),
    (1e-10, -0.5, 19999999972.564346), (1e-20, -0.5, 2e+20), (1e-50, -0.5, 2e+50),
    (1e-100, -0.5, 2e+100), (1e-200, -0.5, 2e+200), (1e-300, -0.5, 1.9999999999999998e+300),
    (1e-300, -1.999999999, 1.9999999999999998e+300),
]


@pytest.mark.parametrize("x, zeta, ref", _SMALL_X, ids=[f"{x!r}-{z!r}" for x, z, _ in _SMALL_X])
def test_rate_ibs_small_x_matches_mpmath(x, zeta, ref):
    # P = x/S does not cancel; C + zeta*S/2 lost 2-11e-11 at x = 1e-6, and an
    # S*P gate raised below x = 1e-8
    assert abs(rate_ibs(x, zeta).value - ref) <= 2e-15 * ref


def test_sigma_ln_unresolved_rate_is_domain_error():
    # moneyness 1e-11 at zeta = -30 is the last case above
    with pytest.raises(DomainError):
        sigma_ln(1e-9, 100.0, 1e-9, -1.0, 30.0)


def test_a_fwd():
    assert a_fwd(100.0, 0.0, 1.0) == 100.0
    assert abs(a_fwd(1.0, 0.5, 1.0) - math.expm1(0.5) / 0.5) < 1e-15
    # direct substitution 100*(e^1.8 - 1)/1.8
    assert abs(a_fwd(100.0, 0.09, 20.0) - 280.53597024516367) < 1e-10
    # smooth through the small-drift guard
    assert abs(a_fwd(1.0, 1e-9, 1.0) - (1.0 + 0.5e-9)) < 1e-15
    # e^(a*t) overflows double precision
    with pytest.raises(DomainError, match="x = 1000.0"):
        a_fwd(100.0, 1.0, 1000.0)


def test_sigma_ln_atm_limit():
    got = sigma_ln(100.0, 100.0, 0.2, 0.0, 1.0)
    assert abs(got - 0.2 / math.sqrt(3.0)) < 1e-3 * 0.2
    # the zero/zero configuration K = A_fwd with drift routes to the limit
    afwd = a_fwd(100.0, 0.5, 1.0)
    got = sigma_ln(afwd, 100.0, 0.2, 0.5, 1.0)
    assert math.isfinite(got) and got > 0.0


# sigma*sqrt(V(zeta))/x* at sigma = 1 from a 50-digit mpmath evaluation of the closed
# form V(zeta) = (e^(2 zeta) - 2 e^zeta (e^zeta - 1)/zeta + (e^(2 zeta) - 1)/(2 zeta))/zeta^2
ATM_SIGMA_LN = (
    (0.0, 0.57735026918962576),
    (1e-08, 0.5773502699113136),
    (-1e-08, 0.57735026846793793),
    (0.0001, 0.57735748607099643),
    (-0.0001, 0.57734305231426917),
    (0.01, 0.5780719858558729),
    (-0.01, 0.5766286126636945),
    (0.1, 0.58456891281463158),
    (-0.1, 0.570137636259159),
    (0.5, 0.61335471506785165),
    (2.0, 0.71363452594196313),
    (-1.9, 0.44891460895199554),
    (10.0, 0.92200122876504844),
    # both sides of the series switch at |zeta| = 0.5
    (0.49999999999999994, 0.61335471506785164),
    (-0.5, 0.54149408253679828),
    (-0.49999999999999994, 0.54149408253679829),
)


def test_sigma_ln_atm_closed_form():
    for zeta, ref in ATM_SIGMA_LN:
        got = sigma_ln(a_fwd(1.0, zeta, 1.0), 1.0, 1.0, zeta, 1.0)
        assert abs(got - ref) <= 1e-13 * ref
    for sigma in (0.2, 0.3, 1.7):
        assert sigma_ln(100.0, 100.0, sigma, 0.0, 1.0) == sigma / math.sqrt(3.0)
    # far drifts, where e^(2 zeta) overflows: up to terms in e^-|zeta| the ratio
    # is 1/sqrt(2|zeta|) for zeta << 0 and sqrt(1 - 1.5/zeta) for zeta >> 0
    for zeta, ref in ((-400.0, 1.0 / math.sqrt(800.0)), (400.0, math.sqrt(1.0 - 1.5 / 400.0))):
        got = sigma_ln(a_fwd(1.0, zeta, 1.0), 1.0, 1.0, zeta, 1.0)
        assert abs(got - ref) <= 1e-13 * ref


def test_sigma_ln_switchover_continuity():
    sigma = 0.2
    afwd = a_fwd(100.0, 0.5, 1.0)
    atm = sigma_ln(afwd, 100.0, sigma, 0.5, 1.0)
    for side in (1.0 - 1.2e-4, 1.0 + 1.2e-4):
        direct = sigma_ln(afwd * side, 100.0, sigma, 0.5, 1.0)
        assert abs(direct - atm) < 1e-3 * sigma


def _quote(k, r=0.05, t=1.0):
    return asian_price_approx(AsianInputs(s0=100.0, k=k, r=r, q=0.0, sigma=0.3, t=t, kind=OptionKind.CALL))


@pytest.mark.parametrize("r, t", [(0.05, 1.0), (0.0, 2.0), (-0.1, 5.0)])
def test_asian_diagnostics_report_the_atm_window(r, t):
    # the window is |log(K/A_fwd)| < 1e-4: inside it Sigma_LN is the limit sigma*sqrt(V)/x*
    fwd = a_fwd(100.0, r, t)
    for side, inside in ((1.0 - 0.5e-4, True), (1.0, True), (1.0 + 0.5e-4, True),
                         (1.0 - 2e-4, False), (1.0 + 2e-4, False), (1.3, False)):
        d = _quote(fwd * side, r, t).diagnostics
        assert d["atm_limit"] is inside, side
        assert d["sigma_ln"] == sigma_ln(fwd * side, 100.0, 0.3, r, t)


@pytest.mark.parametrize("args, name", [
    ((110.0, math.inf, 0.3, 0.05, 1.0), "s0"),
    ((110.0, 100.0, 0.3, -math.inf, 1.0), "a"),
    ((110.0, 100.0, 0.3, 0.05, -math.inf), "t"),
    ((110.0, math.nan, 0.3, 0.05, 1.0), "s0"),
    ((110.0, 100.0, 0.3, math.nan, 1.0), "a"),
    ((110.0, 100.0, 0.3, 0.05, math.nan), "t"),
    ((110.0, 100.0, 0.3, 1e308, 10.0), "zeta"),
    ((5e-324, 100.0, 0.3, 0.05, 1.0), "k"),
])
def test_sigma_ln_names_the_argument_out_of_range(args, name):
    # these raised "math domain error" or ZeroDivisionError, or named rate_ibs's x
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        sigma_ln(*args)


def test_european_black_limit_when_forward_over_strike_underflows():
    # F/K = 0 in double precision: d1 -> -inf, so the call is 0 and the put df*(K - F)
    assert european_bs_price(5e-324, 110.0, 1.0, 0.3, 0.95, OptionKind.CALL) == 0.0
    assert european_bs_price(5e-324, 110.0, 1.0, 0.3, 0.95, OptionKind.PUT) == 0.95 * 110.0
    # sd = vol*sqrt(t) below the float range: the discounted intrinsic value
    assert european_bs_price(120.0, 110.0, 1e-300, 1e-200, 0.95, OptionKind.CALL) == 0.95 * 10.0


def test_sigma_ln_vs_mc_implied_vol():
    # invert the European proxy on a Monte Carlo Asian price; the asymptotic
    # equivalent vol should land within 5%
    from gbmlap.oracles import mc_asian_price

    inp = AsianInputs(s0=100.0, k=150.0, r=0.0, q=0.0, sigma=0.2, t=1.0, kind=OptionKind.CALL)
    est = mc_asian_price(inp, 150_000, 256, seed=91)
    implied = solve_bracketed(
        lambda v: european_bs_price(100.0, 150.0, 1.0, v, 1.0, OptionKind.CALL) - est.mean,
        1e-4,
        1.0,
        tol=1e-10,
    ).root
    asymptotic = sigma_ln(150.0, 100.0, 0.2, 0.0, 1.0)
    assert abs(asymptotic - implied) < 0.05 * implied


def test_european_black_values():
    # frozen: 100*erf(0.1/sqrt(2)) at F=K=100, vol*sqrt(T)=0.2
    got = european_bs_price(100.0, 100.0, 1.0, 0.2, 1.0, OptionKind.CALL)
    assert abs(got - 7.9655674554057963) < 1e-12
    assert european_bs_price(100.0, 100.0, 1.0, 0.0, 1.0, OptionKind.CALL) == 0.0
    assert european_bs_price(80.0, 100.0, 2.0, 0.0, 0.9, OptionKind.PUT) == 0.9 * 20.0


@pytest.mark.parametrize("kind, limit", [(OptionKind.CALL, 90.0), (OptionKind.PUT, 99.0)])
def test_european_black_limit_when_sd_overflows(kind, limit):
    # sd = vol*sqrt(t) = inf: the call tends to df*F and the put to df*K, the
    # values a finite sd of 1e305 already gives
    assert european_bs_price(100.0, 110.0, 1e20, 1e300, 0.9, kind) == limit
    assert european_bs_price(100.0, 110.0, 1e10, 1e300, 0.9, kind) == limit


@given(
    f=st.floats(10.0, 500.0),
    k=st.floats(10.0, 500.0),
    vol=st.floats(0.01, 1.5),
    df=st.floats(0.5, 1.0),
)
def test_put_call_parity(f, k, vol, df):
    c = european_bs_price(f, k, 1.3, vol, df, OptionKind.CALL)
    p = european_bs_price(f, k, 1.3, vol, df, OptionKind.PUT)
    assert abs((c - p) - df * (f - k)) < 1e-9 * max(1.0, f, k)


def test_asian_price_atm_composition():
    inp = AsianInputs(s0=100.0, k=100.0, r=0.0, q=0.0, sigma=0.2, t=1.0, kind=OptionKind.CALL)
    quote = asian_price_approx(inp)
    vol = quote.diagnostics["sigma_ln"]
    assert abs(vol - 0.2 / math.sqrt(3.0)) < 1e-3 * 0.2
    ref = european_bs_price(100.0, 100.0, 1.0, vol, 1.0, OptionKind.CALL)
    assert quote.price == ref
    # the composed value at the ATM vol sigma/sqrt(3)
    assert abs(quote.price - 4.604027805769682) < 1e-3


def test_asian_price_deep_otm_monotone():
    prev = math.inf
    for k in (150.0, 200.0, 300.0, 500.0, 1000.0):
        inp = AsianInputs(s0=100.0, k=k, r=0.0, q=0.0, sigma=0.2, t=1.0, kind=OptionKind.CALL)
        price = asian_price_approx(inp).price
        assert 0.0 <= price < prev
        prev = price


def test_otm_log_price_limit():
    assert abs(otm_log_price_limit(200.0, 100.0, 0.2, 0.0, 1.0, OptionKind.CALL)
               + 0.63636749452524) < 1e-12
    assert abs(otm_log_price_limit(50.0, 100.0, 0.2, 0.0, 1.0, OptionKind.PUT)
               + 0.841595790105893) < 1e-12
    # K = S0 sits on the boundary; the zero-drift rate function vanishes there
    assert otm_log_price_limit(100.0, 100.0, 0.2, 0.0, 1.0, OptionKind.CALL) == 0.0
    assert otm_log_price_limit(100.0, 100.0, 0.2, 0.0, 1.0, OptionKind.PUT) == 0.0
    with pytest.raises(DomainError):
        otm_log_price_limit(90.0, 100.0, 0.2, 0.0, 1.0, OptionKind.CALL)
    with pytest.raises(DomainError):
        otm_log_price_limit(110.0, 100.0, 0.2, 0.0, 1.0, OptionKind.PUT)


def test_inputs_validation():
    with pytest.raises(DomainError):
        AsianInputs(s0=0.0, k=100.0, r=0.0, q=0.0, sigma=0.2, t=1.0, kind=OptionKind.CALL)
    with pytest.raises(DomainError):
        AsianInputs(s0=100.0, k=100.0, r=0.0, q=0.0, sigma=-0.2, t=1.0, kind=OptionKind.CALL)
    with pytest.raises(DomainError):
        AsianInputs(s0=100.0, k=100.0, r=0.0, q=0.0, sigma=0.2, t=0.0, kind=OptionKind.CALL)
