import math

import pytest
from hypothesis import example, given, settings, strategies as st

from gbmlap import reference
from gbmlap.errors import BranchError, DomainError, NoRootInInterval
from gbmlap.model import ModelParams, scale
from gbmlap.ratefn import (
    Branch,
    boundary_value,
    convergence_radius,
    jb,
    rate_R,
    rate_R_largeb,
    rate_R_series,
    rate_R_zero_drift,
    solve_delta,
    solve_lambda,
    solve_xi,
)

def _scaled(T):
    # the drifted scenario of the published table 3
    return scale(ModelParams(sigma=0.3, a=0.09, T=T, theta=0.06))


def test_convergence_radius_constants():
    y0, rb = convergence_radius()
    assert abs(y0 - 1.19968) <= 1e-5
    assert abs(rb - 0.662743) <= 1e-6
    assert abs(y0 * math.tanh(y0) - 1.0) <= 1e-12


def test_solve_lambda_small_b():
    b = 1e-5
    lam = solve_lambda(b).root
    assert abs(lam - b) < b ** 3  # first fixed-point iterate b*cos(0) = b


def test_solve_lambda_dottie():
    res = solve_lambda(1.0)
    assert abs(res.root - 0.7390851332151607) < 1e-13
    assert abs(res.residual) <= 1e-12


def test_solve_lambda_large_b():
    # pi/2 - lambda ~ pi/(2b) to leading order
    for b in (50.0, 200.0):
        lam = solve_lambda(b).root
        eps = math.pi / 2.0 - lam
        assert abs(eps - math.pi / (2.0 * b)) < 4.0 / (b * b)


def test_solve_lambda_domain():
    with pytest.raises(DomainError):
        solve_lambda(0.0)


def test_solve_delta_limits():
    # b at the branch boundary: root collapses to 0
    res = solve_delta(1.0 / 3.0, 1.0)
    assert abs(res.root) < 1e-9
    # solve_xi meets the same locus from the trigonometric side at xi = 0
    res = solve_xi(1.0 / 3.0, 1.0)
    assert res.root == 0.0 and res.residual == 0.0
    # b -> 0+: root approaches zeta
    res = solve_delta(1e-6, 1.0)
    assert abs(res.root - 1.0) < 1e-10
    assert abs(solve_delta(0.2, 1.0).residual) <= 1e-12


def test_solve_delta_negative_zeta():
    # the hyperbolic branch exists symmetrically for negative drift
    res = solve_delta(0.1, -0.5)
    assert 0.0 < res.root < 0.5
    assert abs(res.residual) <= 1e-12


def test_solve_delta_branch_error():
    with pytest.raises(BranchError):
        solve_delta(0.5, 1.0)  # above zeta/(2+zeta) = 1/3
    with pytest.raises(BranchError):
        solve_delta(0.1, 0.0)


def test_solve_xi_published_values():
    for (T, xi_pub, _) in ((1.0, 0.030345, None), (5.0, 0.215833, None), (20.0, 1.001668, None)):
        sc = _scaled(T)
        res = solve_xi(sc.b, sc.zeta)
        assert abs(res.root - xi_pub) <= 1e-6
        assert abs(res.residual) <= 1e-12


def test_solve_xi_no_root_on_hyperbolic_side():
    with pytest.raises(NoRootInInterval):
        solve_xi(0.1, 1.0)  # below the branch boundary
    with pytest.raises(NoRootInInterval):
        solve_xi(0.5, -2.5)  # pathological drift


@settings(max_examples=60, deadline=None)
@given(zeta=st.floats(-1.99, 3.0), u=st.floats(1e-6, 4.0))
@example(zeta=-2.0 + 1e-8, u=1.0)  # once raised NoSignChange from a collapsed bracket
@example(zeta=0.0, u=1e-6)
def test_solve_xi_root_below_sine_zero(zeta, u):
    # b from just above the branch boundary to 5x beyond it; the unsquared
    # equation's root has 2*xi*cos(xi) + zeta*sin(xi) > 0 without any cap
    b = (abs(zeta) / (2.0 + zeta) + 0.1) * (1.0 + u)
    res = solve_xi(b, zeta)
    xi = res.root
    assert 0.0 < xi < math.pi
    assert 2.0 * xi * math.cos(xi) + zeta * math.sin(xi) > 0.0
    assert abs(res.residual) <= 1e-12


def test_solve_xi_evals_near_zeta_minus_two():
    # the root sits next to the vertex of a nearly parabolic equation, where
    # Brent took 67-93 evaluations at these points; Newton halves its way in
    for zeta in (-2.0 + 1e-8, -2.0 + 1e-12):
        thr = abs(zeta) / (2.0 + zeta)
        for factor in (1.0 + 1e-12, 1.0 + 1e-6, 1.01):
            res = solve_xi(thr * factor, zeta)
            assert 0.0 < res.root < math.pi
            assert res.iterations <= 60


def test_solve_xi_near_zeta_minus_two_matches_mpmath():
    # frozen 80-digit bisection roots; the equation in xi hid these roots
    # under its rounding (1.054e-8 returned for 1.2248e-9 at the third point)
    cases = (
        (-2.0 + 1e-8, 1.0 + 1e-6, 1.2247442491957753e-7),
        (-2.0 + 1e-8, 1.01, 1.2186666858113446e-5),
        (-2.0 + 1e-12, 1.0 + 1e-6, 1.2247986979838848e-9),
        (-2.0 + 1e-12, 1.01, 1.2187208644385553e-7),
    )
    for zeta, factor, ref in cases:
        res = solve_xi(abs(zeta) / (2.0 + zeta) * factor, zeta)
        assert abs(res.root - ref) <= 1e-9 * ref


@pytest.mark.parametrize(
    "b, zeta", [(1e4, 0.5), (50.0, 3.0), (1e3, -1.0), (1e6, -1.0), (1e12, 0.0), (1e300, 0.0)]
)
def test_solve_xi_relative_residual_at_large_b(b, zeta):
    # the residual (sqrt(4*xi^2 + zeta^2) - b*(2*cos(xi) + zeta*sinc(xi)))/(b*(2 + zeta))
    # does not grow with b (the squared equation's read 3.5e-12, 7.3e-12, 1.6e-12 at
    # the first three; 1 - 4*b^2*P^2/(zeta^2 - u) read 1.75e-10, 2.8e-4 and -inf at the
    # last three, where R is exact)
    assert abs(solve_xi(b, zeta).residual) <= 1e-12
    assert abs(rate_R(b, zeta).residual) <= 1e-12


@pytest.mark.parametrize("zeta", [0.25, 1.0, -0.5, 2.0])
def test_rate_R_next_to_the_locus(zeta):
    # u = 0 is a simple root of the equation in u = delta^2 = -4*xi^2, so b
    # within 1e-10 of the locus takes no more evaluations than elsewhere
    thr = abs(zeta) / (2.0 + zeta)
    for factor, branch in ((1.0 - 1e-10, Branch.HYPERBOLIC), (1.0 + 1e-10, Branch.TRIGONOMETRIC)):
        ev = rate_R(thr * factor, zeta)
        assert ev.branch is branch and ev.evals <= 6
        assert abs(ev.value - boundary_value(zeta)) <= 1e-8


def test_rate_R_evals_near_zeta_minus_two():
    # both sides of the locus as zeta -> -2, where the roots in delta and xi
    # took 45-70 evaluations
    for zeta in (-2.0 + 1e-8, -2.0 + 1e-12):
        thr = abs(zeta) / (2.0 + zeta)
        for factor in (1.0 + 1e-12, 1.0 + 1e-6, 1.01, 1.0 - 1e-6, 0.99):
            ev = rate_R(thr * factor, zeta)
            assert ev.branch is (Branch.HYPERBOLIC if factor < 1.0 else Branch.TRIGONOMETRIC)
            assert ev.evals <= 12


def test_rate_R_drifted_trig_evals():
    # with no sine-cap solve, a drifted trigonometric R costs at most two
    # evaluations more than zeta = 0
    assert rate_R(0.5, 0.9).evals <= rate_R(0.5, 0.0).evals + 2


def test_rate_R_table3_rows():
    for (T, xi_pub, nlb_pub, _, _) in reference.TABLE3_ROWS:
        sc = _scaled(T)
        ev = rate_R(sc.b, sc.zeta)
        assert ev.branch is Branch.TRIGONOMETRIC and ev.evals > 0
        assert abs(ev.root - xi_pub) <= 1e-6
        assert abs(0.06 * ev.value - nlb_pub) <= 5e-5
    # frozen regression value for the first row (30-digit bisection)
    sc = _scaled(1.0)
    assert abs(rate_R(sc.b, sc.zeta).value - 1.045375519482926) < 1e-12


def test_rate_R_table1_yields():
    # (T, sigma) -> printed percent; the full scenario has r0 = 0.1, a = 0
    rows = [(1.0, 0.1, 9.998), (5.0, 0.3, 9.655), (10.0, 0.2, 9.421), (10.0, 0.5, 7.714)]
    for (T, sigma, pct) in rows:
        sc = scale(ModelParams(sigma=sigma, a=0.0, T=T, theta=0.1))
        got = 100.0 * 0.1 * rate_R(sc.b, sc.zeta).value
        assert abs(got - pct) <= 5e-4
    # rows (5, 0.2) and (10, 0.1) share b = sqrt(0.05): one published value
    # (9.840) rounds the truth, the other (9.839) truncates it
    sc = scale(ModelParams(sigma=0.1, a=0.0, T=10.0, theta=0.1))
    got = 100.0 * 0.1 * rate_R(sc.b, sc.zeta).value
    assert abs(got - 9.8396570) < 5e-6


def test_rate_R_degenerate_and_domain():
    ev = rate_R(0.0, 1.7)
    assert ev.value == 2.6317337598395287 and ev.branch is Branch.ZERO_DRIFT  # (e^1.7 - 1)/1.7
    assert jb(0.0, 1.7) == 0.0
    with pytest.raises(DomainError):
        rate_R(-0.1, 0.0)
    with pytest.raises(DomainError):
        rate_R(0.5, -2.0)
    # cosh of the hyperbolic root overflows double precision
    with pytest.raises(DomainError, match="overflows"):
        rate_R(0.01, 2000.0)


@pytest.mark.parametrize("zeta", [-1.5, 0.5, 2.0])
def test_rate_R_zero_b_is_the_small_b_limit(zeta):
    # R(b, zeta) -> (e^zeta - 1)/zeta as b -> 0; b = 0 returned 1 for every zeta
    assert abs(rate_R(0.0, zeta).value - rate_R(1e-4, zeta).value) < 1e-7


@pytest.mark.parametrize("b, zeta", [(1e-300, 0.5), (1e-20, 1e-9)])
def test_rate_R_unresolved_is_domain_error(b, zeta):
    # no double-precision answer: zeta/b^2 overflowing, or a value cancelled
    # to below 0; these raised a bare ZeroDivisionError, or returned -4.1e14
    # at (1e-20, 1e-9)
    with pytest.raises(DomainError) as exc:
        rate_R(b, zeta)
    assert f"b={b}, zeta={zeta}" in str(exc.value)


def test_rate_R_boundary_dispatch():
    # exactly on the locus u = 0 is the root, taken with no evaluation; at
    # (5e-201, 1e-200) zeta^2 underflows, which raised NoSignChange
    for b, z in ((1.0 / 3.0, 1.0), (5e-201, 1e-200)):
        ev = rate_R(b, z)
        assert ev.branch is Branch.BOUNDARY and ev.evals == 0
        assert abs(ev.value - boundary_value(z)) == 0.0


def test_boundary_values_frozen():
    # closed form -(zeta^2/4 - 1 - (2+zeta)^2/2 + (2+zeta)^2/zeta*log(1+zeta/2)),
    # frozen from 30-digit evaluation and equal to both one-sided branch limits
    assert abs(boundary_value(0.25) - 1.130518527958235) < 1e-13
    assert abs(boundary_value(1.0) - 1.6008140270265206) < 1e-13
    assert abs(boundary_value(4.0) - 5.1124894019870128) < 1e-13
    assert abs(boundary_value(-0.5) - 0.76793067396698583) < 1e-13
    assert boundary_value(0.0) == 1.0


@pytest.mark.parametrize("zeta", [1.4e154, 1e300])
def test_boundary_value_overflow_is_domain_error(zeta):
    # the closed form overflows to -inf at 1.4e154 and to NaN at 1e300
    with pytest.raises(DomainError) as exc:
        boundary_value(zeta)
    assert f"zeta={zeta}" in str(exc.value)


def test_branch_continuity():
    eps = 1e-8
    for z in (0.25, 0.5, 1.0, 2.0, 4.0, -0.5):
        thr = abs(z) / (2.0 + z)
        lo = rate_R(thr - eps, z).value
        hi = rate_R(thr + eps, z).value
        assert abs(lo - hi) <= 1e-6
        # one-sided offsets move R by ~|dR/db|*eps, so compare the midpoint
        # (first-order terms cancel) against the closed form
        assert abs(0.5 * (lo + hi) - boundary_value(z)) <= 1e-8


def test_zero_drift_consistency():
    for b in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert abs(rate_R(b, 1e-10).value - rate_R_zero_drift(b).value) <= 1e-6


def test_zero_drift_values():
    assert rate_R_zero_drift(0.0).value == 1.0
    # sigma=0.5, r0=0.1, T=10 gives b = sqrt(1.25); frozen 30-digit value
    sc = scale(ModelParams(sigma=0.5, a=0.0, T=10.0, theta=0.1))
    ev = rate_R_zero_drift(sc.b)
    assert abs(ev.value - 0.77144278680425788) < 1e-12
    # R(b, 0) is rate_R's zeta = 0 case, not a second solver
    assert ev == rate_R(sc.b, 0.0) and ev.branch is Branch.TRIGONOMETRIC
    assert solve_lambda(sc.b) == solve_xi(sc.b, 0.0)
    assert abs(100.0 * 0.1 * ev.value - 7.714) <= 5e-4


def test_series_polynomial():
    assert rate_R_series(0.0, 8) == 1.0
    assert rate_R_series(0.7, 2) == 1.0 - 0.49 / 3.0
    # direct polynomial arithmetic from the series coefficients at b = 0.3
    assert abs(rate_R_series(0.3, 8) - 0.9719718948571429) < 1e-15
    with pytest.raises(ValueError):
        rate_R_series(0.3, 5)


def test_series_vs_full_solve():
    # inside the radius the truncation error is the O(b^10) term (~0.54*b^10)
    for b, bound in ((0.1, 1e-10), (0.2, 1e-7), (0.25, 6e-7), (0.3, 4e-6)):
        assert abs(rate_R_series(b, 8) - rate_R_zero_drift(b).value) < bound
    # 8-term error collapses past the radius
    assert abs(rate_R_series(0.9, 8) - rate_R_zero_drift(0.9).value) > 1e-2


def test_largeb_expansion():
    assert abs(rate_R_largeb(20.0) - 0.094124501129976491) < 1e-15
    for b in (10.0, 20.0, 40.0, 100.0):
        assert abs(rate_R_largeb(b) - rate_R_zero_drift(b).value) <= 1e-4
    assert rate_R_largeb(1e12) < 3e-12
    with pytest.raises(DomainError):
        rate_R_largeb(0.0)


def test_jb_values_and_monotonicity():
    assert jb(0.0, 0.3) == 0.0
    lam = solve_lambda(0.5).root
    expected = 2.0 * 0.25 * (math.sin(2.0 * lam) / lam - math.cos(lam) ** 2)
    assert abs(jb(0.5, 0.0) - expected) < 1e-14
    for z in (0.0, 0.7, -0.3):
        prev = -1.0
        for k in range(1, 31):
            v = jb(0.1 * k, z)
            assert v > prev
            prev = v
    # 2*b*(b*R): 2*b^2*R overflowed to inf at b = 1e300, where J_B = 4e300
    assert abs(jb(1e300, 0.0) - 4e300) <= 1e-15 * 4e300
    assert abs(jb(1e200, -1.0) - 4e200) <= 1e-15 * 4e200


def test_negative_zeta_branch_routing():
    # below |zeta|/(2+zeta) the trigonometric equation has no root; the
    # hyperbolic branch takes over (validated against the shooting oracle
    # in test_oracles)
    ev = rate_R(0.1, -0.5)
    assert ev.branch is Branch.HYPERBOLIC
    assert abs(ev.value - 0.78513305851) < 1e-9
    ev = rate_R(0.5, -0.5)
    assert ev.branch is Branch.TRIGONOMETRIC


@pytest.mark.parametrize("fn, b, zeta", [
    (rate_R, 1e-160, 0.0), (rate_R, 1e-170, 0.0), (rate_R, 1e-200, 1e-200), (solve_xi, 1e-170, 0.0),
])
def test_underflowed_bracket_is_a_domain_error(fn, b, zeta):
    # xi_max^2 or zeta^2/4 below the smallest normal float: the bracket's sign change
    # is lost, which was reported as NoSignChange between f(-1) and f(0)
    with pytest.raises(DomainError, match=f"bracket underflows at b={b}, zeta={zeta}"):
        fn(b, zeta)


def test_smallest_resolved_b_keeps_its_value():
    assert rate_R(1e-150, 0.0).value == 1.0


# R(b, zeta) at large b from mpmath at 2*log10(b) + 80 digits, on the value
# formula with P = C + zeta*S/2 summed, whose cancellation near P's zero (where
# the root sits at large b) those digits absorb
_LARGE_B = [
    (10000.0, 0.0, 0.00019997532845615168), (1000000.0, 0.0, 1.999997532601367e-06),
    (100000000.0, 0.0, 1.9999999753259892e-08), (1000000000000.0, 0.0, 1.9999999999975326e-12),
    (1e+16, 0.0, 1.9999999999999997e-16), (1e+18, 0.0, 2e-18), (1e+20, 0.0, 2e-20),
    (1e+50, 0.0, 1.9999999999999998e-50), (1e+100, 0.0, 2e-100), (1e+200, 0.0, 2e-200),
    (1e+300, 0.0, 2e-300), (10000.0, 0.5, 0.00020001949891607226),
    (1000000.0, 0.5, 2.000004252185374e-06), (100000000.0, 0.5, 2.0000000655476754e-08),
    (1000000000000.0, 0.5, 2.00000000001116e-12), (1e+16, 0.5, 2.0000000000000017e-16),
    (1e+18, 0.5, 2e-18), (1e+20, 0.5, 2e-20), (1e+50, 0.5, 1.9999999999999998e-50),
    (1e+100, 0.5, 2e-100), (1e+200, 0.5, 2e-200), (1e+300, 0.5, 2e-300),
    (10000.0, -1.0, 0.00019988918923838486), (1000000.0, -1.0, 1.9999843136191773e-06),
    (100000000.0, -1.0, 1.9999997970844765e-08), (1000000000000.0, -1.0, 1.999999999970498e-12),
    (1e+16, -1.0, 1.999999999999996e-16), (1e+18, -1.0, 2e-18), (1e+20, -1.0, 2e-20),
    (1e+50, -1.0, 1.9999999999999998e-50), (1e+100, -1.0, 2e-100), (1e+200, -1.0, 2e-200),
    (1e+300, -1.0, 2e-300), (1e+20, 10.0, 2e-20),
]


@pytest.mark.parametrize("b, zeta, ref", _LARGE_B, ids=[f"{b!r}-{z!r}" for b, z, _ in _LARGE_B])
def test_rate_R_large_b_matches_mpmath(b, zeta, ref):
    # P = sqrt(zeta^2 - u)/(2*b) does not cancel; C + zeta*S/2 lost 4.7e-5 at
    # (1e12, 0.5), and a residual gate raised at (1e12, 0) and (1e20, 0)
    assert abs(rate_R(b, zeta).value - ref) <= 2e-15 * ref
