import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from gbmlap import asian, ratefn
from gbmlap.errors import MaxIterations, NoSignChange
from gbmlap.rootfind import solve_bracketed, solve_newton


def _secant(f, df, *args, **kw):
    return solve_bracketed(f, *args, **kw)


def _newton(f, df, *args, **kw):
    return solve_newton(lambda x: (f(x), df(x)), *args, **kw)


# both entry points, called as solve(f, f', lo, hi, ...); the secant one
# ignores the slope
SOLVERS = (_secant, _newton)


def test_quadratic_exact_root():
    for solve in SOLVERS:
        res = solve(lambda x: x * x - 4.0, lambda x: 2.0 * x, 0.0, 3.0, tol=1e-12)
        assert abs(res.root - 2.0) < 1e-12
        assert abs(res.residual) <= 1e-12
        assert res.bracket[0] <= res.root <= res.bracket[1]
        assert res.iterations < 200


def test_identity_function():
    res = solve_bracketed(lambda x: x, -1.0, 2.0, tol=1e-12)
    assert abs(res.root) < 1e-12


def test_transcendental_residual():
    # lambda^2/cos^2(lambda) = b^2 at b = 1; root is the cos fixed point
    f = lambda x: x * x / math.cos(x) ** 2 - 1.0
    res = solve_bracketed(f, 1e-12, math.pi / 2 - 1e-12, tol=1e-14)
    assert abs(res.root - 0.7390851332151607) < 1e-12
    assert abs(f(res.root)) <= 1e-12


def test_superlinear_convergence():
    # bisection alone needs about 50 evaluations to reach 1e-15 on [0, pi/2]
    for solve, most in ((_secant, 10), (_newton, 7)):
        res = solve(lambda x: x - math.cos(x), lambda x: 1.0 + math.sin(x), 0.0, math.pi / 2,
                    tol=1e-15)
        assert abs(res.root - 0.7390851332151607) < 1e-15
        assert res.iterations <= most


def _bisect(f, lo, hi, n=200):
    # independent plain bisection on the sign of f, the reference for the roots
    flo = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# (f, lo, hi, simple root): multiple and flat roots, steep and curved equations
BATTERY = {
    "x^3": (lambda x: x ** 3, -1.0, 2.0, False),
    "x^9": (lambda x: x ** 9, -1.0, 2.0, False),
    "expm1(20x)": (lambda x: math.expm1(20.0 * x), -1.0, 2.0, True),
    "atan(x-1)": (lambda x: math.atan(x - 1.0), -5.0, 20.0, True),
    "tanh(1e3(x-0.1))": (lambda x: math.tanh(1e3 * (x - 0.1)), -1.0, 1.0, True),
    "log": (math.log, 0.01, 50.0, True),
    "sqrt-1/2": (lambda x: math.sqrt(x) - 0.5, 0.0, 4.0, True),
    "x-cos(x)": (lambda x: x - math.cos(x), 0.0, math.pi / 2, True),
    "exp(-x)-x": (lambda x: math.exp(-x) - x, -1.0, 3.0, True),
    "1/x-3": (lambda x: 1.0 / x - 3.0, 0.05, 10.0, True),
}


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_secant_battery(name):
    # the bisection root lies in the final sign-change interval, and a simple
    # root meets it to 1e-12; a multiple root stops by its residual first
    f, lo, hi, simple = BATTERY[name]
    res = solve_bracketed(f, lo, hi, tol=1e-15)
    ref = _bisect(f, lo, hi)
    assert res.bracket[0] - 1e-12 <= ref <= res.bracket[1] + 1e-12
    if simple:
        assert abs(res.root - ref) <= 1e-12 * max(1.0, abs(ref))
    assert res.iterations <= 60


def test_newton_vanishing_slope():
    # x^3 has a triple root where its slope vanishes, and a slope that is 0
    # everywhere leaves only bisection; both still converge inside the bracket
    for df in (lambda x: 3.0 * x * x, lambda x: 0.0):
        res = _newton(lambda x: x ** 3, df, -1.0, 2.0, tol=1e-15)
        assert abs(res.root) <= 1e-5 and abs(res.residual) <= 1e-15
        assert res.bracket[0] <= res.root <= res.bracket[1]
        assert res.iterations <= 60


def test_newton_wrong_constant_slope():
    # a slope 100 times too large or too small slows the solve but cannot
    # stop it early or lead it out of the bracket
    for slope in (100.0, 0.01):
        res = _newton(lambda x: x - math.cos(x), lambda x: slope, 0.0, math.pi / 2, tol=1e-15)
        assert abs(res.root - 0.7390851332151607) < 1e-15
        assert 0.0 <= res.root <= math.pi / 2


def test_no_sign_change_raises():
    one = lambda x: 1.0
    for solve in SOLVERS:
        with pytest.raises(NoSignChange):
            solve(lambda x: x * x + 1.0, lambda x: 2.0 * x, -1.0, 1.0)
        # an endpoint just above tol is not a root, whatever its distance to one
        with pytest.raises(NoSignChange):
            solve(lambda x: x + 2e-15, one, 0.0, 1.0, tol=1e-15)


def test_endpoint_within_tol_is_the_root():
    # |f| <= tol at an end is the loop's own stopping rule, so that end is
    # returned even though both ends have the same sign; both evaluations count
    one = lambda x: 1.0
    for solve in SOLVERS:
        res = solve(lambda x: x + 5e-16, one, 0.0, 1.0, tol=1e-15)
        assert (res.root, res.residual, res.iterations) == (0.0, 5e-16, 2)
        res = solve(lambda x: x - 1.0 - 5e-16, one, -1.0, 1.0, tol=1e-15)
        assert res.root == 1.0 and 0.0 < abs(res.residual) <= 1e-15 and res.iterations == 2


def test_given_end_value_is_neither_evaluated_nor_counted():
    # the private solver takes an end's value from its caller: the same root and
    # residual from the same steps, with one evaluation fewer and none at that end
    from gbmlap.rootfind import _solve_newton

    seen = []

    def fdf(x):
        seen.append(x)
        return x * x - 2.0, 2.0 * x

    both = _solve_newton(fdf, 0.0, 2.0, 1e-15)
    for given, ends in ((0.0, {"f_lo": -2.0}), (2.0, {"f_hi": 2.0})):
        seen.clear()
        res = _solve_newton(fdf, 0.0, 2.0, 1e-15, **ends)
        assert given not in seen and len(seen) == res.iterations == both.iterations - 1
        assert (res.root, res.residual, res.bracket) == (both.root, both.residual, both.bracket)
    # an end within tol is the root with no evaluation at all
    seen.clear()
    res = _solve_newton(fdf, 0.0, 2.0, 1e-15, f_lo=0.0, f_hi=2.0)
    assert (res.root, res.iterations, seen) == (0.0, 0, [])


def test_max_iterations_raises():
    # a step function never meets the residual criterion, so convergence is
    # by bracket width alone, which needs ~50 bisections at tol 1e-15
    step = lambda x: 1.0 if x >= 1.0 / 3.0 else -1.0
    for solve in SOLVERS:
        with pytest.raises(MaxIterations):
            solve(step, lambda x: 0.0, -1.0, 2.0, tol=1e-15, max_iter=10)
        # below an ulp of the root the width never meets tol, and points repeat:
        # the chord slope through a repeated point is 0, not a division by zero
        with pytest.raises(MaxIterations):
            solve(step, lambda x: 0.0, -1.0, 2.0, tol=1e-17)


def test_invalid_args():
    one = lambda x: 1.0
    for solve in SOLVERS:
        with pytest.raises(ValueError):
            solve(lambda x: x, one, -1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            solve(lambda x: x, one, 2.0, 1.0)


@given(
    root=st.floats(-5.0, 5.0),
    scale=st.floats(0.1, 10.0),
    off=st.floats(0.5, 3.0),
)
def test_monotone_cubic_properties(root, scale, off):
    # strictly increasing cubic with a single real root inside the bracket
    f = lambda x: scale * ((x - root) ** 3 + (x - root))
    df = lambda x: scale * (3.0 * (x - root) ** 2 + 1.0)
    lo, hi = root - off, root + 1.7 * off
    for solve in SOLVERS:
        res = solve(f, df, lo, hi, tol=1e-13)
        assert lo <= res.root <= hi
        assert abs(res.root - root) <= 1e-10 * max(1.0, abs(root))
        # the root does not depend on the starting bracket
        res2 = solve(f, df, root - 0.9 * off, root + 0.3 * off, tol=1e-13)
        assert abs(res2.root - res.root) <= 1e-10 * max(1.0, abs(root))


def _over(fn, t):
    """fn(t)/t with its limit 1 at t = 0 (for sin and sinh)."""
    return fn(t) / t if t else 1.0


def _closed_form_cases(kind, zeta, u):
    """(library root, the equation as documented, bracket, value at a root) for one branch.

    u in (0, 1] is the relative distance from the branch locus.
    """
    thr = abs(zeta) / (2.0 + zeta)
    pivot = 1.0 + 0.5 * zeta
    if kind == "R_hyperbolic":
        b = thr * (1.0 - 0.5 * u)
        f = lambda d: zeta * zeta - d * d - 4.0 * b * b * (math.cosh(0.5 * d) + 0.5 * zeta * _over(math.sinh, 0.5 * d)) ** 2
        return ratefn.solve_delta(b, zeta).root, f, (0.0, abs(zeta)), lambda d: ratefn._value(b, zeta, d * d)
    if kind == "R_trigonometric":
        b = max(thr, 0.01) * (1.0 + 4.0 * u)
        f = lambda x: math.sqrt(4.0 * x * x + zeta * zeta) - b * (2.0 * math.cos(x) + zeta * _over(math.sin, x))
        return ratefn.solve_xi(b, zeta).root, f, (0.0, math.pi), lambda x: ratefn._value(b, zeta, -4.0 * x * x)
    if kind == "ibs_hyperbolic":
        x = pivot * (1.0 + 20.0 * u)
        f = lambda d: _over(math.sinh, d) + 0.5 * zeta * _over(math.sinh, 0.5 * d) ** 2 - x
        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
        return asian.ibs_solve_delta(x, zeta).root, f, (0.0, hi), lambda d: asian._ibs_value(x, zeta, d * d)
    lo = max(0.0, 2.0 * zeta / math.pi ** 2)
    x = pivot - (pivot - lo) * u * 0.99
    f = lambda t: _over(math.sin, 2.0 * t) + 0.5 * zeta * _over(math.sin, t) ** 2 - x
    return asian.ibs_solve_xi(x, zeta).root, f, (0.0, 0.5 * math.pi), lambda t: asian._ibs_value(x, zeta, -4.0 * t * t)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["R_hyperbolic", "R_trigonometric", "ibs_hyperbolic", "ibs_trigonometric"]),
    zeta=st.floats(-1.99, 3.0),
    log_u=st.floats(-9.0, 0.0),
)
def test_newton_roots_agree_with_bisection(kind, zeta, log_u):
    # every closed-form root, at least 1e-9 (relative) from its branch locus,
    # against bisection on the documented equation over the same bracket; b stays
    # above 0.01, below which the zeta/b^2 cancellation of the hyperbolic R
    # value (ROADMAP item 1) exceeds the bound whatever the root
    assume(kind != "R_hyperbolic" or abs(zeta) >= 0.05)
    u = 10.0 ** log_u
    root, f, (lo, hi), value = _closed_form_cases(kind, zeta, u)
    ref = _bisect(f, lo, hi)
    assert lo <= root <= hi
    v, v_ref = value(root), value(ref)
    assert abs(v - v_ref) <= 1e-11 * max(1.0, abs(v_ref))
    if u >= 1e-4:  # away from the locus, where the roots themselves are well conditioned
        assert abs(root - ref) <= 1e-11 * max(1.0, abs(ref))
