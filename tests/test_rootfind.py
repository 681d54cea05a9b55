import math

import pytest
from hypothesis import given, strategies as st

from gbmlap.errors import MaxIterations, NoSignChange
from gbmlap.rootfind import solve_bracketed


def test_quadratic_exact_root():
    res = solve_bracketed(lambda x: x * x - 4.0, 0.0, 3.0, tol=1e-12)
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
    res = solve_bracketed(lambda x: x - math.cos(x), 0.0, math.pi / 2, tol=1e-15)
    assert abs(res.root - 0.7390851332151607) < 1e-15
    assert res.iterations <= 10


def test_no_sign_change_raises():
    with pytest.raises(NoSignChange):
        solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)
    # an endpoint just above tol is not a root, whatever its distance to one
    with pytest.raises(NoSignChange):
        solve_bracketed(lambda x: x + 2e-15, 0.0, 1.0, tol=1e-15)


def test_endpoint_within_tol_is_the_root():
    # |f| <= tol at an end is the loop's own stopping rule, so that end is
    # returned even though both ends have the same sign; both evaluations count
    res = solve_bracketed(lambda x: x + 5e-16, 0.0, 1.0, tol=1e-15)
    assert (res.root, res.residual, res.iterations) == (0.0, 5e-16, 2)
    res = solve_bracketed(lambda x: x - 1.0 - 5e-16, -1.0, 1.0, tol=1e-15)
    assert res.root == 1.0 and 0.0 < abs(res.residual) <= 1e-15 and res.iterations == 2


def test_max_iterations_raises():
    # a step function never meets the residual criterion, so convergence is
    # by bracket width alone, which needs ~50 bisections at tol 1e-15
    step = lambda x: 1.0 if x >= 1.0 / 3.0 else -1.0
    with pytest.raises(MaxIterations):
        solve_bracketed(step, -1.0, 2.0, tol=1e-15, max_iter=10)


def test_invalid_args():
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x, -1.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x, 2.0, 1.0)


@given(
    root=st.floats(-5.0, 5.0),
    scale=st.floats(0.1, 10.0),
    off=st.floats(0.5, 3.0),
)
def test_monotone_cubic_properties(root, scale, off):
    # strictly increasing cubic with a single real root inside the bracket
    f = lambda x: scale * ((x - root) ** 3 + (x - root))
    lo, hi = root - off, root + 1.7 * off
    res = solve_bracketed(f, lo, hi, tol=1e-13)
    assert lo <= res.root <= hi
    assert abs(res.root - root) <= 1e-10 * max(1.0, abs(root))
    # the root does not depend on the starting bracket
    res2 = solve_bracketed(f, root - 0.9 * off, root + 0.3 * off, tol=1e-13)
    assert abs(res2.root - res.root) <= 1e-10 * max(1.0, abs(root))
