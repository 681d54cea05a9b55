import math

import numpy as np
import pytest
from scipy import integrate

from gbmlap import reference
from gbmlap.dothan import (
    BondMethod,
    bond_asymptotic,
    bond_exact_zero_drift,
    bond_perpetual,
    bond_small_rate,
    bond_taylor_small_T,
    moment_m1,
    moment_m2,
    sin_sinh_quadrature,
)
from gbmlap.errors import DomainError, QuadratureNotConverged
from gbmlap.specfun import bessel_k

def test_exact_quadrature_reproduces_published_prices():
    # published zero-drift benchmark rows at r0 = 0.1
    for (T, sigma, b_pub, _, _) in reference.TABLE1_ROWS:
        q = bond_exact_zero_drift(0.1, sigma, T)
        assert abs(q.price - b_pub) <= 2e-6, (T, sigma, q.price)
        assert abs(q.yield_equiv + math.log(q.price) / T) < 1e-15


def test_exact_quadrature_stabilized_tail():
    # with the amplitude replaced by the stabilizing e^(-z) term alone, the
    # quadrature reproduces sqrt(y)*(1/(2 sqrt y) - K_1(2 sqrt y))
    for y in (0.25, 1.0, 4.0, 20.0):
        a = 2.0 * math.sqrt(y)
        val = sin_sinh_quadrature(lambda z: np.exp(-z), a, tol=1e-10).value
        ref = 1.0 / a - bessel_k(1.0, a)
        assert abs(math.sqrt(y) * (val - ref)) < 1e-8


def test_quadrature_lobe_cap():
    # five lobes is below the extrapolator's minimum, and raw summation of
    # this tail needs far more
    with pytest.raises(QuadratureNotConverged):
        sin_sinh_quadrature(lambda z: np.exp(-z), 5.0, tol=1e-12, max_lobes=5)


def test_quadrature_lobe_cap_when_extrapolation_never_settles():
    # lobes of the same size with random weights: the partial sums wander,
    # no epsilon diagonal settles and the raw sum must still hit the cap
    freq = 3.0
    weights = np.random.default_rng(0).uniform(1.0, 2.0, 200)

    def amplitude(z):
        lobe = np.floor(freq * np.sinh(z) / math.pi).astype(int)
        return np.cosh(z) * weights[lobe]

    with pytest.raises(QuadratureNotConverged):
        sin_sinh_quadrature(amplitude, freq, tol=1e-9, max_lobes=200)


def test_quadrature_extrapolated_bessel_identity():
    # int_0^inf e^(-z) sin(a sinh z) dz = 1/a - K_1(a), at a tolerance the
    # raw lobe sum cannot reach within its lobe budget
    for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        q = sin_sinh_quadrature(lambda z: np.exp(-z), a, tol=1e-12)
        assert abs(q.value - (1.0 / a - bessel_k(1.0, a))) < 1e-11, (a, q)
        assert q.summation == "extrapolated"
        assert q.depth_cap_hits == 0
        assert q.n_panels >= q.n_lobes


def test_quadrature_compact_support_returns_raw_sum():
    # the partial sums stop changing past z = 1; the epsilon table meets
    # zero differences and the raw sum ends the loop
    def amplitude(z):
        return (1.0 - np.minimum(z, 1.0)) ** 4

    q = sin_sinh_quadrature(amplitude, 5.0, tol=1e-9)
    assert q.summation == "raw"
    ref, _ = integrate.quad(lambda z: math.sin(5.0 * math.sinh(z)) * (1.0 - z) ** 4,
                            0.0, 1.0, epsabs=1e-13)
    assert abs(q.value - ref) < 1e-9


def test_quadrature_validation():
    with pytest.raises(DomainError):
        sin_sinh_quadrature(lambda z: np.exp(-z), 0.0)
    with pytest.raises(DomainError):
        sin_sinh_quadrature(lambda z: np.exp(-z), 1.0, tol=-1.0)


def test_exact_quadrature_long_maturity_extrapolated():
    q = bond_exact_zero_drift(0.05, 0.5, 200.0)
    assert q.diagnostics["n_lobes"] <= 64
    assert q.diagnostics["summation"] == "extrapolated"
    assert q.diagnostics["depth_cap_hits"] == 0
    assert q.diagnostics["n_panels"] >= q.diagnostics["n_lobes"]
    tight = bond_exact_zero_drift(0.05, 0.5, 200.0, quad_tol=1e-11)
    assert abs(tight.price - q.price) <= 1e-9


def test_exact_price_below_quadrature_resolution():
    # the true price is about e^-150, far below the absolute error estimate
    with pytest.raises(DomainError, match="absolute resolution"):
        bond_exact_zero_drift(5.0, 0.2, 30.0)


def test_exact_price_in_unit_interval_and_decreasing():
    prev = 1.0
    for T in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        p = bond_exact_zero_drift(0.1, 0.3, T).price
        assert 0.0 < p < prev
        prev = p


def test_asymptotic_quote():
    q = bond_asymptotic(0.06, 0.3, 0.09, 10.0)
    assert q.method is BondMethod.ASYMPTOTIC
    assert abs(q.yield_equiv - 0.08454) <= 5e-5
    assert abs(q.price - math.exp(-q.yield_equiv * 10.0)) < 1e-15
    assert bond_asymptotic(0.0, 0.3, 0.09, 10.0).price == 1.0


def test_moments_degenerate():
    # sigma = 0, a = 0: the integral is deterministic, X_T = T
    assert abs(moment_m1(0.0, 0.0, 2.0) - 2.0) < 1e-14
    assert abs(moment_m2(0.0, 0.0, 2.0) - 4.0) < 1e-12


def test_moment_m1_direct():
    assert abs(moment_m1(0.09, 0.3, 1.0) - math.expm1(0.09) / 0.09) < 1e-15


def test_moment_m2_closed_form_and_guard():
    got = moment_m2(0.0, 0.2, 1.0)
    ref = 2.0 / 0.04 * (math.expm1(0.04) / 0.04 - 1.0)
    assert abs(got - ref) < 1e-13
    # continuity across the a + sigma^2 -> 0 series guard
    for c in (1e-7, 9.9e-7, 1.01e-6, 1e-5):
        assert abs(moment_m2(0.0, math.sqrt(c), 1.0) - 1.0) < 1e-5
    # removable singularity at 2a + sigma^2 = 0
    v = moment_m2(-0.02, 0.2, 1.0)
    assert math.isfinite(v) and v > 0.0
    # e^((a + sigma^2)*T) = e^900 overflows double precision
    with pytest.raises(DomainError, match="x = 900.0"):
        moment_m2(0.0, 0.3, 1e4)


def test_small_rate_quote():
    assert bond_small_rate(0.0, 0.2, 0.0, 1.0).price == 1.0
    q2 = bond_small_rate(0.01, 0.2, 0.0, 1.0)
    qe = bond_exact_zero_drift(0.01, 0.2, 1.0, quad_tol=1e-11)
    assert abs(q2.price - qe.price) < 1e-4
    # the second-order truncation is an upper bound on the true price
    assert qe.price <= q2.price


def test_small_rate_two_sided_bound():
    sigma, T = 0.2, 1.0
    m1 = moment_m1(0.0, sigma, T)
    m2 = moment_m2(0.0, sigma, T)
    # third-moment Jensen bound T^2*(e^(3*sigma^2*T)-1)/(3*sigma^2) for a = 0
    bound3 = T * T * math.expm1(3.0 * sigma * sigma * T) / (3.0 * sigma * sigma)
    for r0 in (0.02, 0.01, 0.005):
        b = bond_exact_zero_drift(r0, sigma, T, quad_tol=1e-11).price
        upper = 1.0 - r0 * m1 + 0.5 * r0 * r0 * m2
        lower = upper - (r0 ** 3 / 6.0) * bound3
        assert lower <= b <= upper


def test_taylor_small_T():
    # leading term: yield -> r0 as T -> 0
    q = bond_taylor_small_T(0.1, 0.3, 1e-6)
    assert abs(q.yield_equiv - 0.1) < 1e-13
    qt = bond_taylor_small_T(0.1, 0.1, 1.0)
    qx = bond_exact_zero_drift(0.1, 0.1, 1.0, quad_tol=1e-11)
    assert abs(qt.price - qx.price) < 1e-6
    # the T^2 coefficient regroups to b^2/3 of the small-b series
    b2 = 0.5 * 0.01 * 0.1
    assert abs(qt.diagnostics["terms"][0] - b2 / 3.0) < 1e-18
    # past its range the truncated ratio turns negative and the price would exceed 1
    for r0, sigma, T in [(0.1, 1.0, 5.0), (0.1, 2.0, 3.0), (0.1, 50.0, 1e3)]:
        with pytest.raises(DomainError, match=r"sigma\^2\*r0\*T\^2"):
            bond_taylor_small_T(r0, sigma, T)


def test_perpetual_zero_drift_closed_form():
    q = bond_perpetual(0.05, 0.5, 0.0)
    y = 2.0 * 0.05 / 0.25
    assert abs(q.price - 2.0 * math.sqrt(y) * bessel_k(1.0, 2.0 * math.sqrt(y))) < 1e-14
    assert q.yield_equiv is None


def test_perpetual_domain():
    with pytest.raises(DomainError):
        bond_perpetual(0.05, 0.5, 0.125)  # a = sigma^2/2 exactly
    with pytest.raises(DomainError):
        bond_perpetual(0.0, 0.5, 0.0)
    # nu = 2001 (to rounding): Gamma(nu) overflows a float
    with pytest.raises(DomainError, match=r"gamma_fn overflows the float range at x = 2000\.99"):
        bond_perpetual(0.05, 0.1, -10.0)


def test_perpetual_is_large_T_limit():
    perp = bond_perpetual(0.05, 0.5, 0.0).price
    prev = math.inf
    for T in (25.0, 50.0, 100.0, 200.0):
        gap = abs(bond_exact_zero_drift(0.05, 0.5, T).price - perp)
        assert gap < prev
        prev = gap
    assert prev <= 1e-3


def test_perpetual_exponential_factor():
    # -log(price) - 2*sqrt(2*r0/sigma^2) grows only logarithmically in y,
    # so the exponential factor e^(-2*sqrt(y)) carries the decay
    sigma = 0.5
    for y in (1.0, 10.0, 100.0, 1e4):
        r0 = 0.5 * y * sigma * sigma
        p = bond_perpetual(r0, sigma, 0.0).price
        defect = -math.log(p) - 2.0 * math.sqrt(y)
        assert abs(defect) <= 4.0
        if y >= 100.0:
            assert abs(defect) <= 0.25 * 2.0 * math.sqrt(y)


def test_asymptotic_error_regime():
    # at sigma = 0.5, T = 10 (large b) the normalized yield error of the
    # asymptotic method decreases as r0 grows
    errs = []
    for r0 in (0.1, 0.2, 0.4):
        ya = bond_asymptotic(r0, 0.5, 0.0, 10.0).yield_equiv
        ye = bond_exact_zero_drift(r0, 0.5, 10.0).yield_equiv
        errs.append(abs(ya - ye) / r0)
    assert errs[0] > errs[1] > errs[2]


def test_validation_errors():
    with pytest.raises(DomainError):
        bond_exact_zero_drift(0.0, 0.3, 1.0)
    with pytest.raises(DomainError):
        bond_asymptotic(-0.1, 0.3, 0.0, 1.0)
    with pytest.raises(DomainError):
        bond_asymptotic(0.1, 0.3, 0.0, 0.0)
