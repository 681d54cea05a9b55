import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmlap import reference
from gbmlap.dothan import (
    _GL_NODES,
    _GL_WEIGHTS,
    _K31_NODES,
    _K31_WEIGHTS,
    _HALVES,
    _PANEL,
    BondMethod,
    _contour_sum,
    _exact_cutoff,
    _exact_integrand,
    _imaginary_leg,
    _panel_sums,
    bond_asymptotic,
    bond_exact_zero_drift,
    bond_perpetual,
    bond_small_rate,
    bond_taylor_small_T,
    moment_m1,
    moment_m2,
)
from gbmlap.errors import DomainError, GbmlapError
from gbmlap.specfun import bessel_k
from gbmlap.validation import Table3Row, _sine_sinh_integral, table3_row


def test_gauss_legendre_table_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert _GL_NODES.tolist() == nodes.tolist()
    assert _GL_WEIGHTS.tolist() == weights.tolist()


def test_kronrod_table():
    # K31 extends the G15 rule: symmetric, positive weights summing to 2,
    # exact to degree 3*15 + 1 = 46, with the Gauss nodes at its odd entries
    assert (np.diff(_K31_NODES) > 0.0).all()
    assert _K31_NODES.tolist() == (-_K31_NODES[::-1]).tolist()
    assert _K31_WEIGHTS.tolist() == _K31_WEIGHTS[::-1].tolist()
    assert (_K31_WEIGHTS > 0.0).all()
    assert abs(_K31_WEIGHTS.sum() - 2.0) <= 1e-15
    for p in range(47):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(_K31_WEIGHTS @ _K31_NODES ** p - exact) <= 1e-15, p
    assert _K31_NODES[1::2].tolist() == _GL_NODES.tolist()
    # the outermost Kronrod node, 0.998002298693397060285... to 30 digits
    assert _K31_NODES[-1] == 0.9980022986933971


def test_panel_sums_are_g15_and_k31():
    # coarse = G15 and fine = K31 on two panels and on the halves of the first,
    # for a polynomial of degree 46 that G15 integrates wrongly and K31 exactly;
    # the sums are of Im F dz
    def F(z):
        return 1j * z ** 46

    counts = [0, 0, 0]
    sums = (_panel_sums(F, -1.0, 2.0, _PANEL, counts) + _panel_sums(F, -0.5, 0.75, _PANEL, counts)
            + _panel_sums(F, -1.0, 2.0, _HALVES, counts))
    assert counts == [0, 0, 3]
    for coarse, fine, a, b in zip(sums[0::2], sums[1::2], (-1.0, -0.5, -1.0, 0.0), (1.0, 0.25, 0.0, 1.0)):
        exact = (b ** 47 - a ** 47) / 47.0
        x = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        assert abs(coarse - 0.5 * (b - a) * (_GL_WEIGHTS @ x ** 46)) <= 1e-14 * exact
        assert abs(fine - exact) <= 1e-13 * exact
        assert abs(coarse - exact) > 1e-9 * exact


def _two_term_amplitude(z, s):
    """The amplitude's two-term form e^(-z)*erfc(w - c) + e^z*erfc(w + c),
    with its second term through erfcx (the form before the one-exponent one)."""
    from scipy import special
    sqrt_s = math.sqrt(s)
    return (np.exp(-z) * special.erfc((2.0 * z - s) / (2.0 * sqrt_s))
            + np.exp(-0.25 * s - z * z / s) * special.erfcx((s + 2.0 * z) / (2.0 * sqrt_s)))


def _amplitude(s):
    """q(z) of the exact bond: its integrand's builder with the phase left out."""
    return _exact_integrand(s, 0.0)[1]


@pytest.mark.parametrize("s", [1e-4, 0.4, 25.0, 2600.0, 2900.0, 4000.0])
def test_exact_amplitude_matches_two_term_form(s):
    # s = 2600 takes the one-exponent form, 2900 and 4000 the two-term one,
    # whose erfcx(w - c) would overflow; z runs to just past the amplitude's
    # underflow, where (w - c)^2 or z reaches about 745
    c = 0.5 * math.sqrt(s)
    z = np.random.default_rng(int(s * 10)).uniform(0.0, min(math.sqrt(s) * (28.0 + c), 760.0), 200)
    new, old = _amplitude(s)(z), _two_term_amplitude(z, s)
    assert np.isfinite(new).all()
    assert (np.abs(new - old) <= 1e-15 + 1e-13 * np.abs(old)).all()


def test_exact_quadrature_past_the_amplitude_switch_is_perpetual():
    # s = sigma^2*T/2 = 3,750 takes the two-term amplitude; at T = 30,000 the
    # price has converged to the perpetual one
    q = bond_exact_zero_drift(0.05, 0.5, 30000.0)
    assert q.diagnostics["s"] == 3750.0
    assert abs(q.price - bond_perpetual(0.05, 0.5, 0.0).price) <= 1e-9


def test_exact_quadrature_reports_amplitude_form():
    # s = 3,750 is past the switch at s = 2,704, s = 2,600 before it
    assert bond_exact_zero_drift(0.05, 0.5, 30000.0).diagnostics["amplitude"] == "two_term"
    q = bond_exact_zero_drift(0.05, 0.5, 20800.0)
    assert (q.diagnostics["s"], q.diagnostics["amplitude"]) == (2600.0, "one_exp")


@pytest.mark.parametrize("r0, sigma, T", [(0.05, 0.3, 5.0), (0.1, 0.5, 10.0), (0.05, 0.5, 30000.0),
                                           (1.23e-5, 0.00121, 0.00785), (0.05, 0.5, 200.0)])
def test_exact_quadrature_numpy_scalars_give_the_float_price(r0, sigma, T):
    # numpy scalars are taken as Python floats: the same price and diagnostics
    # bit for bit, and every float in them a Python float
    ref = bond_exact_zero_drift(r0, sigma, T)
    q = bond_exact_zero_drift(np.float64(r0), np.float64(sigma), np.float64(T), np.float64(1e-9))
    assert repr(q) == repr(ref)
    d = q.diagnostics
    assert all(type(v) is float for v in (q.price, q.yield_equiv, d["y"], d["s"], d["error_estimate"],
                                          d["height"], d["x_max"], d["yield_error_estimate"]))


def _imaginary_axis_rounding(s, t):
    """Bound on |Re q(it) - 2*cos(t)| for the computed q at s = sigma^2*T/2.

    With tau = t/sqrt(s) and c = sqrt(s)/2 the one-exponent form is
    e^(tau^2 - c^2)*(erfcx(-c + i*tau) + erfcx(c + i*tau)), and
    erfcx(-c + i*tau) = 2*e^((c - i*tau)^2) - erfcx(c - i*tau), so
    q(it) = 2*e^(-it) + e^(tau^2 - c^2)*(erfcx(c + i*tau) - erfcx(c - i*tau))
    with |erfcx| <= 1 on Re >= 0: terms of size at most 2 + E and E,
    E = e^(tau^2 - c^2).  Each carries the rounding of an exponential whose
    argument has size up to c^2 + tau^2, a few ulps of that size, so the
    bound is 8u*(1 + c^2 + tau^2)*(2 + 2E) with u = 2^-53 (a sweep of over a
    million (s, t) points met it with 2.5u in place of 8u).  The two-term
    form's terms are at most 2 and E.
    """
    c2, tau2 = 0.25 * s, t * t / s
    return 8.0 * 2.0 ** -53 * (1.0 + c2 + tau2) * (2.0 + 2.0 * math.exp(tau2 - c2))


@settings(max_examples=300, deadline=None)
@given(s=st.one_of(st.floats(1e-9, 2704.0), st.floats(2704.0, 4000.0)),
       t_frac=st.floats(0.0, 1.0))
def test_exact_amplitude_real_part_on_imaginary_axis(s, t_frac):
    # q(z) = 2*e^(-z) + g(z) with g odd and real on the real axis, so g(it) is
    # imaginary and Re q(it) = 2*cos(t), the identity behind _imaginary_leg.
    # t stays where e^(t^2/s - s/4) <= e^50 is finite; the bond's height keeps
    # t^2/s below min(r0*T, 400/(r0*T)) <= 20
    t = t_frac * min(0.5 * math.pi, math.sqrt(s * (50.0 + 0.25 * s)))
    q = complex(_amplitude(s)(np.array([1j * t]))[0])
    assert abs(q.real - 2.0 * math.cos(t)) <= _imaginary_axis_rounding(s, t)


def _leg_points(n):
    """(y, s) drawn log-uniformly from y in [1e-8, 1e5] and s in [1e-9, 4000], after
    three fixed points: the height at its 20/sqrt(y) cap, the cap with the two-term
    amplitude, and the two-term amplitude of (r0, sigma, T) = (0.05, 0.5, 30000)."""
    rng = np.random.default_rng(18)
    draws = 10.0 ** rng.uniform((-8.0, -9.0), (5.0, math.log10(4000.0)), (n, 2))
    return [(800.0, 0.0375), (1000.0, 3000.0), (0.4, 3750.0)] + [tuple(p) for p in draws]


@pytest.mark.parametrize("y, s", _leg_points(60))
def test_imaginary_leg_matches_numeric_leg(y, s):
    # the closed-form first leg against the G15/K31 panel that integrated it,
    # refined to tol 1e-14 (a quarter of _contour_sum's tol), at the bond's height h; they differ by at most that
    # tol plus h times the rounding of Re q(it) (|e^(-f*sin t)| <= 1 on the leg)
    f = 2.0 * math.sqrt(y)
    h = min(math.atan(math.sqrt(y) * s), 20.0 / math.sqrt(y))
    F = _exact_integrand(s, f)[1]
    numeric, _, depth_cap_hits, _ = _contour_sum(F, 4e-14, 0j, 1j * h)
    assert depth_cap_hits == 0
    bound = 1e-14 + h * _imaginary_axis_rounding(s, h)
    assert abs(_imaginary_leg(f, h) - numeric) <= bound


def test_import_leaves_numpy_polynomial_unloaded():
    # recent numpy loads numpy.polynomial on first use, older numpy with numpy
    # itself; either way importing gbmlap must not load it
    code = ("import sys, numpy; print('numpy.polynomial' in sys.modules); "
            "import gbmlap; print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    with_numpy, with_gbmlap = out.stdout.split()
    assert with_gbmlap == with_numpy


def test_exact_quadrature_reproduces_published_prices():
    # published zero-drift benchmark rows at r0 = 0.1
    for (T, sigma, b_pub, _, _) in reference.TABLE1_ROWS:
        q = bond_exact_zero_drift(0.1, sigma, T)
        assert abs(q.price - b_pub) <= 2e-6, (T, sigma, q.price)
        assert abs(q.yield_equiv + math.log(q.price) / T) < 1e-15


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 4.0, 5.0, 10.0, 2.0 * math.sqrt(20.0)])
def test_sine_sinh_bessel_identity(a):
    # int_0^inf e^(-z) sin(a sinh z) dz = 1/a - K_1(a) on the exact bond's
    # contour, with the horizontal leg integrated and the imaginary one closed
    val, depth_cap_hits = _sine_sinh_integral(a, 1e-12)
    assert abs(val - (1.0 / a - bessel_k(1.0, a))) < 1e-11
    assert depth_cap_hits == 0


@pytest.mark.parametrize("integrand", [
    lambda z: np.full_like(z, np.nan),
    lambda z: np.where(z.real > 2.0, np.inf, np.exp(1j * np.sinh(z) - z)),
], ids=["nan", "inf-past-z2"])
def test_quadrature_non_finite_integrand_raises(integrand):
    # refining a NaN panel would recurse to the depth cap
    h = 0.5 * math.pi
    with pytest.raises(DomainError, match="integrand is not finite"):
        _contour_sum(integrand, 1e-9, 1j * h, 4.0 + 1j * h)


def _with_value_at(F, value, node, calls):
    """F with `value` at `node` (to 1e-12 relative), recording each call's node count."""
    def G(z):
        calls.append(len(z))
        v = F(z)
        v[np.abs(z - node) <= 1e-12 * abs(node)] = value
        return v
    return G


def _sine_sinh(z):
    return np.exp(1j * np.sinh(z) - z)


# a panel's first node, Kronrod-only (its G15 weight is 0), as a fraction of the panel
_FIRST_NODE = 0.5 * (1.0 + _K31_NODES[0])


@pytest.mark.parametrize("value, F, lo, hi, at, n_calls", [
    (complex(math.nan, 0.0), _sine_sinh, 0.5j * math.pi, 4.0 + 0.5j * math.pi, _FIRST_NODE, [31]),
    (complex(1.0, math.inf), _sine_sinh, 0.5j * math.pi, 4.0 + 0.5j * math.pi, _FIRST_NODE, [31]),
    (complex(math.nan, 0.0), lambda z: np.exp(8j * z), 0j, 6.0 + 0j, 0.5 * _FIRST_NODE, [31, 62]),
], ids=["nan-kronrod-only", "inf-imaginary-part", "nan-in-halves"])
def test_quadrature_non_finite_node_raises_without_warning(value, F, lo, hi, at, n_calls):
    # one bad value at a Kronrod-only node, in the imaginary part only, or at
    # the left half's first node, which only the bisected halves' call has
    # (e^(8i*z) on [0, 6] is bisected): the values are checked before any
    # product with them could warn
    calls = []
    G = _with_value_at(F, value, lo + (hi - lo) * at, calls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="integrand is not finite"):
            _contour_sum(G, 1e-9, lo, hi)
    assert calls == n_calls


# (r0, sigma, T, n_lobes, n_panels, depth_cap_hits, summation, price) for the
# table-1 rows, the long rungs r0 = 0.05, sigma = 0.5 and two short rungs
# whose first lobe was refined, as the lobe-by-lobe quadrature that the
# contour replaced reported them at quad_tol 1e-9.  The contour has no lobes;
# the rows stay as the record of that path, whose prices are up to 8.7e-12
# from the reference prices below
_FROZEN_EXACT = [
    (0.1, 0.1, 1.0, 4, 4, 0, 'raw', 0.9048525304910453),
    (0.1, 0.2, 1.0, 4, 4, 0, 'raw', 0.9048982515770948),
    (0.1, 0.3, 1.0, 4, 4, 0, 'raw', 0.9049757454015469),
    (0.1, 0.4, 1.0, 4, 4, 0, 'raw', 0.9050869943844972),
    (0.1, 0.5, 1.0, 5, 5, 0, 'raw', 0.905234858862742),
    (0.1, 0.1, 5.0, 5, 5, 0, 'raw', 0.6077986305533828),
    (0.1, 0.2, 5.0, 6, 6, 0, 'raw', 0.6116495114295366),
    (0.1, 0.3, 5.0, 6, 6, 0, 'extrapolated', 0.6181825829118561),
    (0.1, 0.4, 5.0, 7, 7, 0, 'extrapolated', 0.6274311320461552),
    (0.1, 0.5, 5.0, 8, 8, 0, 'extrapolated', 0.6392300524552004),
    (0.1, 0.1, 10.0, 6, 6, 0, 'raw', 0.37396788752498467),
    (0.1, 0.2, 10.0, 6, 6, 0, 'extrapolated', 0.3916458258559137),
    (0.1, 0.3, 10.0, 8, 8, 0, 'extrapolated', 0.41891971551476914),
    (0.1, 0.4, 10.0, 10, 10, 0, 'extrapolated', 0.4527079411012508),
    (0.1, 0.5, 10.0, 11, 11, 0, 'extrapolated', 0.48996101764442723),
    (0.05, 0.5, 50.0, 14, 14, 0, 'extrapolated', 0.507782878115338),
    (0.05, 0.5, 55.0, 14, 14, 0, 'extrapolated', 0.5052838325833616),
    (0.05, 0.5, 60.0, 14, 14, 0, 'extrapolated', 0.50342277407042),
    (0.05, 0.5, 65.0, 14, 14, 0, 'extrapolated', 0.5020210367940354),
    (0.05, 0.5, 70.0, 14, 14, 0, 'extrapolated', 0.5009550109355679),
    (0.05, 0.5, 80.0, 14, 14, 0, 'extrapolated', 0.49950605786369673),
    (0.05, 0.5, 90.0, 14, 14, 0, 'extrapolated', 0.4986314463330118),
    (0.05, 0.5, 100.0, 14, 14, 0, 'extrapolated', 0.4980920168031967),
    (0.05, 0.5, 125.0, 14, 14, 0, 'extrapolated', 0.4974612432824018),
    (0.05, 0.5, 150.0, 14, 14, 0, 'extrapolated', 0.4972500001661242),
    (0.05, 0.5, 200.0, 14, 14, 0, 'extrapolated', 0.49714791567607364),
    (0.027, 0.75, 0.41, 4, 6, 0, 'raw', 0.9889959813063216),
    (0.118, 0.23, 0.44, 4, 6, 0, 'raw', 0.9494147977784214),
]


# the same bonds' prices from a 30-digit mpmath integral on a contour of height
# 0.8*atan(sqrt(y)*s) (not the height the library uses), rounded to double; the
# lobe loop at quad_tol 1e-13 met them to 1.7e-15
_EXACT_REFERENCE = {
    (0.1, 0.1, 1.0): 0.9048525304910453,
    (0.1, 0.2, 1.0): 0.9048982515770948,
    (0.1, 0.3, 1.0): 0.9049757454015469,
    (0.1, 0.4, 1.0): 0.9050869943844971,
    (0.1, 0.5, 1.0): 0.9052348588627421,
    (0.1, 0.1, 5.0): 0.6077986305533827,
    (0.1, 0.2, 5.0): 0.6116495114295365,
    (0.1, 0.3, 5.0): 0.6181825829118556,
    (0.1, 0.4, 5.0): 0.6274311320462808,
    (0.1, 0.5, 5.0): 0.6392300524530344,
    (0.1, 0.1, 10.0): 0.37396788752498444,
    (0.1, 0.2, 10.0): 0.39164582585574675,
    (0.1, 0.3, 10.0): 0.41891971551085144,
    (0.1, 0.4, 10.0): 0.45270794109576185,
    (0.1, 0.5, 10.0): 0.4899610176531198,
    (0.05, 0.5, 50.0): 0.5077828781115374,
    (0.05, 0.5, 55.0): 0.5052838325791744,
    (0.05, 0.5, 60.0): 0.5034227740659044,
    (0.05, 0.5, 65.0): 0.502021036789242,
    (0.05, 0.5, 70.0): 0.5009550109305402,
    (0.05, 0.5, 80.0): 0.49950605785830465,
    (0.05, 0.5, 90.0): 0.49863144632736095,
    (0.05, 0.5, 100.0): 0.4980920167973617,
    (0.05, 0.5, 125.0): 0.49746124327630475,
    (0.05, 0.5, 150.0): 0.49725000015991316,
    (0.05, 0.5, 200.0): 0.49714791566979094,
    (0.027, 0.75, 0.41): 0.9889959813063216,
    (0.118, 0.23, 0.44): 0.9494147977784213,
}


@pytest.mark.parametrize("r0, sigma, T, n_lobes, n_panels, cap_hits, summation, price",
                         _FROZEN_EXACT)
def test_exact_quadrature_frozen_diagnostics(r0, sigma, T, n_lobes, n_panels, cap_hits,
                                             summation, price):
    ref = _EXACT_REFERENCE[(r0, sigma, T)]
    assert abs(price - ref) <= 1e-11  # the lobe loop's frozen price
    q = bond_exact_zero_drift(r0, sigma, T)
    assert abs(q.price - ref) <= q.diagnostics["error_estimate"]
    assert q.diagnostics["depth_cap_hits"] == cap_hits == 0
    assert abs(bond_exact_zero_drift(r0, sigma, T, quad_tol=1e-11).price - ref) <= 1e-12


@pytest.mark.parametrize("r0, sigma, T", [row[:3] for row in _FROZEN_EXACT])
def test_exact_quadrature_unrefined_sum_takes_one_call(r0, sigma, T):
    # the horizontal leg's panel is not refined: one call of 31 nodes (the
    # imaginary leg is in closed form)
    d = bond_exact_zero_drift(r0, sigma, T).diagnostics
    assert (d["n_calls"], d["n_panels"], d["n_lobes"]) == (1, 1, 1)


def test_exact_quadrature_bisected_panel():
    # the horizontal leg's panel is bisected once: its halves come from one
    # call of 62 nodes and both converge, three panels in two calls
    q = bond_exact_zero_drift(0.01, 0.8, 5.0)
    d = q.diagnostics
    assert (d["n_calls"], d["n_panels"], d["depth_cap_hits"]) == (2, 3, 0)
    assert abs(q.price - 0.9537919400283286) <= 2e-15 * 0.9537919400283286


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(r0=_log_uniform(-12.0, 3.0), sigma=_log_uniform(-6.0, 2.0), T=_log_uniform(-8.0, 8.0),
       quad_tol=_log_uniform(-13.0, -3.0))
def test_exact_quadrature_accepted_domain(r0, sigma, T, quad_tol):
    # every input either raises a library error or prices in (0, 1] with a
    # finite yield, and a thousand times tighter tolerance moves the price by at
    # most the coarse error estimate plus 2 ulp of 1
    quotes = []
    for tol in (quad_tol, 1e-3 * quad_tol):
        try:
            q = bond_exact_zero_drift(r0, sigma, T, tol)
        except GbmlapError:
            break
        assert 0.0 < q.price <= 1.0 and math.isfinite(q.yield_equiv), q
        quotes.append(q)
    if len(quotes) == 2:
        coarse, fine = quotes
        assert abs(fine.price - coarse.price) <= coarse.diagnostics["error_estimate"] + 4.4e-16


@settings(max_examples=300, deadline=None)
@given(s=st.one_of(st.floats(1e-9, 2704.0), st.floats(2704.0, 4000.0)),
       h_frac=st.floats(0.0, 1.0), dx=st.floats(0.0, 1.0))
def test_exact_amplitude_below_gaussian_tail_bound(s, h_frac, dx):
    # the bound that ends the horizontal leg at height h (see _exact_cutoff):
    # |q(x + ih)| <= 2*e^(-x) + 2*e^((h^2 - x^2)/s - s/4) before x = s/2 and
    # 2*e^((h^2 - x^2)/s - s/4) past it, at h = 0 the real-axis Gaussian tail
    # bound; h stays where e^(h^2/s) <= e^50 is finite.  Far out the computed q
    # passes through subnormal floats, hence the absolute slack
    h = h_frac * min(0.5 * math.pi, math.sqrt(50.0 * s))
    x = dx * (s + 40.0 * math.sqrt(s) + 40.0)
    q = abs(complex(_amplitude(s)(np.array([complex(x, h)]))[0]))
    bound = 2.0 * math.exp((h * h - x * x) / s - 0.25 * s)
    if x < 0.5 * s:
        bound += 2.0 * math.exp(-x)
    assert q <= bound * (1.0 + 1e-12) + 1e-150


@settings(max_examples=200, deadline=None)
@given(s=st.floats(1e-9, 4000.0), freq=st.floats(1e-3, 50.0), h_frac=st.floats(0.0, 1.0),
       tol_exp=st.integers(4, 15))
def test_exact_cutoff_is_first_x_below_the_bound(s, freq, h_frac, tol_exp):
    # x_max is where the integrand's bound first drops below tol/8 (within the
    # Newton stop of 1e-6 relative)
    h = h_frac * math.atan(0.5 * freq * s)
    tol = 10.0 ** -tol_exp

    def log_bound(x):
        gauss = (h * h - x * x) / s - 0.25 * s
        if x < 0.5 * s:
            gauss = math.log1p(math.exp(h * h / s)) - x
        return math.log(2.0) + gauss - freq * math.sin(h) * math.cosh(x)

    x_max = _exact_cutoff(s, freq, h, tol)
    assert log_bound(x_max) <= math.log(tol / 8.0) + 1e-9
    if x_max > 0.0:
        assert log_bound(x_max * (1.0 - 1e-5)) > math.log(tol / 8.0)


def test_exact_short_rung_evaluates_few_lobes():
    # the horizontal leg's one panel in one call; n_lobes counts the panels
    d = bond_exact_zero_drift(0.05, 0.5, 1.0).diagnostics
    assert (d["n_lobes"], d["n_panels"], d["n_calls"], d["depth_cap_hits"]) == (1, 1, 1, 0)
    assert 0.0 < d["height"] < 0.5 * math.pi and d["x_max"] > 0.0


def _third_order_bound(r0, sigma, T):
    """r0^3/6 times the Jensen bound on the third moment at a = 0: at most what the
    small-rate price, an upper bound on the true one, omits."""
    return r0 ** 3 / 6.0 * T * T * math.expm1(3.0 * sigma * sigma * T) / (3.0 * sigma * sigma)


def _small_s_points(n):
    """(r0, sigma, T) with s = sigma^2*T/2 in [1e-9, 1e-6], drawn log-uniformly from
    r0 in [1e-6, 0.1], sigma in [1e-3, 0.1] and T in [1e-3, 1], where the third-order
    bound is below a tenth of the exact price's error estimate at quad_tol 1e-9."""
    rng = np.random.default_rng(8)
    points = []
    while len(points) < n:
        r0, sigma, T = 10.0 ** rng.uniform((-6.0, -3.0, -3.0), (-1.0, -1.0, 0.0))
        if (1e-9 <= 0.5 * sigma * sigma * T <= 1e-6
                and _third_order_bound(r0, sigma, T) < 0.1e-9 * math.sqrt(2.0 * r0) / sigma):
            points.append((r0, sigma, T))
    return points


@pytest.mark.parametrize("r0, sigma, T", [(1.23e-5, 0.00121, 0.00785)] + _small_s_points(40))
def test_exact_quadrature_small_s_meets_small_rate(r0, sigma, T):
    # below s = 1e-6 the amplitude falls from 2 to 0 within a few sqrt(s) of
    # z = 0; the lobe loop's nodes missed it (it priced the first point at
    # 0.9999999999999999, 1 - B wrong by 100%)
    q = bond_exact_zero_drift(r0, sigma, T)
    err = q.diagnostics["error_estimate"]
    small = bond_small_rate(r0, sigma, 0.0, T).price
    assert small - _third_order_bound(r0, sigma, T) - err <= q.price <= small + err
    assert q.diagnostics["n_calls"] == 1


def test_exact_yield_error_estimate():
    q = bond_exact_zero_drift(0.1, 0.3, 5.0)
    d = q.diagnostics
    assert d["yield_error_estimate"] == d["error_estimate"] / (5.0 * q.price)
    # at small sigma the absolute estimate, 4.5e-7, is 45% of 1 - B, and the
    # yield's estimate says so
    q = bond_exact_zero_drift(0.001, 1e-4, 0.001)
    assert q.diagnostics["yield_error_estimate"] >= 0.4 * q.yield_equiv


@pytest.mark.parametrize("quad_tol", [0.0, -1e-9])
def test_exact_quadrature_rejects_bad_tolerance(quad_tol):
    with pytest.raises(DomainError, match="quad_tol must be > 0"):
        bond_exact_zero_drift(0.05, 0.3, 1.0, quad_tol)


@pytest.mark.parametrize("r0, sigma, T, name", [
    (1e300, 1e-5, 1.0, "y"),
    (0.1, 1e-160, 1.0, "y"),
    (0.05, 1e-308, 1.0, "y"),  # sigma^2 underflows to 0: once a ZeroDivisionError
    (1e-300, 1e300, 1.0, "y"),
    (0.1, 10.0, 1e307, "s"),
    (1e-310, 1e-160, 1e-10, "s"),
])
def test_exact_quadrature_rejects_degenerate_scaling(r0, sigma, T, name):
    # y = 2*r0/sigma^2 or s = sigma^2*T/2 overflows or underflows to 0
    with pytest.raises(DomainError, match=rf"^{name} = "):
        bond_exact_zero_drift(r0, sigma, T)


def test_exact_quadrature_long_maturity_extrapolated():
    q = bond_exact_zero_drift(0.05, 0.5, 200.0)
    assert q.diagnostics["n_lobes"] <= 64
    assert q.diagnostics["depth_cap_hits"] == 0
    assert q.diagnostics["n_panels"] >= q.diagnostics["n_lobes"]
    # the horizontal leg's one panel in one integrand call
    assert q.diagnostics["n_calls"] == q.diagnostics["n_panels"] == 1
    tight = bond_exact_zero_drift(0.05, 0.5, 200.0, quad_tol=1e-11)
    assert abs(tight.price - q.price) <= 1e-9


def test_exact_price_below_quadrature_resolution():
    # the true price is about e^-150 or far less, below the absolute error
    # estimate; at the last three, atan(sqrt(y)*s) would put the contour so high
    # that e^(-2*sqrt(y)*sin t) falls between the first leg's nodes, or q(ih)
    # overflows, and the price came out near 1
    for r0, sigma, T in [(5.0, 0.2, 30.0), (50.0, 0.001, 30000.0), (1e6, 0.001, 1.0),
                         (1.0, 1e-8, 30000.0)]:
        with pytest.raises(DomainError, match="absolute resolution"):
            bond_exact_zero_drift(r0, sigma, T)


def test_exact_quadrature_height_capped_at_large_y():
    # y = 2,500: atan(sqrt(y)*s) = 0.42 is above 20/sqrt(y) = 0.4; the price
    # meets the lobe loop's at quad_tol 1e-13 within its error estimate
    q = bond_exact_zero_drift(0.5, 0.02, 45.0, quad_tol=1e-13)
    assert q.diagnostics["height"] == 0.4
    assert abs(q.price - 6.338312097398102e-10) <= q.diagnostics["error_estimate"]


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
    # the (e^q*E(d) - E(q))/(q + d) form: E(q) at q = 800, and e^q*E(d) at q = d = 700;
    # and m2 itself, 2*T^2 at T = 1e200 (it returned inf)
    for a, sigma, T in [(8.0, 0.3, 100.0), (7.0, 0.0, 100.0), (0.0, 0.0, 1e200)]:
        with pytest.raises(DomainError):
            moment_m2(a, sigma, T)


# (a, sigma, T, m2) with |c*T| in {0, 1e-12, 1e-9, 1e-7, 9e-7}, c = a + sigma^2, both signs,
# and a*T from -50 to -1e-3 (a*T < c*T, as sigma^2 > 0): m2 from its divided difference
# 2*(f(a+c) - f(a))/c, f(u) = T*(e^(uT) - 1)/(uT), in 50-digit arithmetic (mpmath)
_M2_NEAR_C0 = [
    (-0.5000000000000001, 0.7071067811865476, 100.0, 7.9999999999999957646),
    (-0.5, 0.7071067811865546, 100.0, 8.000000000000159359),
    (-0.5, 0.7071067811865405, 100.0, 7.9999999999998403162),
    (-0.5, 0.7071067811936186, 100.0, 8.0000000001599997956),
    (-0.5, 0.7071067811794765, 100.0, 7.9999999998399998796),
    (-0.5, 0.7071067818936543, 100.0, 8.0000000159999994442),
    (-0.5, 0.7071067804794408, 100.0, 7.999999984000000311),
    (-0.5, 0.7071067875505086, 100.0, 8.0000001440000042012),
    (-0.5, 0.7071067748225864, 100.0, 7.999999856000001954),
    (-5.000000000000001, 2.23606797749979, 4.0, 0.079999996537261879444),
    (-5.0, 2.2360679774998453, 4.0, 0.07999999653726589413),
    (-5.0, 2.236067977499734, 4.0, 0.079999996537257918248),
    (-5.0, 2.2360679775556913, 4.0, 0.079999996541261906389),
    (-5.0, 2.236067977443888, 4.0, 0.079999996533261905989),
    (-5.0, 2.23606798308996, 4.0, 0.07999999693726175388),
    (-5.0, 2.2360679719096197, 4.0, 0.079999996137262095274),
    (-5.0, 2.2360680278113185, 4.0, 0.080000000137260429424),
    (-5.0, 2.2360679271882598, 4.0, 0.079999992937263724399),
    (-2.5000000000000004, 1.5811388300841898, 2.0, 0.3070631417617557877),
    (-2.5, 1.5811388300843479, 2.0, 0.30706314176181195282),
    (-2.5, 1.5811388300840314, 2.0, 0.30706314176169984245),
    (-2.5, 1.5811388302423035, 2.0, 0.3070631418177781586),
    (-2.5, 1.5811388299260758, 2.0, 0.3070631417057336367),
    (-2.5, 1.581138845895578, 2.0, 0.30706314736398309819),
    (-2.5, 1.5811388142728013, 2.0, 0.30706313615952894126),
    (-2.5, 1.581138972386678, 2.0, 0.30706319218180721139),
    (-2.5, 1.5811386877816886, 2.0, 0.3070630913417198777),
    (-1.0, 1.0, 1.0, 0.52848223531423071362),
    (-1.0, 1.0000000000005, 1.0, 0.52848223531439133069),
    (-1.0, 0.9999999999995, 1.0, 0.52848223531407009655),
    (-1.0, 1.0000000005, 1.0, 0.52848223547483352113),
    (-1.0, 0.9999999995, 1.0, 0.52848223515362790626),
    (-1.0, 1.0000000499999988, 1.0, 0.52848225137451052627),
    (-1.0, 0.9999999499999987, 1.0, 0.52848221925395167896),
    (-1.0, 1.000000449999899, 1.0, 0.52848237985677625091),
    (-1.0, 0.9999995499998988, 1.0, 0.52848209077174676777),
    (-0.6000000000000001, 0.7745966692414834, 0.5, 0.20520173952092651538),
    (-0.6, 0.7745966692427744, 0.5, 0.20520173952099318236),
    (-0.6, 0.7745966692401924, 0.5, 0.2052017395208598706),
    (-0.6, 0.7745966705324778, 0.5, 0.20520173958758380636),
    (-0.6, 0.7745966679504889, 0.5, 0.205201739454269241),
    (-0.6, 0.7745967983409174, 0.5, 0.20520174618665480309),
    (-0.6, 0.7745965401420277, 0.5, 0.20520173285519857117),
    (-0.6, 0.7745978311356159, 0.5, 0.20520179951249286955),
    (-0.6, 0.774595507345608, 0.5, 0.20520167952938675953),
    (-0.0001, 0.01, 10.0, 99.933358326668055314),
    (-0.0001, 0.010000000005, 10.0, 99.93335832670136366),
    (-0.0001, 0.009999999995, 10.0, 99.933358326634746968),
    (-0.0001, 0.01000000499999875, 10.0, 99.933358359976398654),
    (-0.0001, 0.00999999499999875, 10.0, 99.933358293359711993),
    (-0.0001, 0.010000499987500626, 10.0, 99.933361657502471641),
    (-0.0001, 0.009999499987499374, 10.0, 99.933354995833805519),
    (-0.0001, 0.010004498987955369, 10.0, 99.933388304183797418),
    (-0.0001, 0.009995498987044119, 10.0, 99.933328349165802413),
]


@pytest.mark.parametrize("a, sigma, T, ref", _M2_NEAR_C0)
def test_moment_m2_near_zero_c(a, sigma, T, ref):
    assert abs((a + sigma * sigma) * T) < 1e-6
    assert abs(moment_m2(a, sigma, T) - ref) <= 1e-13 * ref


# (a, sigma, T, m2) with |c*T| >= 1e-6, c = a + sigma^2, in each form of the divided
# difference: q = a*T large with d = c*T small (both signs), E's power series at
# |q| < 1 and |d| < 1, (e^q*E(d) - E(q))/(q + d) at |q| >= 1, and the plain difference
# at |q + d| <= |d|; m2 = 2*T^2*(E(q + d) - E(q))/d in 50-digit arithmetic (mpmath)
_M2_AWAY_FROM_C0 = [
    (-8.999999985, 3.0, 100.0, 0.024691358148148144223),
    (-8.9999999, 3.0, 100.0, 0.024691358847736641851),
    (-9.00000002, 3.0, 100.0, 0.024691357860082306381),
    (-0.75, 0.9486832980505138, 2.0, 1.7179981379231503043),
    (-4.0, 2.0976176963403033, 1.5, 0.13571430002275982292),
    (-2.0, 1.5, 0.5, 0.13729138901258801742),
    (2.0, 0.5, 3.0, 71884.075284005571515),
    (0.1, 0.2, 1.0, 1.1213658892768090596),
    (-0.3, 0.5, 2.0, 2.6253403826718488134),
    (-0.2499, 0.5, 1.0, 0.84805168339686353466),
    (-0.249997, 0.5, 1.0, 0.84797116719229385603),
    (-0.250003, 0.5, 1.0, 0.84796618710392065029),
    (0.9, 0.001, 1.0, 2.6301754558396555037),
    (-1.0, 1.224744871391589, 1.0, 0.61927248698470184318),
]


@pytest.mark.parametrize("a, sigma, T, ref", _M2_AWAY_FROM_C0)
def test_moment_m2_away_from_zero_c(a, sigma, T, ref):
    assert abs((a + sigma * sigma) * T) >= 1e-6
    assert abs(moment_m2(a, sigma, T) - ref) <= 1e-14 * ref


def test_small_rate_quote():
    assert bond_small_rate(0.0, 0.2, 0.0, 1.0).price == 1.0
    q2 = bond_small_rate(0.01, 0.2, 0.0, 1.0)
    qe = bond_exact_zero_drift(0.01, 0.2, 1.0, quad_tol=1e-11)
    assert abs(q2.price - qe.price) < 1e-4
    # the second-order truncation is an upper bound on the true price
    assert qe.price <= q2.price


def test_small_rate_divergent_series_is_domain_error():
    # r0^2*m2/2 > r0*m1: the truncated series priced these at 1.33e6 and 2.7e27
    for r0, sigma, a, T in [(0.05, 0.8, 0.0, 30.0), (1e-12, 0.01, 0.0, 1e6)]:
        with pytest.raises(DomainError, match="second-order term"):
            bond_small_rate(r0, sigma, a, T)
    assert bond_small_rate(0.0, 0.8, 0.0, 30.0).price == 1.0


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
    # T^4 past the float range raised OverflowError
    with pytest.raises(DomainError, match=r"T\^4 overflows at T=1e\+308"):
        bond_taylor_small_T(0.05, 0.3, 1e308)


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
    with pytest.raises(DomainError, match=r"nu = 2000\.99"):
        bond_perpetual(0.05, 0.1, -10.0)


def test_perpetual_in_log_space_at_large_nu():
    # Gamma(nu), y^(nu/2) and K_nu over- or underflow on their own at large
    # nu; their product does not.  nu = 251 at (50, 0.2, -5), where the
    # direct product raised "gamma_fn overflows"
    p = bond_perpetual(50.0, 0.2, -5.0).price
    assert abs(p - 5.494151065925739e-05) <= 1e-12 * p
    # nu = 141, y = 1e6: the price e^-1584 underflows to 0 (the direct
    # product raised a bare OverflowError from y^(nu/2))
    assert bond_perpetual(5000.0, 0.1, -0.7).price == 0.0
    # nu = 101, y = 2e-8: K_nu overflows even scaled (the direct product was NaN)
    with pytest.raises(DomainError, match=r"nu = 101\.0, y = 2e-08"):
        bond_perpetual(1e-8, 1.0, -50.0)
    # the log-space form equals the direct product where both are finite
    for r0, sigma, a in [(0.05, 0.5, 0.0), (0.05, 0.5, 0.1), (0.05, 0.5, -0.3),
                         (0.1, 0.3, 0.0), (0.01, 1.0, 0.2)]:
        y, nu = 2.0 * r0 / sigma ** 2, 1.0 - 2.0 * a / sigma ** 2
        direct = 2.0 / math.gamma(nu) * y ** (0.5 * nu) * bessel_k(nu, 2.0 * math.sqrt(y))
        assert abs(bond_perpetual(r0, sigma, a).price - direct) <= 1e-15 * direct


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


def test_table3_row_is_the_asymptotic_quote():
    sc = reference.TABLE3_SCENARIO
    for T, *_ in reference.TABLE3_ROWS:
        q = bond_asymptotic(sc["r0"], sc["sigma"], sc["a"], T)
        assert table3_row(T) == Table3Row(q.diagnostics["root"], q.yield_equiv, q.price)


def test_validation_errors():
    with pytest.raises(DomainError):
        bond_exact_zero_drift(0.0, 0.3, 1.0)
    with pytest.raises(DomainError):
        bond_asymptotic(-0.1, 0.3, 0.0, 1.0)
    with pytest.raises(DomainError):
        bond_asymptotic(0.1, 0.3, 0.0, 0.0)
    # b = sqrt(sigma^2*r0/2)*T overflows; rate_R rejects it
    with pytest.raises(DomainError, match="^b must be finite"):
        bond_asymptotic(1.0, 1e200, 0.0, 1.0)
