import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from gbmlap import reference
from gbmlap.dothan import (
    _FIRST_BLOCK,
    _GL_NODES,
    _GL_WEIGHTS,
    _K31_NODES,
    _K31_WEIGHTS,
    _MAX_LOBES,
    _WYNN_MIN_LOBES,
    _WYNN_WINDOW,
    BondMethod,
    _exact_amplitude,
    _lobe_sum,
    _panel_sums,
    _refine,
    _tail_block,
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
    # coarse = G15 and fine = K31 on each panel, for a polynomial of degree 46
    # that G15 integrates wrongly and K31 exactly
    lo, hi = np.array([-1.0, -1.0, -0.5]), np.array([1.0, 0.0, 0.25])
    counts = [0, 0, 0]
    sums = _panel_sums(lambda z: z ** 46, lo, hi, counts)
    assert counts == [0, 0, 1]
    for (coarse, fine), a, b in zip(sums, lo, hi):
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


@pytest.mark.parametrize("s", [1e-4, 0.4, 25.0, 2600.0, 2900.0, 4000.0])
def test_exact_amplitude_matches_two_term_form(s):
    # s = 2600 takes the one-exponent form, 2900 and 4000 the two-term one,
    # whose erfcx(w - c) would overflow; z runs to just past the amplitude's
    # underflow, where (w - c)^2 or z reaches about 745
    c = 0.5 * math.sqrt(s)
    z = np.random.default_rng(int(s * 10)).uniform(0.0, min(math.sqrt(s) * (28.0 + c), 760.0), 200)
    new, old = _exact_amplitude(s)(z), _two_term_amplitude(z, s)
    assert np.isfinite(new).all()
    assert (np.abs(new - old) <= 1e-15 + 1e-13 * np.abs(old)).all()


def test_exact_quadrature_past_the_amplitude_switch_is_perpetual():
    # s = sigma^2*T/2 = 3,750 takes the two-term amplitude; at T = 30,000 the
    # price has converged to the perpetual one
    q = bond_exact_zero_drift(0.05, 0.5, 30000.0)
    assert q.diagnostics["s"] == 3750.0
    assert abs(q.price - bond_perpetual(0.05, 0.5, 0.0).price) <= 1e-9


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


def _recording(amplitude):
    seen = [0.0]

    def rec(z):
        seen[0] = max(seen[0], float(z.max()))
        return amplitude(z)

    return rec, seen


def test_quadrature_lobe_cap_when_extrapolation_never_settles():
    # lobes of the same size with random weights: the partial sums wander,
    # no epsilon diagonal settles and the raw sum must still hit the cap;
    # the last block of lobes is clipped to the cap, so no node lies past it
    freq = 3.0
    weights = np.random.default_rng(0).uniform(1.0, 2.0, 200)

    def amplitude(z):
        lobe = np.floor(freq * np.sinh(z) / math.pi).astype(int)
        return np.cosh(z) * weights[lobe]

    for max_lobes in (1, 5, 7, 13, 200):
        rec, seen = _recording(amplitude)
        with pytest.raises(QuadratureNotConverged):
            sin_sinh_quadrature(rec, freq, tol=1e-9, max_lobes=max_lobes)
        assert 0.0 < seen[0] <= math.asinh(max_lobes * math.pi / freq)


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
    for freq in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError, match="freq must be finite"):
            sin_sinh_quadrature(lambda z: np.exp(-z), freq)


@pytest.mark.parametrize("amplitude", [
    lambda z: np.full_like(z, np.nan),
    lambda z: np.where(z > 2.0, np.inf, np.exp(-z)),
], ids=["nan", "inf-past-z2"])
def test_quadrature_non_finite_integrand_raises(amplitude):
    # refining a NaN lobe would recurse to the depth cap on every lobe
    with pytest.raises(DomainError, match="integrand is not finite"):
        sin_sinh_quadrature(amplitude, 1.0)


# (r0, sigma, T, n_lobes, n_panels, depth_cap_hits, summation, price) for the
# table-1 rows, the long rungs r0 = 0.05, sigma = 0.5 and two short rungs
# whose first lobe is refined, frozen from the lobe-by-lobe quadrature that
# block evaluation replaced
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


@pytest.mark.parametrize("r0, sigma, T, n_lobes, n_panels, cap_hits, summation, price",
                         _FROZEN_EXACT)
def test_exact_quadrature_frozen_diagnostics(r0, sigma, T, n_lobes, n_panels, cap_hits,
                                             summation, price):
    q = bond_exact_zero_drift(r0, sigma, T)
    d = q.diagnostics
    assert (d["n_lobes"], d["n_panels"], d["depth_cap_hits"], d["summation"]) == (
        n_lobes, n_panels, cap_hits, summation)
    assert abs(q.price - price) <= 1e-14 * price


@pytest.mark.parametrize("r0, sigma, T", [row[:3] for row in _FROZEN_EXACT if row[3] == row[4]])
def test_exact_quadrature_unrefined_sum_takes_one_call(r0, sigma, T):
    # no lobe is refined and the sum stops inside the first block of 16
    assert bond_exact_zero_drift(r0, sigma, T).diagnostics["n_calls"] == 1


def _reference_wynn_diagonal(prev, s):
    """Wynn diagonal update as a function (the lobe loop now inlines it)."""
    new = [s]
    for j in range(min(len(prev), _WYNN_WINDOW - 1)):
        d = new[j] - prev[j]
        if d == 0.0 or not math.isfinite(d):
            break
        e = (prev[j - 1] if j else 0.0) + 1.0 / d
        if not math.isfinite(e):
            break
        new.append(e)
    return new


def _reference_quadrature(amplitude, freq, tol, max_lobes):
    """The lobe loop before it inlined the agreement test and the Wynn update:
    (value, n_lobes, n_panels, depth_cap_hits, summation).

    It keeps the current block schedule: the BLAS product in ``_panel_sums``
    may round a lobe's sums differently by one ulp when the lobe sits at
    another row of a differently sized block, so only the same schedule
    gives the same bits for every amplitude.
    """
    def g(z):
        return np.sin(freq * np.sinh(z)) * amplitude(z)

    counts = [0, 0, 0]
    total, streak, last = 0.0, 0, math.inf
    diag, prev1, prev2 = [], None, None
    k0, size = 0, _FIRST_BLOCK
    while k0 < max_lobes:
        k1 = min(k0 + size, max_lobes)
        edges = np.arcsinh(np.arange(k0, k1 + 1) * math.pi / freq)
        sums = _panel_sums(g, edges[:-1], edges[1:], counts)
        edges = edges.tolist()
        for i in range(k1 - k0):
            k = k0 + i
            lobe = _refine(g, edges[i], edges[i + 1], *sums[i], 0.01 * tol, 0, counts)
            total += lobe
            last = abs(lobe)
            streak = streak + 1 if last < tol else 0
            if streak >= 3:
                return total, k + 1, counts[0], counts[1], "raw"
            diag = _reference_wynn_diagonal(diag, total)
            est = diag[(len(diag) - 1) & ~1] if len(diag) >= 3 else None
            if est is not None and prev1 is not None and prev2 is not None:
                err = abs(est - prev1) + abs(est - prev2)
                if err < tol and k + 1 >= _WYNN_MIN_LOBES:
                    return est, k + 1, counts[0], counts[1], "extrapolated"
            prev1, prev2 = est, prev1
        k0, size = k1, 2 * size
    return "not converged"


@settings(max_examples=150, deadline=None)
@given(
    freq=st.floats(0.3, 10.0),
    ratio=st.floats(0.05, 1.0),
    noise=st.floats(0.0, 1.0),
    kink=st.floats(0.0, 3.0),
    tol_exp=st.integers(4, 13),
    max_lobes=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_matches_reference_lobe_loop(freq, ratio, noise, kink, tol_exp, max_lobes,
                                                seed):
    # lobe k contributes (-1)^k * 2*w_k/freq from the cosh(z) factor: w_k = ratio^k
    # gives an alternating geometric sum, noise > 0 random weights; the kink at
    # z = kink makes the lobe holding it refine
    w = ratio ** np.arange(max_lobes + 1) * (
        1.0 + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, max_lobes + 1))

    def amplitude(z):
        k = np.minimum(np.floor(freq * np.sinh(z) / math.pi).astype(int), max_lobes)
        return np.cosh(z) * w[k] * (1.0 + np.abs(z - kink))

    tol = 10.0 ** -tol_exp
    ref = _reference_quadrature(amplitude, freq, tol, max_lobes)
    try:
        q = sin_sinh_quadrature(amplitude, freq, tol=tol, max_lobes=max_lobes)
    except QuadratureNotConverged:
        assert ref == "not converged"
        return
    assert (q.value, q.n_lobes, q.n_panels, q.depth_cap_hits, q.summation) == ref


def test_quadrature_raw_stop_inside_first_block():
    # lobes 3 and 4 end the sum although the first block evaluates 16
    rec, seen = _recording(lambda z: 1e-12 * np.exp(-z))
    q = sin_sinh_quadrature(rec, 2.0, tol=1e-9)
    assert (q.summation, q.n_lobes, q.n_panels, q.n_calls) == ("raw", 3, 3, 1)
    assert seen[0] <= math.asinh(16 * math.pi / 2.0)
    z1 = math.asinh(math.pi / 2.0)  # only the first lobe is nonzero
    q = sin_sinh_quadrature(lambda z: (1.0 - np.minimum(z / z1, 1.0)) ** 4, 2.0, tol=1e-9)
    assert (q.summation, q.n_lobes, q.n_panels, q.n_calls) == ("raw", 4, 4, 1)
    assert abs(q.value - 0.09218727715968919) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(s=st.one_of(st.floats(1e-4, 2704.0), st.floats(2704.0, 4000.0)),
       dz=st.floats(0.0, 1.0))
def test_exact_amplitude_below_gaussian_tail_bound(s, dz):
    # erfc(x) <= e^(-x^2) for x >= 0 bounds both forms of q past z = s/2
    z = 0.5 * s + dz * (40.0 * math.sqrt(s) + 40.0)
    q = float(_exact_amplitude(s)(np.array([z]))[0])
    assert q <= 2.0 * math.exp(-z * z / s - 0.25 * s) * (1.0 + 1e-12)


def _ladder_rungs():
    # exact_ladder's short rungs (r0, sigma, T) in [0.01, 0.2] x [0.1, 0.8] x
    # [0.25, 10], the frozen rows, and a rung whose lobes are refined
    u = np.random.default_rng(20261019).uniform(size=(60, 3))
    short = [(0.01 + 0.19 * a, 0.1 + 0.7 * b, 0.25 + 9.75 * c) for a, b, c in u]
    return short + [row[:3] for row in _FROZEN_EXACT] + [(0.001, 1e-4, 0.001)]


@pytest.mark.parametrize("quad_tol", [1e-9, 1e-11])
def test_exact_tail_block_matches_a_first_block_of_16(quad_tol):
    sized = 0
    for r0, sigma, T in _ladder_rungs():
        q = bond_exact_zero_drift(r0, sigma, T, quad_tol)
        d = q.diagnostics
        freq = 2.0 * math.sqrt(d["y"])
        block = _tail_block(d["s"], freq, quad_tol)
        ref = _lobe_sum(_exact_amplitude(d["s"]), freq, quad_tol, _MAX_LOBES, _FIRST_BLOCK)
        # a BLAS product's rounding of a row may depend on the rows in the call,
        # so the sums may differ in the last bits (1.5 ulp of 1 at most when
        # every panel sum is moved by up to 2 ulp); the counts may not
        assert abs(q.price - (1.0 - math.sqrt(d["y"]) * ref.value)) <= 8 * math.ulp(1.0)
        assert (d["n_lobes"], d["n_panels"], d["summation"], d["depth_cap_hits"],
                d["n_calls"]) == (ref.n_lobes, ref.n_panels, ref.summation,
                                  ref.depth_cap_hits, ref.n_calls), (r0, sigma, T)
        if block < _FIRST_BLOCK:
            # the raw stop comes inside the sized block
            assert d["n_lobes"] <= block == d["n_lobes_evaluated"]
            sized += 1
        else:
            assert block == _FIRST_BLOCK
            assert d["n_lobes_evaluated"] == ref.n_lobes_evaluated
    assert sized >= 20


def test_exact_short_rung_evaluates_few_lobes():
    d = bond_exact_zero_drift(0.05, 0.5, 1.0).diagnostics
    assert (d["n_lobes"], d["n_calls"]) == (4, 1)
    assert d["n_lobes_evaluated"] <= 8
    # the public quadrature, which does not know the amplitude, evaluates 16
    q = sin_sinh_quadrature(_exact_amplitude(d["s"]), 2.0 * math.sqrt(d["y"]))
    assert (q.n_lobes, q.n_lobes_evaluated) == (4, _FIRST_BLOCK)


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
    assert q.diagnostics["summation"] == "extrapolated"
    assert q.diagnostics["depth_cap_hits"] == 0
    assert q.diagnostics["n_panels"] >= q.diagnostics["n_lobes"]
    # one integrand call per block of lobes: the first block of 16 covers the 14
    assert q.diagnostics["n_calls"] == 1 < q.diagnostics["n_lobes"]
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
