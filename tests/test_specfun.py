import math
import subprocess
import sys

import pytest
from scipy import integrate

from gbmlap._mathutil import _CUTOFF, cosh_sinhc
from gbmlap.errors import DomainError
from gbmlap.specfun import bessel_k, norm_cdf


def test_bessel_half_integer_closed_form():
    for x in (0.05, 0.5, 2.0, 10.0):
        ref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert abs(bessel_k(0.5, x) - ref) < 1e-12 * ref


def test_bessel_small_argument_pole():
    # K_1(x) ~ 1/x as x -> 0+
    for x in (1e-3, 1e-4):
        assert abs(x * bessel_k(1.0, x) - 1.0) < 1e-5


def test_bessel_k1_quadrature_oracle():
    # independent integral representation: K_nu(x) = int_0^inf e^(-x cosh t) cosh(nu t) dt
    ref, err = integrate.quad(lambda t: math.exp(-2.0 * math.cosh(t)) * math.cosh(t), 0.0, 20.0)
    assert err < 1e-9
    assert abs(bessel_k(1.0, 2.0) - ref) < 1e-10
    assert abs(bessel_k(1.0, 2.0) - 0.13986588181652242728) < 1e-14


def test_bessel_recurrence_grid():
    for nu in (0.5, 1.0, 1.7, 3.0):
        for x in (0.01, 0.1, 1.0, 5.0, 20.0):
            lhs = bessel_k(nu + 1.0, x)
            rhs = bessel_k(abs(nu - 1.0), x) + (2.0 * nu / x) * bessel_k(nu, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)
    with pytest.raises(DomainError):
        bessel_k(-0.5, 1.0)


def test_norm_cdf():
    assert norm_cdf(0.0) == 0.5
    for x in (-2.0, -0.3, 0.7, 3.0):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) < 1e-15
    assert abs(norm_cdf(1.0) - 0.8413447460685429) < 1e-15


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is imported on first use by bessel_k and the exact bond,
    # so the closed-form path never loads it
    code = "import sys, gbmlap; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cosh_sinhc_values_and_slopes():
    # C = cosh(sqrt(v)), S = sinh(sqrt(v))/sqrt(v) for v > 0, their cos/sin
    # continuation for v < 0, and a slope dS/dv that matches central
    # differences on both sides of the series cutoff; dC/dv = S/2 checks C
    cutoff = _CUTOFF * _CUTOFF  # the series' cutoff on |v|
    for mag in (0.5 * cutoff, 0.999 * cutoff, 1.001 * cutoff, 2.0 * cutoff, 1e-6, 0.1, 0.7, 3.0, 9.0):
        for v in (mag, -mag):
            c, s, d = cosh_sinhc(v)
            x = math.sqrt(abs(v))
            if v > 0.0:
                assert c == math.cosh(x) and s == math.sinh(x) / x
            else:
                assert c == math.cos(x) and s == math.sin(x) / x
            h = 1e-4 * max(mag, 0.01)
            (c_hi, s_hi, _), (c_lo, s_lo, _) = cosh_sinhc(v + h), cosh_sinhc(v - h)
            assert abs(d - (s_hi - s_lo) / (2.0 * h)) <= 1e-7 * max(1.0, abs(d))
            assert abs(0.5 * s - (c_hi - c_lo) / (2.0 * h)) <= 1e-7 * max(1.0, abs(s))
    assert cosh_sinhc(0.0) == (1.0, 1.0, 1.0 / 6.0)
    # the series below the cutoff and (C - S)/(2v) above it meet within the
    # direct form's cancellation there (about 6*eps/|v|)
    for v in (cutoff, -cutoff):
        below, above = cosh_sinhc(v * (1.0 - 1e-15))[2], cosh_sinhc(v)[2]
        assert abs(below - above) <= 1e-13 * abs(above)
