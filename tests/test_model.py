import math

import pytest

from gbmlap.errors import DomainError
from gbmlap.model import ModelParams, ScaledParams, scale, t_max
from gbmlap.ratefn import convergence_radius


def test_scale_table_scenario():
    sc = scale(ModelParams(sigma=0.3, a=0.09, T=20.0, theta=0.06))
    assert abs(sc.b - 1.0392304845413263) < 1e-14
    assert abs(sc.zeta - 1.8) < 1e-14


def test_scale_zero_case():
    sc = scale(ModelParams(sigma=0.7, a=0.0, T=1.0, theta=0.0))
    assert sc == ScaledParams(b=0.0, zeta=0.0)


def test_scale_one_year():
    sc = scale(ModelParams(sigma=0.3, a=0.09, T=1.0, theta=0.06))
    assert abs(sc.b - 0.05196152422706632) < 1e-16
    assert abs(sc.zeta - 0.09) < 1e-16


def test_scale_round_trip():
    # theta = 2*b^2/(sigma^2*T^2) recovers b to machine precision
    eps = math.ulp(1.0)
    for (b, sigma, T) in [(0.7, 0.3, 5.0), (1.3, 0.45, 12.0), (0.05, 1.1, 0.7)]:
        theta = 2.0 * b * b / (sigma * sigma * T * T)
        got = scale(ModelParams(sigma=sigma, a=0.0, T=T, theta=theta)).b
        assert abs(got - b) <= 4.0 * eps * b


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(sigma=0.0, a=0.0, T=1.0, theta=0.1)
    with pytest.raises(DomainError):
        ModelParams(sigma=0.1, a=0.0, T=0.0, theta=0.1)
    with pytest.raises(DomainError):
        ModelParams(sigma=0.1, a=0.0, T=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        ModelParams(sigma=float("nan"), a=0.0, T=1.0, theta=0.1)


@pytest.mark.parametrize("b, zeta", [(-1.0, math.inf), (-1.0, 0.1), (math.inf, 0.0),
                                     (0.5, -math.inf)])
def test_scaled_params_validation(b, zeta):
    with pytest.raises(DomainError):
        ScaledParams(b, zeta)


def test_scale_overflow_is_domain_error():
    # b = sqrt(sigma^2*theta/2)*T overflows
    with pytest.raises(DomainError, match="^b must be finite"):
        scale(ModelParams(sigma=1e200, a=0.0, T=1e200, theta=1.0))


def test_t_max_explicit_threshold():
    assert abs(t_max(0.1, 0.3, 0.9) - 10.0) < 1e-12
    assert abs(t_max(0.05, 1.0, 0.9) - math.sqrt(0.9 / 0.05)) < 1e-12


def test_t_max_default_is_convergence_bound():
    _, rb = convergence_radius()
    thr = 2.0 * rb * rb
    assert abs(t_max(0.1, 0.3) - math.sqrt(thr / (0.09 * 0.1))) < 1e-12
    # the default threshold is the verified 2*R_b^2 = 0.8785, not the
    # sometimes-quoted 0.582
    assert abs(thr - 0.87845768) < 1e-7


def test_t_max_monotone():
    for sigma in (0.3, 0.5, 1.0):
        prev = math.inf
        for r0 in (0.02, 0.05, 0.1, 0.2):
            v = t_max(r0, sigma)
            assert v < prev
            prev = v
    for r0 in (0.05, 0.1):
        prev = math.inf
        for sigma in (0.2, 0.4, 0.8, 1.6):
            v = t_max(r0, sigma)
            assert v < prev
            prev = v


def test_t_max_past_the_float_range_is_inf():
    # sigma^2*r0 underflows to 0, where the division raised ZeroDivisionError
    assert t_max(5e-324, 0.3) == math.inf
    assert t_max(0.05, 1e-308) == math.inf
    assert t_max(1e-300, 1e-5) == math.inf  # a subnormal product overflows the ratio


def test_t_max_validation():
    with pytest.raises(DomainError):
        t_max(0.0, 0.3)
    with pytest.raises(DomainError):
        t_max(0.1, -0.3)
    with pytest.raises(DomainError):
        t_max(0.1, 0.3, threshold=0.0)


def test_frozen_dataclasses():
    p = ModelParams(sigma=0.3, a=0.0, T=1.0, theta=0.1)
    with pytest.raises(AttributeError):
        p.sigma = 0.4
