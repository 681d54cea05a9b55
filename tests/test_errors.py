"""Every public entry point answers a NaN input with a named library error,
takes a float32 argument as the float of its value, and answers an extreme
argument with a value or a named library error; a quote converts each of its
arguments once."""

import dataclasses
import math
import sys

import numpy as np
import pytest

import gbmlap as g
from gbmlap._mathutil import as_float
from gbmlap.errors import DomainError, GbmlapError

_CALL = g.OptionKind.CALL

# entry point -> (callable, float arguments of a point it accepts)
_ENTRY_POINTS = {
    "ModelParams": (g.ModelParams, (0.3, 0.05, 2.0, 0.1)),
    "ScaledParams": (g.ScaledParams, (0.5, 0.1)),
    "t_max": (g.t_max, (0.05, 0.3, 1.0)),
    "solve_bracketed": (lambda *a: g.solve_bracketed(lambda x: x - 0.5, *a), (0.0, 1.0, 1e-14)),
    "solve_newton": (lambda *a: g.solve_newton(lambda x: (x - 0.5, 1.0), *a), (0.0, 1.0, 1e-14)),
    "bessel_k": (g.bessel_k, (1.0, 2.0)),
    "norm_cdf": (g.norm_cdf, (0.5,)),
    "solve_delta": (g.solve_delta, (0.2, 1.0)),
    "solve_xi": (g.solve_xi, (0.5, 0.1)),
    "solve_lambda": (g.solve_lambda, (0.5,)),
    "rate_R": (g.rate_R, (0.5, 0.9)),
    "rate_R_zero_drift": (g.rate_R_zero_drift, (0.5,)),
    "rate_R_series": (g.rate_R_series, (0.1,)),
    "rate_R_largeb": (g.rate_R_largeb, (5.0,)),
    "jb": (g.jb, (0.5, 0.9)),
    "boundary_value": (g.boundary_value, (0.5,)),
    "AsianInputs": (lambda *a: g.AsianInputs(*a, _CALL), (100.0, 110.0, 0.05, 0.0, 0.3, 1.0)),
    "ibs_solve_delta": (g.ibs_solve_delta, (1.5, 0.1)),
    "ibs_solve_xi": (g.ibs_solve_xi, (0.7, 0.1)),
    "rate_ibs": (g.rate_ibs, (1.2, 0.1)),
    "a_fwd": (g.a_fwd, (100.0, 0.05, 1.0)),
    "sigma_ln": (g.sigma_ln, (110.0, 100.0, 0.3, 0.05, 1.0)),
    "european_bs_price": (lambda *a: g.european_bs_price(*a, _CALL), (100.0, 110.0, 1.0, 0.3, 0.95)),
    "otm_log_price_limit": (lambda *a: g.otm_log_price_limit(*a, _CALL), (150.0, 100.0, 0.3, 0.05, 1.0)),
    "bond_asymptotic": (g.bond_asymptotic, (0.05, 0.3, 0.02, 10.0)),
    "bond_exact_zero_drift": (g.bond_exact_zero_drift, (0.05, 0.3, 1.0, 1e-9)),
    "moment_m1": (g.moment_m1, (0.05, 0.3, 1.0)),
    "moment_m2": (g.moment_m2, (0.05, 0.3, 1.0)),
    "bond_small_rate": (g.bond_small_rate, (0.01, 0.3, 0.02, 1.0)),
    "bond_taylor_small_T": (g.bond_taylor_small_T, (0.05, 0.3, 0.1)),
    "bond_perpetual": (g.bond_perpetual, (0.05, 0.3, 0.01)),
    "mc_laplace": (lambda *a: g.mc_laplace(*a, 50, 8, 1), (0.1, 0.3, 0.05, 1.0)),
    "jb_variational": (g.jb_variational, (0.5, 0.9)),
    "ibs_variational": (g.ibs_variational, (1.2, 0.1)),
}

_CASES = [(name, i) for name, (_, args) in _ENTRY_POINTS.items() for i in range(len(args))]


@pytest.mark.parametrize("name, i", _CASES, ids=[f"{name}-arg{i}" for name, i in _CASES])
def test_nan_argument_is_a_library_error(name, i):
    fn, args = _ENTRY_POINTS[name]
    fn(*args)  # the unchanged point is accepted
    with pytest.raises(GbmlapError):
        fn(*args[:i], math.nan, *args[i + 1:])


def _bits(result):
    """repr of a result, which tells a float's every bit and its type; a
    Monte Carlo estimate's timings are left out."""
    if isinstance(result, g.MCEstimate):
        result = dataclasses.replace(result, elapsed_s=0.0, paths_per_s=0.0)
    return repr(result)


@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_float32_arguments_give_the_float_result(name):
    # float32 arithmetic once leaked into the solves: rate_R and bond_asymptotic
    # raised MaxIterations (their 1e-15 width is below float32 resolution), and
    # rate_ibs, the bond prices and the Asian price came back as float32 values;
    # AsianInputs holds the Asian price's and mc_asian_price's floats
    fn, args = _ENTRY_POINTS[name]
    f32 = [np.float32(a) for a in args]
    assert _bits(fn(*f32)) == _bits(fn(*[float(a) for a in f32]))


@pytest.mark.parametrize("value", [10 ** 400, "0.5", 1j, None], ids=["int-past-range", "str", "complex", "None"])
def test_argument_that_is_not_a_float_is_a_library_error(value):
    # an int past the float range, a string, a complex number, None
    with pytest.raises(DomainError, match="expected a real number"):
        g.rate_R(value, 0.9)
    with pytest.raises(DomainError, match="expected a real number"):
        g.bond_exact_zero_drift(0.05, 0.3, value)



_EXTREMES = [math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 1e-308, 5e-324]
# mc_laplace's numpy arithmetic warns of overflow at 1e308 before it raises
_EXTREME_CASES = [case for case in _CASES if case[0] != "mc_laplace"]


@pytest.mark.parametrize("name, i", _EXTREME_CASES, ids=[f"{name}-arg{i}" for name, i in _EXTREME_CASES])
def test_extreme_argument_gives_a_value_or_a_library_error(name, i):
    # sigma_ln, european_bs_price, t_max, the exact bond and the short-maturity
    # expansion ended in a bare ValueError, ZeroDivisionError or OverflowError at
    # eleven of these points; whether a value returned is finite is not checked here
    fn, args = _ENTRY_POINTS[name]
    bare = []
    for value in _EXTREMES:
        try:
            fn(*args[:i], value, *args[i + 1:])
        except GbmlapError:
            pass
        except Exception as exc:  # any other exception is the failure
            bare.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert not bare, bare


def _as_float_calls(fn) -> int:
    """Calls of ``as_float`` made while ``fn()`` runs."""
    code, calls = as_float.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


def test_a_quote_converts_each_argument_once():
    # library calls go to private cores that take checked floats; when every public
    # function checked what the one above it had checked, these read 20, 9 and 5
    inp = g.AsianInputs(100.0, 110.0, 0.05, 0.0, 0.3, 1.0, _CALL)
    assert _as_float_calls(lambda: g.asian_price_approx(inp)) == 0
    assert _as_float_calls(lambda: g.bond_asymptotic(0.05, 0.3, 0.02, 10.0)) == 4
    assert _as_float_calls(lambda: g.rate_ibs(1.2, 0.1)) == 2


# the bond prices and ModelParams share one set of input rules, with one text per broken rule
_BOND_RULES = {
    "ModelParams": (lambda r0, sigma, a, T: g.ModelParams(sigma, a, T, r0), "theta"),
    "bond_asymptotic": (g.bond_asymptotic, "r0"),
    "bond_small_rate": (g.bond_small_rate, "r0"),
    "bond_taylor_small_T": (lambda r0, sigma, a, T: g.bond_taylor_small_T(r0, sigma, T), "r0"),
    "bond_exact_zero_drift": (lambda r0, sigma, a, T: g.bond_exact_zero_drift(r0, sigma, T), "r0"),
}
# (argument, bad value, message), "{}" standing for the rate's name
_BAD_INPUTS = [
    ("r0", -0.01, "{} must be >= 0, got -0.01"),
    ("sigma", 0.0, "sigma must be > 0, got 0.0"),
    ("sigma", -0.3, "sigma must be > 0, got -0.3"),
    ("T", 0.0, "T must be > 0, got 0.0"),
    ("T", -1.0, "T must be > 0, got -1.0"),
    ("r0", math.nan, "{} must be finite, got nan"),
    ("sigma", math.nan, "sigma must be finite, got nan"),
    ("a", math.nan, "a must be finite, got nan"),
    ("T", math.nan, "T must be finite, got nan"),
]
_RULE_CASES = [(name, *bad) for name in _BOND_RULES for bad in _BAD_INPUTS
               if bad[0] != "a" or name in ("ModelParams", "bond_asymptotic", "bond_small_rate")]


@pytest.mark.parametrize("name, arg, value, text", _RULE_CASES,
                         ids=[f"{c[0]}-{c[1]}={c[2]}" for c in _RULE_CASES])
def test_bond_input_rules_share_one_text(name, arg, value, text):
    fn, rate = _BOND_RULES[name]
    point = {"r0": 0.01, "sigma": 0.3, "a": 0.0, "T": 1.0}
    fn(**point)  # the unchanged point is accepted
    with pytest.raises(DomainError) as exc:
        fn(**{**point, arg: value})
    assert str(exc.value) == text.format(rate)
