"""Small-argument-safe evaluation of ratios with removable singularities.

``cosh_sinhc`` gives cosh(x), sinh(x)/x and a slope as functions of
v = x^2, the variable of both rate functions' root equations; its slope
is a Taylor series near v = 0, so no 0/0 is formed.  e^x and (e^x - 1)/x
raise DomainError, naming x, where their value is not finite: where it
overflows, and at x = inf, where (e^x - 1)/x is inf/inf; the divided
difference of (e^x - 1)/x on (-2, 2) is summed as a power series.
``as_float`` takes each real argument of a public function into double
precision once; library calls go to private cores, which take checked
floats.  np.float64 passes through, as a subclass of float.

Each argument rule is stated here once, with one text per broken rule:
``finite_floats`` passes every argument through ``as_float`` and names
the first that is not finite ("x must be finite, got nan"),
``require_finite`` does the same for floats already converted, and
``require_positive`` and ``require_nonnegative`` name the first argument
that breaks their sign rule ("x must be > 0, got -1.0", "x must be >= 0,
got -1.0").
"""

import functools
import math
import numbers

from .errors import DomainError

_CUTOFF = 0.1  # sqrt(|v|) below which dS/dv is a Taylor series, not (C - S)/(2v)


def cosh_sinhc(v: float) -> tuple[float, float, float]:
    """C = cosh(sqrt(v)), S = sinh(sqrt(v))/sqrt(v) and dS/dv, for real v.

    For v < 0 these are cos(s) and sin(s)/s with s = sqrt(-v), so one
    analytic function of v covers a hyperbolic root delta (v = delta^2/4)
    and a trigonometric root xi (v = -xi^2).  The other slope is
    dC/dv = S/2, and dS/dv = (C - S)/(2v), which cancels as v -> 0: below
    |v| = 0.01 it is the series sum_k (k+1)*v^k/(2k+3)! to k = 4, which is
    exact in double precision there; above, the cancellation costs at most
    7e-14 relative.  cosh_sinhc(0) = (1, 1, 1/6).
    """
    if v < 0.0:
        x = math.sqrt(-v)
        c, s = math.cos(x), math.sin(x) / x
    elif v > 0.0:
        x = math.sqrt(v)
        c, s = math.cosh(x), math.sinh(x) / x
    else:
        return 1.0, 1.0, 1.0 / 6.0
    if x < _CUTOFF:
        return c, s, 1.0 / 6.0 + v * (1.0 / 60.0 + v * (1.0 / 1680.0 + v * (1.0 / 90720.0 + v / 7983360.0)))
    return c, s, (c - s) / (2.0 * v)


def _overflow_is_domain_error(fn):
    """Raise DomainError naming x where ``fn(x)`` (e^x or a ratio with it) is not finite."""
    @functools.wraps(fn)
    def guarded(x: float) -> float:
        try:
            value = fn(x)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"{fn.__name__} overflows double precision at exponent x = {x!r}")
        return value
    return guarded


@_overflow_is_domain_error
def exp(x: float) -> float:
    """e^x."""
    return math.exp(x)


@_overflow_is_domain_error
def expm1_over_x(x: float) -> float:
    """(e^x - 1)/x with value 1 at x = 0; accurate for all x via expm1."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


def expm1_over_x_dd(x: float, y: float) -> float:
    """Divided difference (E(y) - E(x))/(y - x) of E(x) = (e^x - 1)/x, for |x|, |y| < 2.

    Its series sum_{k>=1} h_{k-1}(x, y)/(k+1)!, with h_m(x, y) =
    sum_{j=0..m} x^j*y^(m-j), subtracts no two values of E, so it holds its
    accuracy as y -> x.  Term k is below k*2^(k-1)/(k+1)!, and 26 terms
    leave less than 1e-19 against a value of at least E'(-2) = 0.148.
    """
    total, h, xp, fact = 0.0, 1.0, 1.0, 2.0  # h_{k-1}(x, y), x^(k-1), (k+1)!
    for k in range(1, 27):
        total += h / fact
        xp *= x
        h = y * h + xp
        fact *= k + 2
    return total


def as_float(x: float) -> float:
    """x if it is a float (numpy's float64 is one), else float(x) for a real number.

    A float32 or an int is converted once, at the public entry, so that
    every step after it runs in double precision.  Raises DomainError for
    a value that is not a real number or is outside the float range (an int
    above 1.8e308).
    """
    if isinstance(x, float):
        return x
    if isinstance(x, numbers.Real):
        try:
            return float(x)
        except OverflowError:
            pass
    raise DomainError(f"expected a real number in the float range, got {type(x).__name__} {x!s:.40}")


def finite_floats(**values: float) -> tuple[float, ...]:
    """The arguments through ``as_float``, in order; DomainError names the first non-finite one."""
    floats = dict(zip(values, map(as_float, values.values())))
    require_finite(**floats)
    return tuple(floats.values())


def require_finite(**values: float) -> None:
    """Raise DomainError naming the first non-finite argument."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def require_positive(**values: float) -> None:
    """Raise DomainError naming the first argument that is not > 0."""
    for name, v in values.items():
        if not v > 0.0:
            raise DomainError(f"{name} must be > 0, got {v}")


def require_nonnegative(**values: float) -> None:
    """Raise DomainError naming the first argument that is not >= 0."""
    for name, v in values.items():
        if not v >= 0.0:
            raise DomainError(f"{name} must be >= 0, got {v}")
