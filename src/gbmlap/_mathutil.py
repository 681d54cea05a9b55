"""Small-argument-safe evaluation of ratios with removable singularities.

Each helper switches to a short Taylor series below ``_CUTOFF`` so that
limits at zero are exact and no 0/0 is ever formed.  Above the cutoff the
direct formula is used; float64 keeps these forms accurate there.  The
(e^x - 1)/x family raises DomainError, naming x, where its value overflows.
"""

import functools
import math

from .errors import DomainError

_CUTOFF = 1e-4


def sinc(x: float) -> float:
    """sin(x)/x with sinc(0) = 1."""
    if abs(x) < _CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    return math.sin(x) / x


def sinhc(x: float) -> float:
    """sinh(x)/x with sinhc(0) = 1."""
    if abs(x) < _CUTOFF:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0
    return math.sinh(x) / x


def sinc_d(x: float) -> tuple[float, float]:
    """sinc(x) and its derivative (cos(x) - sinc(x))/x, with value (1, 0) at x = 0."""
    if abs(x) < _CUTOFF:
        x2 = x * x
        return (
            1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0,
            x * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0),
        )
    s = math.sin(x) / x
    return s, (math.cos(x) - s) / x


def sinhc_d(x: float) -> tuple[float, float]:
    """sinhc(x) and its derivative (cosh(x) - sinhc(x))/x, with value (1, 0) at x = 0."""
    if abs(x) < _CUTOFF:
        x2 = x * x
        return (
            1.0 + x2 / 6.0 + x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0,
            x * (1.0 / 3.0 + x2 / 30.0 + x2 * x2 / 840.0),
        )
    s = math.sinh(x) / x
    return s, (math.cosh(x) - s) / x


def tanhc(x: float) -> float:
    """tanh(x)/x with tanhc(0) = 1."""
    if abs(x) < _CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0 - 17.0 * x2 * x2 * x2 / 315.0
    return math.tanh(x) / x


def _overflow_is_domain_error(fn):
    """Raise DomainError naming x where ``fn(x)`` (e^x or a product with it) overflows."""
    @functools.wraps(fn)
    def guarded(x: float) -> float:
        try:
            value = fn(x)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise DomainError(f"{fn.__name__} overflows double precision at exponent x = {x!r}")
        return value
    return guarded


@_overflow_is_domain_error
def expm1_over_x(x: float) -> float:
    """(e^x - 1)/x with value 1 at x = 0; accurate for all x via expm1."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


@_overflow_is_domain_error
def expm1_over_x_d1(x: float) -> float:
    """First derivative of (e^x - 1)/x, i.e. ((x-1)e^x + 1)/x^2."""
    if abs(x) < 0.5:
        # sum_{k>=1} k x^(k-1)/(k+1)!
        total = 0.0
        fact = 2.0  # (k+1)!
        xp = 1.0  # x^(k-1)
        k = 1
        while True:
            term = k * xp / fact
            total += term
            if abs(term) < 1e-19:
                return total
            k += 1
            xp *= x
            fact *= k + 1
    return ((x - 1.0) * math.exp(x) + 1.0) / (x * x)


@_overflow_is_domain_error
def expm1_over_x_d2(x: float) -> float:
    """Second derivative of (e^x - 1)/x, i.e. ((x^2-2x+2)e^x - 2)/x^3."""
    if abs(x) < 0.5:
        total = 0.0
        fact = 6.0  # (k+1)! for k = 2 -> 3!
        xp = 1.0  # x^(k-2)
        k = 2
        while True:
            term = k * (k - 1) * xp / fact
            total += term
            if abs(term) < 1e-19:
                return total
            k += 1
            xp *= x
            fact *= k + 1
    return ((x * x - 2.0 * x + 2.0) * math.exp(x) - 2.0) / (x * x * x)


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first non-finite argument."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
