"""Special functions needed by the exact and perpetual bond formulas.

Thin wrappers over vetted platform implementations (libm erfc/tgamma,
cephes Bessel K) with explicit domain checks so callers get the library's
exception types instead of NaNs.  All functions are stateless.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

__all__ = ["erfc", "erfcx", "bessel_k", "gamma_fn", "norm_cdf"]

_SQRT2 = math.sqrt(2.0)


def erfc(x: float) -> float:
    """Complementary error function, 2/sqrt(pi) * int_x^inf exp(-t^2) dt."""
    if not math.isfinite(x):
        raise DomainError(f"erfc requires finite x, got {x!r}")
    return math.erfc(x)


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2)*erfc(x).

    Safe where erfc underflows and exp overflows separately; used to
    evaluate products of the form e^z * erfc(large).
    """
    if not math.isfinite(x):
        raise DomainError(f"erfcx requires finite x, got {x!r}")
    from scipy.special import erfcx as _erfcx  # loaded on first use, not with gbmlap

    return float(_erfcx(x))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x) for x > 0, nu >= 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"bessel_k requires x > 0, got {x!r}")
    if nu < 0.0 or not math.isfinite(nu):
        raise DomainError(f"bessel_k requires nu >= 0, got {nu!r} (use K_-nu = K_nu)")
    from scipy.special import kv  # loaded on first use, not with gbmlap

    return float(kv(nu, x))


def gamma_fn(x: float) -> float:
    """Gamma function; raises PoleError at the poles 0, -1, -2, ...

    Raises DomainError where the value overflows a float (x above about 171.6).
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires finite x, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma_fn has a pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma_fn overflows the float range at x = {x!r}") from None


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-x / _SQRT2)
