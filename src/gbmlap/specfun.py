"""Special functions: ``norm_cdf`` for the Black formula and ``bessel_k``,
the reference for validation and the tests.  Both raise DomainError rather
than return NaN; ``scipy.special`` is loaded on first use, not with gbmlap.
"""

from __future__ import annotations

import math

from ._mathutil import as_float
from .errors import DomainError

__all__ = ["bessel_k", "norm_cdf"]

_SQRT2 = math.sqrt(2.0)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x) for x > 0, nu >= 0."""
    nu, x = as_float(nu), as_float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"bessel_k requires x > 0, got {x!r}")
    if nu < 0.0 or not math.isfinite(nu):
        raise DomainError(f"bessel_k requires nu >= 0, got {nu!r} (use K_-nu = K_nu)")
    from scipy.special import kv  # loaded on first use, not with gbmlap

    return float(kv(nu, x))


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    x = as_float(x)
    if math.isnan(x):
        raise DomainError("norm_cdf requires x that is not NaN")
    return _norm_cdf(x)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)
