"""Special functions: ``norm_cdf`` for the Black formula and ``bessel_k``,
the reference for validation and the tests.  Both raise DomainError rather
than return NaN; ``scipy.special`` is loaded on first use, not with gbmlap.
"""

from __future__ import annotations

import math

from ._mathutil import as_float, finite_floats, require_nonnegative, require_positive
from .errors import DomainError

__all__ = ["bessel_k", "norm_cdf"]

_SQRT2 = math.sqrt(2.0)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x) for finite x > 0 and nu >= 0.

    For nu < 0 take K_-nu = K_nu.
    """
    nu, x = finite_floats(nu=nu, x=x)
    require_positive(x=x)
    require_nonnegative(nu=nu)
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
