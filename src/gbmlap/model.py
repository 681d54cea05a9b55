"""Model parameters and the scalings into asymptotic coordinates.

The raw inputs are volatility sigma (per sqrt-year), drift a (per year),
maturity T (years) and theta (per year).  theta is the Laplace variable of
the transform E[exp(-theta * X_T)]; for zero-coupon bonds it is read as
the initial short rate r0, so bond-facing code passes r0 in this slot.

Two dimensionless coordinate systems are used downstream:

* (b, zeta) with b^2 = sigma^2*theta*T^2/2 and zeta = a*T - the scaling
  regime in which the rate-function asymptotics are exact;
* (y, s) with y = 2*r0/sigma^2 and s = sigma^2*T/2 - the variables of the
  exact zero-drift quadrature, formed in ``dothan.bond_exact_zero_drift``.

All types here are immutable values; every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._mathutil import as_float, require_finite
from .errors import DomainError

__all__ = ["ModelParams", "ScaledParams", "scale", "t_max"]


@dataclass(frozen=True)
class ModelParams:
    """Raw market/model inputs.

    sigma: volatility, > 0.
    a: drift, any real.
    T: maturity in years, > 0.
    theta: Laplace variable, >= 0 (initial short rate r0 in bond context).
    """

    sigma: float
    a: float
    T: float
    theta: float

    def __post_init__(self):
        for name in ("sigma", "a", "T", "theta"):
            object.__setattr__(self, name, as_float(getattr(self, name)))
        _check_params("theta", self.theta, self.sigma, self.a, self.T)


def _check_params(name: str, theta: float, sigma: float, a: float, T: float) -> None:
    """Raise DomainError unless all are finite, theta >= 0, sigma > 0, T > 0 (theta as ``name``)."""
    if (0.0 <= theta < math.inf and 0.0 < sigma < math.inf and 0.0 < T < math.inf
            and -math.inf < a < math.inf):
        return
    require_finite(**{name: theta}, sigma=sigma, a=a, T=T)
    if theta < 0.0:
        raise DomainError(f"{name} must be >= 0, got {theta}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    raise DomainError(f"T must be > 0, got {T}")


@dataclass(frozen=True)
class ScaledParams:
    """Asymptotic coordinates: b >= 0 dimensionless, zeta real, both finite."""

    b: float
    zeta: float

    def __post_init__(self):
        for name in ("b", "zeta"):
            object.__setattr__(self, name, as_float(getattr(self, name)))
        if not (0.0 <= self.b < math.inf and math.isfinite(self.zeta)):
            require_finite(b=self.b, zeta=self.zeta)
            raise DomainError(f"b must be >= 0, got {self.b}")


def _scaled(sigma: float, a: float, T: float, theta: float) -> tuple[float, float]:
    """(b, zeta) of inputs that ``ModelParams`` would accept (see ``scale``)."""
    return math.sqrt(0.5 * sigma * sigma * theta) * T, a * T


def scale(p: ModelParams) -> ScaledParams:
    """Map raw parameters to (b, zeta): b = sqrt(sigma^2*theta/2)*T, zeta = a*T.

    Raises DomainError when b or zeta overflows.
    """
    b, zeta = _scaled(p.sigma, p.a, p.T, p.theta)
    return ScaledParams(b=b, zeta=zeta)


def t_max(r0: float, sigma: float, threshold: float | None = None) -> float:
    """Largest maturity with sigma^2*r0*T^2 below ``threshold``.

    The default threshold is 2*R_b^2 computed from the series convergence
    radius R_b (the verified bound for the small-b series to converge),
    so T_max marks where the truncated series stops being usable.  A
    T_max past the float range, as where sigma^2*r0 underflows, is inf.
    """
    r0, sigma = as_float(r0), as_float(sigma)
    require_finite(r0=r0, sigma=sigma)
    if r0 <= 0.0:
        raise DomainError(f"r0 must be > 0, got {r0}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if threshold is None:
        from .ratefn import convergence_radius

        threshold = 2.0 * convergence_radius()[1] ** 2
    else:
        threshold = as_float(threshold)
        if not (threshold > 0.0):
            raise DomainError(f"threshold must be > 0, got {threshold}")
    v = sigma * sigma * r0
    return math.sqrt(threshold / v) if v > 0.0 else math.inf
