"""Independent ground-truth generators.

Two families, deliberately sharing no code with the closed forms they
check:

* Monte Carlo of the gBM time integral X_T = int_0^T e^(sigma*W_s +
  (a - sigma^2/2)*s) ds with exact Gaussian marginals at the grid nodes
  and a trapezoid rule in time (O(n^-2) bias).  Paths come in antithetic
  pairs; path i draws from its own counter-based Philox substream keyed
  (seed, i) (Salmon et al., SC11), so the same seed gives the same bits:
  estimates are reproducible bit-for-bit for a given (seed, n_paths,
  n_steps), whatever the block size, and paths could be simulated in any
  order.  Paths are simulated in blocks of 2048 rows, each costing one
  cumulative sum and one exp per element: the mirror's integrand is
  exp(2*drift)/e^s, with a second exp only where that ratio could leave
  the range of normal floats.

* Direct numerical solution of the two variational problems behind the
  rate functions, by shooting on the Euler-Lagrange equation
  h'' = kappa * e^h with h(0) = 0 and natural condition h'(1) = zeta
  (kappa = 2*b^2 on the Laplace side; kappa = -mu with the multiplier mu
  adjusted so that int_0^1 e^h = x on the distribution side).  Each shot
  integrates the ODE with a scalar Dormand-Prince 5(4) loop (Dormand &
  Prince, 1980) whose tableau, initial step, step-size control (safety
  0.9, factor clamped to [0.2, 10]) and RMS error norm are those of
  scipy's RK45, so a shot takes the same steps as ``solve_ivp`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mathutil import expm1_over_x, require_finite
from .asian import AsianInputs, OptionKind
from .errors import DomainError, ShootingFailed
from .rootfind import solve_bracketed

__all__ = [
    "MCEstimate",
    "ShootingResult",
    "mc_laplace",
    "mc_asian_price",
    "jb_variational",
    "ibs_variational",
]

_BLOCK = 2048
_U64 = (1 << 64) - 1
# exp(x) is a finite, normal float64 for |x| below this (the smallest normal is e^-708.4)
_EXP_NORMAL = 708.0
# multiples of sigma*sqrt(T) that |sigma*W_t| on [0, T] exceeds with probability below 1e-300
_W_SPREAD = 40.0
# cap on h inside the ODE right-hand side; off-root shots blow up in finite
# time, capping keeps the integration finite with the correct sign of h'(1)
_H_CAP = 40.0

# Dormand-Prince 5(4) pair: stage rows of A (the nodes are not needed, the
# shooting ODE is autonomous), 5th-order weights B and error weights E
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with standard error and full reproduction key."""

    mean: float
    stderr: float
    n_paths: int
    n_steps: int
    seed: int


@dataclass(frozen=True)
class ShootingResult:
    """Variational value with the solved shooting parameters.

    multiplier is 0 for the unconstrained (Laplace-side) problem.
    ode_steps counts the points of the root slope's integration (accepted
    steps plus the start).  bc_residual is the boundary-condition defect
    |h'(1) - zeta|, combined with the constraint defect |int e^h - x| for
    the constrained problem.  shots counts the distinct ODE integrations
    (slopes tried) behind the value, 0 when it is known without shooting.
    """

    value: float
    initial_slope: float
    multiplier: float
    ode_steps: int
    bc_residual: float
    shots: int = 0


def _keyed_normals(seed: int, start: int, z: np.ndarray) -> np.ndarray:
    """Fill row i of ``z`` with the N(0, 1) draws of path start+i.

    Each path draws from its own Philox substream keyed (seed, path), so a
    path's draws depend on neither the block size nor the other paths.
    """
    # a uint64 array keeps every key exact; a list above 2^63 would pass through float64
    bg = np.random.Philox(key=np.array([seed & _U64, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    state = bg.state
    for i in range(z.shape[0]):
        state["state"]["key"][1] = (start + i) & _U64
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bg.state = state
        gen.standard_normal(out=z[i])
    return z


def _trapezoid(f: np.ndarray, dt: float) -> np.ndarray:
    return dt * (0.5 * (1.0 + f[:, -1]) + f[:, :-1].sum(axis=1))


def _integrals(z: np.ndarray, sigma: float, a: float, T: float):
    """Trapezoid samples of X_T from a block of draws, one path per row of ``z``.

    Returns ``(x, x_mirror)``, the paths and their antithetic mirrors (the
    same draws negated).  ``z`` is overwritten: one cumulative sum, the
    scale and drift, and one exp are done in place.  The mirror's integrand
    is exp(2*drift - s) where s = sigma*W + drift is the path's exponent, so
    it is taken as exp(2*drift)/e^s with no second exp, unless exp(2*drift)
    or e^s could leave the range of normal floats; that choice depends only
    on (sigma, a, T, n_steps), so every block of one call makes the same one.
    """
    n_steps = z.shape[1]
    dt = T / n_steps
    drift = (a - 0.5 * sigma * sigma) * dt * np.arange(1, n_steps + 1)
    np.add.accumulate(z, axis=1, out=z)
    z *= sigma * math.sqrt(dt)
    by_division = 2.0 * (np.abs(drift).max() + _W_SPREAD * abs(sigma) * math.sqrt(T)) < _EXP_NORMAL
    mirror = None if by_division else np.exp(drift - z)
    z += drift
    np.exp(z, out=z)
    x = _trapezoid(z, dt)
    if mirror is None:
        mirror = np.divide(np.exp(2.0 * drift), z, out=z)
    return x, _trapezoid(mirror, dt)


def _check_counts(n_paths: int, n_steps: int) -> None:
    if n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {n_paths}")
    if n_steps < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")


def _mc_pair_means(payoff, sigma, a, T, n_paths, n_steps, seed):
    """Per-path payoff means over antithetic pairs; vectorized in blocks."""
    out = np.empty(n_paths)
    z = np.empty((min(_BLOCK, n_paths), n_steps))
    for start in range(0, n_paths, _BLOCK):
        count = min(_BLOCK, n_paths - start)
        x, mirror = _integrals(_keyed_normals(seed, start, z[:count]), sigma, a, T)
        out[start:start + count] = (payoff(x) + payoff(mirror)) / 2
    return out


def _estimate(values: np.ndarray, n_steps: int, seed: int) -> MCEstimate:
    n = values.size
    return MCEstimate(
        mean=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(n)),
        n_paths=n,
        n_steps=n_steps,
        seed=seed,
    )


def mc_laplace(
    theta: float,
    sigma: float,
    a: float,
    T: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> MCEstimate:
    """Monte Carlo estimate of E[exp(-theta * X_T)].

    ``n_paths`` counts primary paths; each is averaged with its
    antithetic mirror (same draws negated), so the standard error is over
    n_paths independent pair means.  n_paths, n_steps >= 2, also at theta = 0.
    """
    require_finite(theta=theta, sigma=sigma, a=a, T=T)
    if theta < 0.0:
        raise DomainError(f"theta must be >= 0, got {theta}")
    if T < 0.0:
        raise DomainError(f"T must be >= 0, got {T}")
    _check_counts(n_paths, n_steps)
    if theta == 0.0:
        return MCEstimate(1.0, 0.0, n_paths, n_steps, seed)
    vals = _mc_pair_means(lambda x: np.exp(-theta * x), sigma, a, T, n_paths, n_steps, seed)
    return _estimate(vals, n_steps, seed)


def mc_asian_price(inp: AsianInputs, n_paths: int, n_steps: int, seed: int) -> MCEstimate:
    """Monte Carlo price of an arithmetic-average option (antithetic pairs)."""
    _check_counts(n_paths, n_steps)
    a = inp.r - inp.q
    df = math.exp(-inp.r * inp.t)
    scale_ = inp.s0 / inp.t

    if inp.kind is OptionKind.CALL:
        payoff = lambda x: df * np.maximum(scale_ * x - inp.k, 0.0)
    else:
        payoff = lambda x: df * np.maximum(inp.k - scale_ * x, 0.0)
    vals = _mc_pair_means(payoff, inp.sigma, a, inp.t, n_paths, n_steps, seed)
    return _estimate(vals, n_steps, seed)


def _rms(v, scale) -> float:
    return math.sqrt(sum((x / w) ** 2 for x, w in zip(v, scale)) / len(v))


def _dopri45(rhs, y: list, rtol: float, atol: float):
    """Integrate the autonomous system y' = rhs(y) over t in [0, 1].

    Adaptive Dormand-Prince 5(4) with local extrapolation.  The initial
    step (Hairer, Norsett & Wanner, Sec. II.4) and the step control copy
    scipy's RK45: error scale atol + rtol*max(|y_old|, |y_new|), RMS norm,
    factor 0.9*err^(-1/5) clamped to [0.2, 10] and never above 1 right
    after a rejection.  Returns (y(1), accepted steps + 1).
    """
    f = rhs(y)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else min(0.01 * d0 / d1, 1.0)
    f1 = rhs([v + h0 * g for v, g in zip(y, f)])
    d2 = _rms([g1 - g for g1, g in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, 1.0)
    t, points = 0.0, 1
    while t < 1.0:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ShootingFailed(f"ODE step size fell below {min_step:g} at t={t}")
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = h
            k = [f]
            for row in _DP_A:
                k.append(rhs([v + h * sum(a * kj for a, kj in zip(row, col))
                              for v, col in zip(y, zip(*k))]))
            y_new = [v + h * sum(w * kj for w, kj in zip(_DP_B, col)) for v, col in zip(y, zip(*k))]
            f_new = rhs(y_new)
            k.append(f_new)
            err = [h * sum(w * kj for w, kj in zip(_DP_E, col)) for col in zip(*k)]
            scale = [atol + max(abs(v), abs(w)) * rtol for v, w in zip(y, y_new)]
            err_norm = _rms(err, scale)
            if err_norm < 1.0:
                factor = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err_norm ** -0.2)
            rejected = True
        t, y, f = t_new, y_new, f_new
        points += 1
    return y, points


def _shoot(kappa: float, zeta: float, slope: float, ode_tol: float):
    """Integrate h'' = kappa*e^h from (0, slope) over [0, 1].

    Returns (h(1), h'(1), int e^h, int (h'-zeta)^2, n_points); the e^h in
    the right-hand side is capped so off-root blowups stay integrable.
    """

    def rhs(y):
        e = math.exp(min(y[0], _H_CAP))
        dh = y[1]
        return (dh, kappa * e, e, (dh - zeta) ** 2)

    y1, n_points = _dopri45(rhs, [0.0, slope, 0.0, 0.0], ode_tol, 0.01 * ode_tol)
    return (*y1, n_points)


def _shoot_slope(kappa, zeta: float, ode_tol: float, bracket):
    """Slope c with h'(1; c) = zeta on h'' = kappa(c)*e^h, its shot and the shot count.

    ``bracket(defect)`` probes c -> h'(1; c) - zeta and returns a sign-change
    interval.  Shots are kept by slope, so Brent reuses the bracket's probes
    and the root (always a slope Brent evaluated) is read from its own shot.
    """
    if not 0.0 < ode_tol < math.inf:
        raise DomainError(f"ode_tol must be positive and finite, got {ode_tol}")
    shots = {}

    def defect(c: float) -> float:
        if c not in shots:
            shots[c] = _shoot(kappa(c), zeta, c, ode_tol)
        return shots[c][1] - zeta

    slope = solve_bracketed(defect, *bracket(defect), tol=1e-12).root
    return slope, shots[slope], len(shots)


def jb_variational(b: float, zeta: float, ode_tol: float = 1e-10) -> ShootingResult:
    """Laplace-side rate by direct minimization via the shooting method.

    Minimizes 2*b^2*int e^h + (1/2)*int (h' - zeta)^2 over h(0) = 0 by
    solving h'' = 2*b^2*e^h with h'(1) = zeta and evaluating the
    objective along the trajectory.  Independent of the closed forms in
    ``ratefn``.
    """
    require_finite(b=b, zeta=zeta)
    if b < 0.0:
        raise DomainError(f"jb_variational requires b >= 0, got {b}")
    if b == 0.0:
        return ShootingResult(0.0, zeta, 0.0, 0, 0.0)
    kappa = 2.0 * b * b

    def bracket(defect):
        # h'(1) rises with c: the defect is kappa*int e^h > 0 at c = zeta and, by a
        # comparison argument, negative at c = zeta - kappa*(e^zeta - 1)/zeta.
        lo = max(zeta - kappa * expm1_over_x(zeta), -50.0)
        if defect(lo) > 0.0:
            raise ShootingFailed(f"slope root below -50 (kappa={kappa}, zeta={zeta})")
        return lo, zeta

    slope, shot, shots = _shoot_slope(lambda c: kappa, zeta, ode_tol, bracket)
    _, hp1, int_eh, int_kin, nsteps = shot
    return ShootingResult(
        value=kappa * int_eh + 0.5 * int_kin,
        initial_slope=slope,
        multiplier=0.0,
        ode_steps=nsteps,
        bc_residual=abs(hp1 - zeta),
        shots=shots,
    )


def ibs_variational(x: float, zeta: float, ode_tol: float = 1e-10) -> ShootingResult:
    """Distribution-side rate by constrained shooting.

    Minimizes (1/2)*int (h' - zeta)^2 subject to int_0^1 e^h = x,
    h(0) = 0.  The stationarity system is h'' = -mu*e^h with h'(1) = zeta,
    and integrating h'' once ties the unknowns together:
    c - zeta = mu * int e^h at any solution, so with mu set to
    (c - zeta)/x the single shooting parameter c enforces both the
    boundary condition and the constraint at once.  Near c = zeta the
    defect h'(1) - zeta behaves like (c - zeta)*(1 - x*/x), which fixes
    the bracketing direction.  Independent of the closed forms in
    ``asian``.
    """
    require_finite(x=x, zeta=zeta)
    if x <= 0.0:
        raise DomainError(f"ibs_variational requires x > 0, got {x}")
    xstar = expm1_over_x(zeta)
    if abs(x - xstar) <= 1e-12 * max(1.0, xstar):
        return ShootingResult(0.0, zeta, 0.0, 0, 0.0)

    def bracket(defect):
        sign = 1.0 if x > xstar else -1.0  # side of zeta on which the root lies
        lo = zeta + sign * 1e-6 * max(1.0, abs(zeta))
        glo = defect(lo)
        hi, step, ghi = lo, 0.5, glo
        while ghi > 0.0:
            hi += sign * step
            step *= 2.0
            if abs(hi) > 60.0:
                raise ShootingFailed(f"no slope bracket within |c| <= 60 for x={x}, zeta={zeta}")
            ghi = defect(hi)
        if glo < 0.0:
            raise ShootingFailed(f"no sign change from c={lo} for x={x}, zeta={zeta}")
        return (lo, hi) if lo <= hi else (hi, lo)

    slope, shot, shots = _shoot_slope(lambda c: -(c - zeta) / x, zeta, ode_tol, bracket)
    _, hp1, int_eh, int_kin, nsteps = shot
    return ShootingResult(
        value=0.5 * int_kin,
        initial_slope=slope,
        multiplier=(slope - zeta) / x,
        ode_steps=nsteps,
        bc_residual=max(abs(hp1 - zeta), abs(int_eh - x)),
        shots=shots,
    )
