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
  order.  Paths are simulated in blocks of 1 MiB of draws (as many rows of
  n_steps as fit, at least one), each costing one cumulative sum and one
  exp per element: the mirror's integrand is exp(2*drift)/e^s, with a
  second exp, and a second block, only where that ratio could leave the
  range of normal floats.  A call's working memory is one block plus 8
  bytes per path, whatever n_paths and n_steps.

* Direct numerical solution of the two variational problems behind the
  rate functions: the Euler-Lagrange equation h'' = kappa * e^h with
  h(0) = 0 and natural condition h'(1) = zeta (kappa = 2*b^2 on the
  Laplace side; kappa = -mu with the multiplier mu adjusted so that
  int_0^1 e^h = x on the distribution side) is solved as one boundary-value
  problem by Chebyshev collocation and damped Newton (Trefethen, *Spectral
  Methods in MATLAB*, 2000, chapters 6, 7, 12 and 14).  mu is one more
  unknown and the constraint one more row, and both the constraint and the
  objective use Clenshaw-Curtis weights.  Each value comes from 2N + 1 = 65
  nodes and is checked against a solve on N + 1 = 33.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ._mathutil import exp, expm1_over_x, finite_floats, require_nonnegative, require_positive
from .asian import AsianInputs, OptionKind
from .errors import DomainError, ShootingFailed

__all__ = [
    "MCEstimate",
    "ShootingResult",
    "mc_laplace",
    "mc_asian_price",
    "jb_variational",
    "ibs_variational",
]

# bytes of draws per block: one core's share of L2 holds it
_BLOCK_BYTES = 1 << 20
_U64 = (1 << 64) - 1
# exp(x) is a finite, normal float64 for |x| below this (the smallest normal is e^-708.4)
_EXP_NORMAL = 708.0
# multiples of sigma*sqrt(T) that |sigma*W_t| on [0, T] exceeds with probability below 1e-300
_W_SPREAD = 40.0


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with standard error and full reproduction key.

    elapsed_s is the call's wall-clock time and paths_per_s is n_paths over
    it; both are 0 when the value is known without simulating, and neither
    takes part in comparisons, so equal keys give equal estimates.
    """

    mean: float
    stderr: float
    n_paths: int
    n_steps: int
    seed: int
    elapsed_s: float = field(default=0.0, compare=False)
    paths_per_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class ShootingResult:
    """Variational value with the solved trajectory's parameters.

    initial_slope is h'(0).  multiplier is 0 for the unconstrained
    (Laplace-side) problem.  ode_steps counts the collocation nodes of the
    returned trajectory.  bc_residual is the boundary-condition defect
    |h'(1) - zeta|, combined with the constraint defect |int e^h - x| for
    the constrained problem.  shots counts the Newton steps of all the
    collocation solves behind the value.  ode_steps and shots are 0 when the
    value is known without solving.
    """

    value: float
    initial_slope: float
    multiplier: float
    ode_steps: int
    bc_residual: float
    shots: int = 0


def _keyed_normals(seed: int):
    """Return ``fill(start, z)``, which fills row i of ``z`` with the N(0, 1) draws of path start+i.

    Each path draws from its own Philox substream keyed (seed, path), so a
    path's draws depend on neither the block size nor the other paths.  One
    bit generator serves every block of a call.
    """
    # the state setter converts Python ints to uint64 exactly, also above 2^63,
    # and reads them faster than numpy arrays; counter 0 and an empty buffer
    # start each path at the head of its substream
    key = [seed & _U64, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bg = np.random.Philox()  # its state is replaced before each path's draws
    normals = np.random.Generator(bg).standard_normal

    def fill(start: int, z: np.ndarray) -> np.ndarray:
        for i, row in enumerate(z):
            key[1] = (start + i) & _U64
            bg.state = state
            normals(out=row)
        return z

    return fill


def _trapezoid(f: np.ndarray, dt: float) -> np.ndarray:
    return dt * (0.5 * (1.0 + f[:, -1]) + f[:, :-1].sum(axis=1))


def _integrals(sigma: float, a: float, T: float, n_steps: int):
    """Return ``integrals(z)``: trapezoid samples of X_T from a block of draws, one path per row.

    ``integrals(z)`` returns ``(x, x_mirror)``, the paths and their
    antithetic mirrors (the same draws negated).  ``z`` is overwritten: one
    cumulative sum, the scale and drift, and one exp are done in place.  The
    mirror's integrand is exp(2*drift - s) where s = sigma*W + drift is the
    path's exponent, so it is taken as exp(2*drift)/e^s with no second exp,
    unless exp(2*drift) or e^s could leave the range of normal floats; that
    choice depends only on (sigma, a, T, n_steps), so it is made once per call.
    """
    dt = T / n_steps
    drift = (a - 0.5 * sigma * sigma) * dt * np.arange(1, n_steps + 1)
    scale = sigma * math.sqrt(dt)
    by_division = 2.0 * (np.abs(drift).max() + _W_SPREAD * abs(sigma) * math.sqrt(T)) < _EXP_NORMAL
    growth = np.exp(2.0 * drift) if by_division else None

    def integrals(z: np.ndarray):
        np.add.accumulate(z, axis=1, out=z)
        z *= scale
        if growth is None:
            mirror = np.subtract(drift, z)
            np.exp(mirror, out=mirror)
        z += drift
        np.exp(z, out=z)
        x = _trapezoid(z, dt)
        if growth is not None:
            mirror = np.divide(growth, z, out=z)
        return x, _trapezoid(mirror, dt)

    return integrals


def _check_counts(n_paths: int, n_steps: int, seed: int) -> tuple[int, int, int]:
    """n_paths, n_steps and seed as Python ints, numpy integers included.

    Raises DomainError for a value that is not an integer (64.0 is not), or
    a count below 2.
    """
    ints = []
    for name, v in (("n_paths", n_paths), ("n_steps", n_steps), ("seed", seed)):
        try:
            ints.append(operator.index(v))
        except TypeError:
            raise DomainError(f"{name} must be an integer, got {v!r}") from None
    n_paths, n_steps, seed = ints
    if n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {n_paths}")
    if n_steps < 2:
        raise DomainError(f"n_steps must be >= 2, got {n_steps}")
    return n_paths, n_steps, seed


def _mc_pair_means(payoff, sigma, a, T, n_paths, n_steps, seed):
    """Per-path payoff means over antithetic pairs; vectorized in blocks of _BLOCK_BYTES."""
    rows = max(1, _BLOCK_BYTES // (8 * n_steps))
    normals = _keyed_normals(seed)
    integrals = _integrals(sigma, a, T, n_steps)
    out = np.empty(n_paths)
    z = np.empty((min(rows, n_paths), n_steps))
    for start in range(0, n_paths, rows):
        count = min(rows, n_paths - start)
        x, mirror = integrals(normals(start, z[:count]))
        out[start:start + count] = (payoff(x) + payoff(mirror)) / 2
    return out


def _estimate(values: np.ndarray, n_steps: int, seed: int, started: float) -> MCEstimate:
    """Mean and standard error of ``values``, timed from ``started`` (a perf_counter reading).

    ``values`` is overwritten: the sample variance is taken in place, by the
    operations of numpy's ``std(ddof=1)`` in their order (sum/n, subtract,
    square, sum, divide by n - 1), so it gives the same bits with no second
    n-sized array.
    """
    n = values.size
    mean = values.sum() / n
    values -= mean
    np.multiply(values, values, out=values)
    stderr = math.sqrt(values.sum() / (n - 1)) / math.sqrt(n)
    elapsed = time.perf_counter() - started
    return MCEstimate(
        mean=float(mean),
        stderr=stderr,
        n_paths=n,
        n_steps=n_steps,
        seed=seed,
        elapsed_s=elapsed,
        paths_per_s=n / elapsed,
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
    started = time.perf_counter()
    theta, sigma, a, T = finite_floats(theta=theta, sigma=sigma, a=a, T=T)
    require_nonnegative(theta=theta, T=T)
    n_paths, n_steps, seed = _check_counts(n_paths, n_steps, seed)
    if theta == 0.0:
        return MCEstimate(1.0, 0.0, n_paths, n_steps, seed)
    vals = _mc_pair_means(lambda x: np.exp(-theta * x), sigma, a, T, n_paths, n_steps, seed)
    return _estimate(vals, n_steps, seed, started)


def mc_asian_price(inp: AsianInputs, n_paths: int, n_steps: int, seed: int) -> MCEstimate:
    """Monte Carlo price of an arithmetic-average option (antithetic pairs)."""
    started = time.perf_counter()
    n_paths, n_steps, seed = _check_counts(n_paths, n_steps, seed)
    a = inp.r - inp.q
    df = exp(-inp.r * inp.t)
    scale_ = inp.s0 / inp.t

    if inp.kind is OptionKind.CALL:
        payoff = lambda x: df * np.maximum(scale_ * x - inp.k, 0.0)
    else:
        payoff = lambda x: df * np.maximum(inp.k - scale_ * x, 0.0)
    vals = _mc_pair_means(payoff, inp.sigma, a, inp.t, n_paths, n_steps, seed)
    return _estimate(vals, n_steps, seed, started)


@dataclass(frozen=True)
class _Grid:
    """Chebyshev collocation on t in [0, 1] with n + 1 nodes, t[0] = 1 down to t[n] = 0.

    d is the differentiation matrix and w the Clenshaw-Curtis weights.  jac
    is the constant part of the collocation Jacobian in the unknowns z = (h
    at the nodes, mu): row 0 holds h'(1), rows 1..n-1 h'', row n h(0), and
    the last row and column are left for mu.
    """

    t: np.ndarray
    d: np.ndarray
    w: np.ndarray
    jac: np.ndarray


@cache
def _chebyshev(n: int) -> _Grid:
    """Grid of n + 1 Chebyshev points, mapped from x in [-1, 1] to t = (1 + x)/2.

    d is ``cheb`` of Trefethen, *Spectral Methods in MATLAB* (2000),
    chapter 6.  w is the interpolatory rule on the nodes (Clenshaw-Curtis,
    chapter 12): it integrates T_k(x) exactly, to 1/(1 - k^2) on [0, 1] for
    even k and to 0 for odd k.  Built on first use: the first BLAS and
    LAPACK calls of a process raise its resident memory by about 1 MB,
    which importing the module should not cost.
    """
    k = np.arange(n + 1)
    x = np.cos(np.pi * k / n)
    c = np.where(k % 2 == 0, 1.0, -1.0)
    c[[0, n]] *= 2.0
    d = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d *= 2.0
    moments = np.zeros(n + 1)
    moments[::2] = 1.0 / (1.0 - k[::2] ** 2)
    w = np.linalg.solve(np.cos(np.outer(k, k) * np.pi / n), moments)
    jac = np.zeros((n + 2, n + 2))
    jac[0, :-1] = d[0]
    jac[1:n, :-1] = (d @ d)[1:n]
    jac[n, n] = 1.0
    return _Grid(0.5 * (1.0 + x), d, w, jac)


# the oracles solve on 2N + 1 nodes and check the value against N + 1
_N = 32
_MAX_STEPS = 40
# relative disagreement of the two grids' values above which a solve is unresolved
_AGREE = 1e-8


def _newton(g: _Grid, zeta: float, z: np.ndarray, x: float | None) -> tuple[np.ndarray, int]:
    """Damped Newton solve of the collocation system in z = (h at the nodes, mu).

    Rows: h'' + mu*e^h = 0 at the interior nodes, h'(1) = zeta, h(0) = 0 and
    int e^h = x, or mu kept at its start when x is None.  A step whose
    residual (max norm) does not fall is halved, at most 10 times.  The solve
    ends with a step below 1e-9*max(1, |z_i|) in every unknown, which leaves
    an error of the order of its square.  Returns (z, Newton steps).
    """
    n = g.t.size - 1
    inner = np.arange(1, n)

    def system(z):
        h, mu = z[:-1], z[-1]
        e = np.exp(h)
        f = g.jac[:, :-1] @ h
        f[0] -= zeta
        f[inner] += mu * e[inner]
        jac = g.jac.copy()
        jac[inner, inner] += mu * e[inner]
        jac[inner, -1] = e[inner]
        if x is None:
            jac[-1, -1] = 1.0
        else:
            f[-1] = g.w @ e - x
            jac[-1, :-1] = g.w * e
        return f, jac, np.abs(f).max()

    # trial steps may overflow e^h; such a step has an infinite or NaN residual and is halved
    with np.errstate(over="ignore", invalid="ignore"):
        f, jac, r = system(z)
        for step in range(1, _MAX_STEPS + 1):
            dz = np.linalg.solve(jac, -f)
            if np.all(np.abs(dz) <= 1e-9 * np.maximum(1.0, np.abs(z))):
                return z + dz, step
            for halvings in range(11):
                trial = z + 0.5 ** halvings * dz
                f_t, jac_t, r_t = system(trial)
                if r_t < r:
                    break
            else:
                raise ShootingFailed(f"Newton step {step} does not lower the residual {r:.2e}")
            z, f, jac, r = trial, f_t, jac_t, r_t
    raise ShootingFailed(f"Newton did not converge in {_MAX_STEPS} steps (residual {r:.2e})")


def _solve(zeta: float, z0: np.ndarray, x: float | None, kappa: float = 0.0) -> ShootingResult:
    """Minimize kappa*int e^h + (1/2)*int (h' - zeta)^2, with int e^h = x if x is given.

    Solves on the fine grid from z0, then on the coarse grid from every
    other fine node, and raises ShootingFailed when the two values differ
    by more than _AGREE*max(1, |value|).  The result is the fine solve's.
    """
    def value(g, z):
        h = z[:-1]
        return float(kappa * (g.w @ np.exp(h)) + 0.5 * (g.w @ (g.d @ h - zeta) ** 2))

    fine, coarse = _chebyshev(2 * _N), _chebyshev(_N)
    z, steps = _newton(fine, zeta, z0, x)
    zc, coarse_steps = _newton(coarse, zeta, np.append(z[:-1:2], z[-1]), x)
    v, vc = value(fine, z), value(coarse, zc)
    if not abs(v - vc) <= _AGREE * max(1.0, abs(v)):
        raise ShootingFailed(f"{2 * _N + 1} and {_N + 1} nodes disagree: {v!r} against {vc!r}")
    h, d = z[:-1], fine.d
    defect = abs(d[0] @ h - zeta)
    if x is not None:
        defect = max(defect, abs(fine.w @ np.exp(h) - x))
    return ShootingResult(v, float(d[-1] @ h), 0.0 if x is None else float(z[-1]), h.size,
                          float(defect), steps + coarse_steps)


def jb_variational(b: float, zeta: float) -> ShootingResult:
    """Laplace-side rate by direct minimization.

    Minimizes 2*b^2*int e^h + (1/2)*int (h' - zeta)^2 over h(0) = 0 by
    solving h'' = 2*b^2*e^h with h'(1) = zeta by collocation, starting
    from h = zeta*t, and evaluating the objective on the collocation
    nodes.  Independent of the closed forms in ``ratefn``.
    """
    b, zeta = finite_floats(b=b, zeta=zeta)
    require_nonnegative(b=b)
    if b == 0.0:
        return ShootingResult(0.0, zeta, 0.0, 0, 0.0)
    kappa = 2.0 * b * b
    return _solve(zeta, np.append(zeta * _chebyshev(2 * _N).t, -kappa), None, kappa)


def ibs_variational(x: float, zeta: float) -> ShootingResult:
    """Distribution-side rate by constrained minimization.

    Minimizes (1/2)*int (h' - zeta)^2 subject to int_0^1 e^h = x,
    h(0) = 0.  The stationarity system h'' = -mu*e^h, h'(1) = zeta is
    solved by collocation together with the constraint, mu being one more
    unknown.  The start h = zeta*t + alpha*(t - t^2/2) keeps both boundary
    conditions and meets the constraint: alpha is Newton's root of the
    increasing convex log int e^h - log x, and integrating h'' once gives
    mu = (h'(0) - zeta)/x = alpha/x.  Independent of the closed forms in
    ``asian``.
    """
    x, zeta = finite_floats(x=x, zeta=zeta)
    require_positive(x=x)
    xstar = expm1_over_x(zeta)
    if abs(x - xstar) <= 1e-12 * max(1.0, xstar):
        return ShootingResult(0.0, zeta, 0.0, 0, 0.0)
    fine = _chebyshev(2 * _N)
    t, w = fine.t, fine.w
    q = t - 0.5 * t * t
    alpha = 0.0
    # a start that the nodes cannot resolve comes out NaN, and Newton then fails
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            e = np.exp(zeta * t + alpha * q)
            step = np.log(w @ e / x) * (w @ e) / (w @ (q * e))
            alpha -= step
            if not abs(step) > 1e-9 * max(1.0, abs(alpha)):
                break
        z0 = np.append(zeta * t + alpha * q, alpha / x)
    return _solve(zeta, z0, x)
