"""Asymptotics of the Laplace transform of the gBM time integral.

Closed-form large-deviations rate functions for E[exp(-theta*X_T)] with
X_T the time integral of a geometric Brownian motion, applied to
zero-coupon bond pricing when the short rate is a gBM and to
arithmetic-average Asian options, with exact-quadrature, Monte Carlo and
variational collocation oracles for cross-validation.
"""

__version__ = "0.1.0"

from .asian import (
    AsianInputs,
    OptionKind,
    OptionQuote,
    a_fwd,
    asian_price_approx,
    european_bs_price,
    ibs_solve_delta,
    ibs_solve_xi,
    otm_log_price_limit,
    rate_ibs,
    sigma_ln,
)
from .dothan import (
    BondMethod,
    BondQuote,
    bond_asymptotic,
    bond_exact_zero_drift,
    bond_perpetual,
    bond_small_rate,
    bond_taylor_small_T,
    moment_m1,
    moment_m2,
)
from .model import ModelParams, ScaledParams, scale, t_max
from .oracles import (
    MCEstimate,
    ShootingResult,
    ibs_variational,
    jb_variational,
    mc_asian_price,
    mc_laplace,
)
from .ratefn import (
    Branch,
    RateEval,
    boundary_value,
    convergence_radius,
    jb,
    rate_R,
    rate_R_largeb,
    rate_R_series,
    rate_R_zero_drift,
    solve_delta,
    solve_lambda,
    solve_xi,
)
from .rootfind import RootResult, solve_bracketed, solve_newton
from .specfun import bessel_k, norm_cdf

__all__ = [
    "__version__",
    # model
    "ModelParams", "ScaledParams", "scale", "t_max",
    # rootfind
    "RootResult", "solve_bracketed", "solve_newton",
    # specfun
    "bessel_k", "norm_cdf",
    # ratefn
    "Branch", "RateEval", "solve_delta", "solve_xi", "solve_lambda", "rate_R",
    "rate_R_zero_drift", "rate_R_series", "rate_R_largeb", "jb",
    "convergence_radius", "boundary_value",
    # asian
    "OptionKind", "AsianInputs", "OptionQuote", "ibs_solve_delta",
    "ibs_solve_xi", "rate_ibs", "a_fwd", "sigma_ln", "european_bs_price",
    "asian_price_approx", "otm_log_price_limit",
    # dothan
    "BondMethod", "BondQuote", "bond_asymptotic", "bond_exact_zero_drift",
    "moment_m1", "moment_m2", "bond_small_rate", "bond_taylor_small_T",
    "bond_perpetual",
    # oracles
    "MCEstimate", "ShootingResult", "mc_laplace", "mc_asian_price",
    "jb_variational", "ibs_variational",
]
