import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gbmlap
from gbmlap import oracles
from gbmlap.asian import AsianInputs, OptionKind, a_fwd
from gbmlap.dothan import moment_m1, moment_m2
from gbmlap.errors import DomainError, ShootingFailed
from gbmlap.oracles import (
    _estimate,
    _integrals,
    _keyed_normals,
    _mc_pair_means,
    ibs_variational,
    jb_variational,
    mc_asian_price,
    mc_laplace,
)
from gbmlap.asian import rate_ibs
from gbmlap.ratefn import jb


def _sample_integrals(sigma, a, T, n_steps, seed, n_paths=1):
    """Trapezoid samples of X_T of paths 0..n_paths-1 of ``seed``, one sign each."""
    z = _keyed_normals(seed)(0, np.empty((n_paths, n_steps)))
    return _integrals(sigma, a, T, n_steps)(z)[0]


def _rng(seed, path):
    # a uint64 array keeps keys above 2^63 exact
    key = np.array([seed % 2**64, path % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_keyed_normals_are_per_path_substreams():
    # row i of a block starting at path s holds the draws of Philox key
    # (seed, s + i), mod 2^64: from start 2^64 - 2 the path key wraps to 0
    for seed, start in [(2024, 5), (0, 0), (2**63, 11), (2**64 - 1, 2**64 - 2)]:
        z = _keyed_normals(seed)(start, np.empty((4, 17)))
        for i in range(4):
            assert np.array_equal(z[i], _rng(seed, start + i).standard_normal(17)), (seed, start, i)


def test_keyed_normals_carry_no_state_between_calls():
    # a call right after one with another seed and row length gives a fresh call's rows
    fresh = _keyed_normals(7)(3, np.empty((3, 9)))
    _keyed_normals(2**64 - 1)(40, np.empty((2, 5)))
    again = _keyed_normals(7)(3, np.empty((3, 9)))
    assert np.array_equal(again, fresh)
    # one generator fills the blocks of a call: an earlier block, of any start
    # or row length, leaves nothing behind
    fill = _keyed_normals(7)
    fill(40, np.empty((2, 5)))
    assert np.array_equal(fill(3, np.empty((3, 9))), fresh)


def test_sample_deterministic_path():
    # sigma = 0: the integral is (e^(aT) - 1)/a up to trapezoid error O(n^-2)
    x = _sample_integrals(0.0, 0.5, 2.0, 256, 7)[0]
    ref = math.expm1(1.0) / 0.5
    assert abs(x - ref) < 1e-4
    err_64 = abs(_sample_integrals(0.0, 0.5, 2.0, 64, 7)[0] - ref)
    err_128 = abs(_sample_integrals(0.0, 0.5, 2.0, 128, 7)[0] - ref)
    assert err_64 / err_128 > 3.0  # second-order bias
    with pytest.raises(DomainError):
        mc_laplace(0.1, 0.1, 0.0, 1.0, 2, 1, seed=7)


def test_sample_moments_match_m1_m2():
    sims = _sample_integrals(0.2, 0.0, 1.0, 128, 2024, n_paths=20000)
    m1 = moment_m1(0.0, 0.2, 1.0)
    m2 = moment_m2(0.0, 0.2, 1.0)
    se1 = sims.std(ddof=1) / math.sqrt(sims.size)
    sq = sims * sims
    se2 = sq.std(ddof=1) / math.sqrt(sims.size)
    assert abs(sims.mean() - m1) <= 3.0 * se1
    assert abs(sq.mean() - m2) <= 3.0 * se2


_C7_ASIAN = AsianInputs(s0=100.0, k=110.0, r=0.05, q=0.0, sigma=0.3, t=1.0, kind=OptionKind.CALL)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: mc_laplace(0.1, 0.1, 0.0, 1.0, 5000, 512, seed=20240811), 0.9048593529416483),
        (lambda: mc_laplace(0.06, 0.3, 0.09, 5.0, 5000, 256, seed=11), 0.6934168963362416),
        (lambda: mc_asian_price(_C7_ASIAN, 5000, 256, seed=7), 4.063069831776787),
        # |2*drift| beyond the float exponent range: the mirror needs its own exp
        (lambda: mc_laplace(0.1, 0.3, -160.0, 5.0, 200, 64, seed=3), 0.9961013404754547),
        (lambda: mc_laplace(1e-170, 0.3, 80.0, 5.0, 200, 64, seed=3), 3.249959495407098e-14),
        # small drift but sigma*W beyond it: some e^s underflow to 0
        (lambda: mc_laplace(1e-40, 100.0, 4966.0, 10.0, 400, 64, seed=3), 0.5770330097728461),
    ],
    ids=["criterion7-laplace", "drifted", "criterion7-asian", "drift-below-range",
         "drift-above-range", "sigma-w-beyond-range"],
)
def test_mc_estimates_pinned(call, expected):
    # the keyed per-path streams fix every draw, so only rounding may move
    # these: the mirror's exp(2*drift)/e^s against exp(drift - sigma*W)
    est = call()
    assert math.isfinite(est.mean)
    assert est.mean == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_mc_estimate_pinned_across_blocks_at_top_seed():
    # 4100 paths span three blocks under a seed key above 2^63; frozen from the
    # array-keyed implementation, so it pins every draw's bits
    est = mc_laplace(0.1, 0.3, 0.05, 2.0, 4100, 64, seed=2**64 - 1)
    assert est.mean == 0.8114148816259797
    assert est.stderr == 0.0001155041219441989


@pytest.mark.parametrize(
    "sigma, a, T",
    [(0.3, 0.05, 2.0), (3.0, 0.0, 10.0)],
    ids=["mirror-by-division", "mirror-by-exp"],
)
def test_mc_pair_means_independent_of_block_size(monkeypatch, sigma, a, T):
    # 4100 paths of 64 steps: three blocks by default, against one row per
    # block and one block for all; sigma*sqrt(T) = 9.5 takes the second exp
    args = (lambda x: x, sigma, a, T, 4100, 64, 2**64 - 5)
    default = _mc_pair_means(*args)
    assert np.all(np.isfinite(default))
    for block_bytes in (8 * 64, 64 << 20):
        monkeypatch.setattr(oracles, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(_mc_pair_means(*args), default), block_bytes


def _peak_bytes(call):
    # traced memory of a second call: a process's first call imports numpy.random
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_working_memory_is_one_block():
    # 4096 paths of 512 steps (16 MiB of draws) once took an 8 MiB block;
    # 1 MiB blocks and n_paths * 8 bytes of pair means leave under 2 MiB
    assert _peak_bytes(lambda: mc_laplace(0.1, 0.1, 0.0, 1.0, 4096, 512, seed=1)) < 2 << 20
    assert _peak_bytes(lambda: mc_asian_price(_C7_ASIAN, 4096, 256, seed=1)) < 2 << 20


def test_mc_variance_takes_no_second_path_array():
    # 1e6 paths of 8 steps: 8 MB of pair means, one 1 MiB block and its
    # row-sized temporaries; a second 8 MB array would pass 15 MiB
    n = 1_000_000
    assert _peak_bytes(lambda: mc_laplace(0.1, 0.1, 0.0, 1.0, n, 8, seed=1)) < 8 * n + (3 << 20)


@pytest.mark.parametrize("n", [2, 3, 2048, 99991])
def test_estimate_matches_numpy_std(n):
    # the in-place variance repeats numpy's std(ddof=1) operation by operation;
    # a change in numpy's order of operations shows here
    values = 1.0 + 0.3 * np.random.default_rng(n).standard_normal(n)
    est = _estimate(values.copy(), 8, 1, time.perf_counter())
    assert est.mean == values.mean()
    assert est.stderr == values.std(ddof=1) / math.sqrt(n)


def test_mc_maturity_domain():
    with pytest.raises(DomainError, match="T must be >= 0"):
        mc_laplace(0.1, 0.1, 0.0, -1.0, 100, 16, seed=1)
    with pytest.raises(DomainError, match="T must be >= 0"):
        mc_laplace(0.0, 0.1, 0.0, -1.0, 100, 16, seed=1)
    # mc_asian_price takes T from AsianInputs, which rejects t <= 0
    with pytest.raises(DomainError, match="t must be > 0"):
        AsianInputs(s0=100.0, k=110.0, r=0.05, q=0.0, sigma=0.3, t=-1.0, kind=OptionKind.CALL)
    est = mc_laplace(0.1, 0.1, 0.0, 0.0, 100, 16, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_mc_negative_sigma_is_the_mirror_path():
    # with antithetic pairs, -sigma swaps each path with its mirror
    pos = mc_laplace(0.1, 0.3, 0.05, 2.0, 2000, 64, seed=5)
    neg = mc_laplace(0.1, -0.3, 0.05, 2.0, 2000, 64, seed=5)
    assert neg.mean == pytest.approx(pos.mean, rel=1e-13, abs=0.0)
    assert neg.stderr == pytest.approx(pos.stderr, rel=1e-13, abs=0.0)


def test_mc_laplace_theta_zero():
    est = mc_laplace(0.0, 0.1, 0.0, 1.0, 100, 16, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0
    assert est.elapsed_s == 0.0 and est.paths_per_s == 0.0


@pytest.mark.parametrize("n_paths, n_steps", [(-5, 16), (100, 0)])
def test_mc_laplace_counts_checked_before_theta_zero(n_paths, n_steps):
    # theta = 0 returned an estimate with n_paths = -5 before the count checks
    with pytest.raises(DomainError, match="must be >= 2"):
        mc_laplace(0.0, 0.1, 0.0, 1.0, n_paths, n_steps, seed=1)


def test_mc_laplace_reproducible():
    e1 = mc_laplace(0.1, 0.1, 0.0, 1.0, 20000, 64, seed=42)
    e2 = mc_laplace(0.1, 0.1, 0.0, 1.0, 20000, 64, seed=42)
    assert e1 == e2
    # the timings differ from call to call and take no part in ==
    assert e1.elapsed_s > 0.0 and e1.paths_per_s == e1.n_paths / e1.elapsed_s
    e3 = mc_laplace(0.1, 0.1, 0.0, 1.0, 20000, 64, seed=43)
    assert e1.mean != e3.mean


def test_mc_seeds_keep_exact_philox_keys():
    # keys of 2^63 and above (every negative seed after the mask) once went
    # through float64: seed -1 wrapped to key 0 with a RuntimeWarning, and
    # -5000 shared the key of 2^64 - 4096
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = {s: mc_laplace(0.1, 0.3, 0.0, 1.0, 64, 8, seed=s).mean
               for s in (0, -1, 2**64 - 4096, -5000)}
        z = _keyed_normals(-1)(0, np.empty((1, 8)))
    assert est[-1] != est[0]
    assert est[2**64 - 4096] != est[-5000]
    key = np.array([2**64 - 1, 0], dtype=np.uint64)
    assert np.array_equal(z[0], np.random.Generator(np.random.Philox(key=key)).standard_normal(8))


def test_mc_numpy_integer_counts_and_seed_give_the_int_bits():
    # a numpy integer seed once raised OverflowError from np.int64 & (2^64 - 1)
    ref = mc_laplace(0.1, 0.3, 0.05, 2.0, 300, 16, seed=3)
    est = mc_laplace(0.1, 0.3, 0.05, 2.0, np.int64(300), np.int32(16), seed=np.int64(3))
    assert (est.mean, est.stderr) == (ref.mean, ref.stderr)
    assert type(est.seed) is type(est.n_paths) is type(est.n_steps) is int
    top = mc_laplace(0.1, 0.3, 0.05, 2.0, 4100, 64, seed=np.uint64(2**64 - 1))
    assert top.mean == 0.8114148816259797
    assert mc_asian_price(_C7_ASIAN, 300, 16, seed=np.int64(7)) == mc_asian_price(_C7_ASIAN, 300, 16, seed=7)


@pytest.mark.parametrize("n_paths, n_steps, seed", [(64.0, 8, 1), (64, np.float64(8.0), 1), (64, 8, 1.5),
                                                    (64, 8, None)])
def test_mc_non_integer_counts_and_seed_raise(n_paths, n_steps, seed):
    # n_paths = 64.0 once raised a raw TypeError from range()
    with pytest.raises(DomainError, match="must be an integer"):
        mc_laplace(0.1, 0.3, 0.05, 2.0, n_paths, n_steps, seed)
    with pytest.raises(DomainError, match="must be an integer"):
        mc_asian_price(_C7_ASIAN, n_paths, n_steps, seed)


def test_mc_laplace_drifted_scenario():
    # published reference 0.693 is printed to 3 decimals, so a half-ulp
    # allowance of 5e-4 is added to the 3-stderr band
    est = mc_laplace(0.06, 0.3, 0.09, 5.0, 200_000, 256, seed=11)
    assert abs(est.mean - 0.693) <= 3.0 * est.stderr + 5e-4


def test_mc_asian_strikeless_call_is_forward():
    inp = AsianInputs(s0=100.0, k=1e-9, r=0.03, q=0.01, sigma=0.25, t=2.0, kind=OptionKind.CALL)
    est = mc_asian_price(inp, 100_000, 128, seed=17)
    ref = math.exp(-0.03 * 2.0) * a_fwd(100.0, 0.02, 2.0)
    assert abs(est.mean - ref) <= 3.0 * est.stderr + 1e-6


def test_mc_asian_zero_vol_degenerates():
    # tiny volatility: payoff collapses to the deterministic average
    inp = AsianInputs(s0=100.0, k=90.0, r=0.05, q=0.0, sigma=1e-8, t=1.0, kind=OptionKind.CALL)
    est = mc_asian_price(inp, 1000, 64, seed=3)
    abar = a_fwd(100.0, 0.05, 1.0)
    ref = math.exp(-0.05) * (abar - 90.0)
    assert abs(est.mean - ref) < 1e-4


def test_mc_asian_put_payoff():
    inp = AsianInputs(s0=100.0, k=120.0, r=0.0, q=0.0, sigma=0.2, t=1.0, kind=OptionKind.PUT)
    est = mc_asian_price(inp, 50_000, 128, seed=23)
    assert est.mean > 15.0 and est.stderr < 0.1


def test_jb_variational_degenerate():
    res = jb_variational(0.0, 0.8)
    assert res.value == 0.0 and res.initial_slope == 0.8 and res.multiplier == 0.0


def test_jb_variational_vs_closed_form():
    for (b, z) in [(0.5, 0.0), (0.2, 1.0), (1.0, 0.5), (0.1, -0.5)]:
        sh = jb_variational(b, z)
        assert abs(sh.value - jb(b, z)) <= 1e-4
        assert sh.bc_residual <= 1e-9


def _ibs(x, zeta):
    return rate_ibs(x, zeta).value


@pytest.mark.parametrize(
    "oracle, closed_form, p, zeta",
    [(jb_variational, jb, 1.5, 2.0), (jb_variational, jb, 10.0, 1.0),
     (jb_variational, jb, 10.0, -1.9), (ibs_variational, _ibs, 0.2, -0.6),
     (ibs_variational, _ibs, 0.1, -0.4)],
)
def test_variational_hard_points(oracle, closed_form, p, zeta):
    # large b and zeta, where Newton from h = zeta*t takes the most steps, and
    # small x, where Newton from h = zeta*t, mu = 0 takes 23-26 steps at x = 0.2
    # and does not converge in 40 at x = 0.1
    assert abs(oracle(p, zeta).value - closed_form(p, zeta)) <= 1e-9


def test_variational_quote_sweep_domain():
    # the ranges of the quotes that perfbench's quote_sweep checks against the
    # oracles: bonds b in [6e-4, 7.6], zeta in [-1.8, 3]; I_BS and Asian strikes
    # x in [0.5, 2], zeta in [-0.5, 1.5]
    for b in np.geomspace(6e-4, 7.6, 6):
        for z in np.linspace(-1.8, 3.0, 6):
            assert abs(jb_variational(b, z).value - jb(b, z)) <= 1e-9, (b, z)
    for x in np.linspace(0.5, 2.0, 6):
        for z in np.linspace(-0.5, 1.5, 6):
            assert abs(ibs_variational(x, z).value - _ibs(x, z)) <= 1e-9, (x, z)


def test_variational_shots():
    # a solved value comes from 65 nodes, and shots adds the Newton steps of the
    # 65-node solve and of the 33-node check; a value known without solving has none
    for oracle, args, shots in [
        (jb_variational, (1.0, 0.5), 6),
        (jb_variational, (0.7, 0.5), 6),
        (jb_variational, (1.5, 2.0), 7),
        (jb_variational, (10.0, 1.0), 10),
        (ibs_variational, (1.2, 0.1), 4),
        (ibs_variational, (1.2, 0.5), 4),
        (ibs_variational, (0.3, 0.0), 6),
        (ibs_variational, (0.2, -0.6), 6),
    ]:
        res = oracle(*args)
        assert (res.ode_steps, res.shots) == (65, shots), (oracle.__name__, args)
    for res in (jb_variational(0.0, 0.5), ibs_variational(math.expm1(0.5) / 0.5, 0.5)):
        assert (res.ode_steps, res.shots) == (0, 0)


@pytest.mark.parametrize(
    "oracle, args, match",
    [(jb_variational, (1e150, 0.0), "did not converge"),
     (jb_variational, (1.0, 100.0), "does not lower"),
     (ibs_variational, (1e-8, 0.0), "does not lower"),
     (jb_variational, (30.0, 0.0), "disagree"),
     (ibs_variational, (0.01, 0.0), "disagree")],
)
def test_variational_unconverged_raises(oracle, args, match):
    with pytest.raises(ShootingFailed, match=match):
        oracle(*args)


def test_shooting_does_not_import_scipy_integrate():
    code = (
        "import sys, gbmlap, gbmlap.cli, gbmlap.validation\n"
        "gbmlap.oracles.jb_variational(0.5, 0.5)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    # run against the same gbmlap sources as this test session
    env = dict(os.environ, PYTHONPATH=str(Path(gbmlap.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_ibs_variational_unconstrained_zero():
    xstar = math.expm1(0.5) / 0.5
    res = ibs_variational(xstar, 0.5)
    assert res.value == 0.0 and res.multiplier == 0.0 and res.initial_slope == 0.5


def test_ibs_variational_vs_closed_form():
    for (x, z) in [(2.0, 0.0), (0.5, 0.0), (1.2, 0.5), (3.0, 1.0)]:
        sh = ibs_variational(x, z)
        assert abs(sh.value - rate_ibs(x, z).value) <= 1e-4
        assert sh.bc_residual <= 1e-8


def test_ibs_variational_multiplier_sign():
    # above the zero the trajectory is concave (mu > 0), below convex (mu < 0)
    assert ibs_variational(2.0, 0.0).multiplier > 0.0
    assert ibs_variational(0.5, 0.0).multiplier < 0.0


def test_variational_domain():
    with pytest.raises(DomainError):
        jb_variational(-0.5, 0.0)
    with pytest.raises(DomainError):
        ibs_variational(0.0, 0.0)
