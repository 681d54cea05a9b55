"""Per-layer metrics of the traced run.

Each probe calls one layer's public functions directly.  Timings of cheap
calls are loops over many calls, divided by the count, with the whole loop
recorded as one span of that layer so the span cost does not inflate the
per-call figure.  Counts (solver evaluations, quadrature lobes, Monte Carlo
blocks, ODE steps) come from the library's own result fields and repeat
exactly between runs.

The fixed points below are those of the hand-measured baseline table in
ROADMAP.md; ``BASELINE`` holds its figures so the report can print them
beside the measured ones.  They are never gated.
"""

from __future__ import annotations

import math
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

# fixed probe points
P_HYP = (0.3, 0.9)        # rate_R hyperbolic branch, zeta = 0.9
P_TRIG = (0.5, 0.9)       # rate_R trigonometric branch, zeta = 0.9
P_ZETA0 = (0.5, 0.0)      # rate_R at zeta = 0 (runs solve_xi)
P_LAMBDA = 0.5            # rate_R_zero_drift / solve_lambda
P_IBS_HYP = (1.2, 0.1)    # rate_ibs hyperbolic branch
P_IBS_TRIG = (0.8, 0.05)  # rate_ibs trigonometric branch
P_JB = (1.0, 0.5)         # jb_variational
P_IBS_SHOOT = (1.2, 0.1)  # ibs_variational
EXACT_R0, EXACT_SIGMA = 0.05, 0.5
EXACT_T = {"T1": 1.0, "T10": 10.0, "T100": 100.0, "T200": 200.0}
C7_LAPLACE_PATHS, C7_ASIAN_PATHS = 1_000_000, 200_000
MC_BLOCK = 2048  # paths per Monte Carlo block, the unit of oracles.mc.* and of the baseline table

# metric -> hand-measured baseline (ROADMAP.md "Baseline"), shown beside the measured value
BASELINE = {
    "ratefn.rate_R_us.zeta0": 52.0,
    "ratefn.rate_R_us.trigonometric": 72.0,
    "ratefn.rate_R_us.hyperbolic": 18.0,
    "rootfind.evals.lambda": 18,
    "asian.rate_ibs_us.hyperbolic": 28.0,
    "asian.price_approx_us": 34.0,
    "dothan.exact_ms.T1": 0.11,
    "dothan.exact_ms.T10": 0.17,
    "dothan.exact_ms.T200": 464.0,
    "dothan.lobes.long": 13465,
    "dothan.lobes.T100": 4631,
    "oracles.shoot.jb_ms": 50.0,
    "oracles.shoot.ibs_ms": 30.0,
    "oracles.mc.criterion7_est_s": 26.8,
    "oracles.mc.plain_normals_ms": 11.1,
    "validation.full_plus_quick_s": 4.7,
    "code.src_lines": 2501,
    "code.tests_lines": 1465,
}


def _loop_us(tracer, layer: str, name: str, fn, args_list, reps: int = 5) -> float:
    """Median over ``reps`` of the mean per-call time of fn over args_list, in µs."""
    clock = time.perf_counter

    def loop():
        t0 = clock()
        for a in args_list:
            fn(*a)
        return (clock() - t0) / len(args_list)

    timed = tracer.wrap(layer, f"{name}[x{len(args_list)}]", loop)
    return 1e6 * statistics.median(timed() for _ in range(reps))


def _timed(tracer, layer: str, name: str, fn, *args, **kwargs):
    """(result, seconds) of one call, recorded as a span."""
    clock = time.perf_counter
    t0 = clock()
    out = tracer.wrap(layer, name, fn)(*args, **kwargs)
    return out, clock() - t0


def _sweep_points(gb, sweep: workloads.QuoteSweep) -> dict[str, list]:
    """The quote sweep's own (b, zeta) and (x, zeta) inputs, split by the branch the library takes."""
    ratefn, asian, model = gb.ratefn, gb.asian, gb.model
    hyp, trig = ratefn.Branch.HYPERBOLIC, ratefn.Branch.TRIGONOMETRIC
    pts = {k: [] for k in ("hyperbolic", "trigonometric", "trig_zeta0", "lambda",
                           "ibs_hyperbolic", "ibs_trigonometric")}
    for kind, args in sweep.inputs:
        if kind == "bond":
            r0, sigma, a, T = args
            if r0 == 0.0:
                continue
            sc = model.scale(model.ModelParams(sigma=sigma, a=a, T=T, theta=r0))
            branch = ratefn.rate_R(sc.b, sc.zeta).branch
            if branch is trig and sc.zeta == 0.0:
                pts["trig_zeta0"].append((sc.b, sc.zeta))
                pts["lambda"].append((sc.b,))
            elif branch in (hyp, trig):
                pts[branch.value].append((sc.b, sc.zeta))
        else:
            if kind == "ibs":
                x, zeta = args
            else:
                s0, k, r, q, _sigma, t, _ = args
                x, zeta = k / s0, (r - q) * t
            branch = asian.rate_ibs(x, zeta).branch
            if branch in (hyp, trig):
                pts[f"ibs_{branch.value}"].append((x, zeta))
    return pts


def probe(gb, tracer, root: Path, out_dir: Path, seed: int, tiny: bool) -> tuple[dict, list]:
    """Every per-layer metric as name -> (value, unit), and a list of failed output checks."""
    m: dict[str, tuple] = {}
    model, ratefn, asian, dothan, oracles = gb.model, gb.ratefn, gb.asian, gb.dothan, gb.oracles
    sweep = workloads.QuoteSweep(gb, seed, tiny)
    pts = _sweep_points(gb, sweep)

    # model
    params = [(model.ModelParams(sigma=args[1], a=args[2], T=args[3], theta=args[0]),)
              for kind, args in sweep.inputs if kind == "bond"]
    m["model.scale_us"] = (_loop_us(tracer, "model", "model.scale", model.scale, params), "us")

    # rootfind: evaluation counts at the fixed points and over the sweep's inputs
    solvers = {
        "hyperbolic": (ratefn.solve_delta, P_HYP),
        "trigonometric": (ratefn.solve_xi, P_TRIG),
        "trig_zeta0": (ratefn.solve_xi, P_ZETA0),
        "lambda": (ratefn.solve_lambda, (P_LAMBDA,)),
        "ibs_hyperbolic": (asian.ibs_solve_delta, P_IBS_HYP),
        "ibs_trigonometric": (asian.ibs_solve_xi, P_IBS_TRIG),
    }
    layer_of = {ratefn.solve_delta: "ratefn", ratefn.solve_xi: "ratefn",
                ratefn.solve_lambda: "ratefn", asian.ibs_solve_delta: "asian",
                asian.ibs_solve_xi: "asian"}
    for branch, (solve, point) in solvers.items():
        layer = layer_of[solve]
        res, _ = _timed(tracer, layer, f"{layer}.{solve.__name__}", solve, *point)
        m[f"rootfind.evals.{branch}"] = (res.iterations, "count")
        sweep_solve = tracer.wrap(layer, f"{layer}.{solve.__name__}[sweep]",
                                  lambda s=solve, p=pts[branch]: [s(*a).iterations for a in p])
        evals = sweep_solve()
        m[f"rootfind.sweep_evals_mean.{branch}"] = (sum(evals) / max(1, len(evals)), "count")
    # one evaluation of the bracketed solver, on lambda - b*cos(lambda) over the sweep's b values
    half_pi = 0.5 * math.pi
    bs = [b for (b,) in pts["lambda"]] or [P_LAMBDA]

    def lambda_solves():
        clock = time.perf_counter
        t0 = clock()
        evals = sum(gb.rootfind.solve_bracketed(lambda x, b=b: x - b * math.cos(x),
                                                0.0, half_pi, tol=1e-15).iterations for b in bs)
        return clock() - t0, evals

    runs = [tracer.wrap("rootfind", "rootfind.solve_bracketed[sweep]", lambda_solves)()
            for _ in range(5)]
    m["rootfind.us_per_eval"] = (1e6 * statistics.median(t / e for t, e in runs), "us")

    # ratefn
    for name, point in (("hyperbolic", P_HYP), ("trigonometric", P_TRIG), ("zeta0", P_ZETA0)):
        m[f"ratefn.rate_R_us.{name}"] = (
            _loop_us(tracer, "ratefn", "ratefn.rate_R", ratefn.rate_R, [point] * 200), "us")
    m["ratefn.rate_R_zero_drift_us"] = (
        _loop_us(tracer, "ratefn", "ratefn.rate_R_zero_drift", ratefn.rate_R_zero_drift,
                 [(P_LAMBDA,)] * 200), "us")

    # asian
    for name, point in (("hyperbolic", P_IBS_HYP), ("trigonometric", P_IBS_TRIG)):
        m[f"asian.rate_ibs_us.{name}"] = (
            _loop_us(tracer, "asian", "asian.rate_ibs", asian.rate_ibs, [point] * 200), "us")
    c7 = asian.AsianInputs(kind=asian.OptionKind.CALL, **workloads.C7_ASIAN)
    fwd = asian.a_fwd(c7.s0, c7.r - c7.q, c7.t)
    atm = asian.AsianInputs(s0=c7.s0, k=fwd, r=c7.r, q=c7.q, sigma=c7.sigma, t=c7.t, kind=c7.kind)
    m["asian.price_approx_us"] = (
        _loop_us(tracer, "asian", "asian.asian_price_approx", asian.asian_price_approx, [(c7,)] * 200), "us")
    m["asian.price_approx_atm_us"] = (
        _loop_us(tracer, "asian", "asian.asian_price_approx", asian.asian_price_approx, [(atm,)] * 200), "us")

    # dothan
    exact = {}
    for label, T in EXACT_T.items():
        reps = 1 if T >= 100.0 else 20
        times, q = [], None
        for _ in range(reps):
            q, dt = _timed(tracer, "dothan", "dothan.bond_exact_zero_drift",
                           dothan.bond_exact_zero_drift, EXACT_R0, EXACT_SIGMA, T)
            times.append(dt)
        exact[label] = (statistics.median(times), q.diagnostics["n_lobes"])
        m[f"dothan.exact_ms.{label}"] = (1e3 * exact[label][0], "ms")
    m["dothan.lobes.short"] = (exact["T1"][1], "count")
    m["dothan.lobes.T10"] = (exact["T10"][1], "count")
    m["dothan.lobes.T100"] = (exact["T100"][1], "count")
    m["dothan.lobes.long"] = (exact["T200"][1], "count")
    m["dothan.us_per_lobe.short"] = (1e6 * exact["T1"][0] / exact["T1"][1], "us")
    m["dothan.us_per_lobe.long"] = (1e6 * exact["T200"][0] / exact["T200"][1], "us")
    m["dothan.asymptotic_us"] = (
        _loop_us(tracer, "dothan", "dothan.bond_asymptotic", dothan.bond_asymptotic,
                 [(EXACT_R0, EXACT_SIGMA, 0.0, 10.0)] * 200), "us")

    # oracles: Monte Carlo blocks
    mc = workloads.MCCrosscheck(gb, seed, tiny)
    blocks = sum(math.ceil(paths / MC_BLOCK) for _, paths, _, _ in mc.calls())
    m["oracles.mc.blocks"] = (blocks, "count")
    lap, asi = [], []
    for i in range(3):
        _, dt = _timed(tracer, "oracles", "oracles.mc_laplace", oracles.mc_laplace,
                       *workloads.C7_LAPLACE, MC_BLOCK, 512, seed=seed + i)
        lap.append(dt)
        _, dt = _timed(tracer, "oracles", "oracles.mc_asian_price", oracles.mc_asian_price,
                       mc.asian_input, MC_BLOCK, 256, seed=seed + i)
        asi.append(dt)
    lap_ms, asi_ms = 1e3 * statistics.median(lap), 1e3 * statistics.median(asi)
    m["oracles.mc.block_ms.laplace"] = (lap_ms, "ms")
    m["oracles.mc.block_ms.asian"] = (asi_ms, "ms")
    m["oracles.mc.criterion7_est_s"] = (
        1e-3 * (math.ceil(C7_LAPLACE_PATHS / MC_BLOCK) * lap_ms
                + math.ceil(C7_ASIAN_PATHS / MC_BLOCK) * asi_ms), "s")
    gen = np.random.Generator(np.random.Philox(seed))
    plain = []
    for _ in range(5):
        t0 = time.perf_counter()
        gen.standard_normal((MC_BLOCK, 256))
        plain.append(time.perf_counter() - t0)
    m["oracles.mc.plain_normals_ms"] = (1e3 * statistics.median(plain), "ms")

    # oracles: shooting
    jb, jb_s = _timed(tracer, "oracles", "oracles.jb_variational", oracles.jb_variational, *P_JB)
    ibs, ibs_s = _timed(tracer, "oracles", "oracles.ibs_variational", oracles.ibs_variational, *P_IBS_SHOOT)
    m["oracles.shoot.jb_ms"] = (1e3 * jb_s, "ms")
    m["oracles.shoot.ibs_ms"] = (1e3 * ibs_s, "ms")
    m["oracles.shoot.jb_ode_steps"] = (jb.ode_steps, "count")
    m["oracles.shoot.ibs_ode_steps"] = (ibs.ode_steps, "count")

    # validation
    full, full_s = _timed(tracer, "validation", "validation.run_checks", gb.validation.run_checks, quick=False)
    _, quick_s = _timed(tracer, "validation", "validation.run_checks", gb.validation.run_checks, quick=True)
    for r in full:
        m[f"validation.check_s.{r.name}"] = (r.seconds, "s")
    m["validation.full_s"] = (full_s, "s")
    m["validation.quick_s"] = (quick_s, "s")
    m["validation.full_plus_quick_s"] = (full_s + quick_s, "s")

    # cli
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        csv_path = Path(tmp) / "table1.csv"
        rc, dt = _timed(tracer, "cli", "cli.main", gb.cli.main,
                        ["reproduce", "table1", "--out", str(csv_path)])
        rows = csv_path.read_text().splitlines() if rc == 0 else []
    m["cli.reproduce_table1_ms"] = (1e3 * dt, "ms")

    # code size, counted from the checkout
    for part in ("src", "tests"):
        m[f"code.{part}_lines"] = (
            sum(len(p.read_text().splitlines()) for p in (root / part).rglob("*.py")), "count")

    published = [row[2] for row in gb.reference.TABLE1_ROWS]
    printed = [float(line.split(",")[2]) for line in rows[1:]]
    problems = []
    if rc != 0 or len(printed) != len(published) or any(
            abs(p - b) > 2e-6 for p, b in zip(printed, published)):
        problems.append(f"reproduce table1 exited {rc}; B_exact column {printed} vs {published}")
    return m, problems
