"""The four benchmark workloads.

Each workload builds its inputs from the seed, exposes its operations as
argument-free callables, times one round of them, and checks the outputs
against independent references: the shooting oracles, the published
tables, the perpetual-bond limit and the Monte Carlo bands.  A round
always runs the same inputs, so every round of a run does the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

import calibrate
from tracing import bench_span


@dataclass
class RoundResult:
    seconds: float            # wall time of the round's operations, reference samples excluded
    op_seconds: list          # latency of each operation (None when it raised)
    refs: list                # wall seconds of the reference samples taken during the round
    work: float               # work units completed
    outputs: list             # per-operation output (None when it raised)
    errors: list              # "op i: message" for operations that raised


def _time_ops(ops) -> tuple[float, list, list, list, list]:
    """Run ops once each, sampling the reference task after every REF_EVERY seconds of them."""
    clock = time.perf_counter
    lat, outs, errs, refs = [], [], [], []
    since_ref = 0.0
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # a raising operation is a counted failure
            errs.append(f"op {i}: {type(exc).__name__}: {exc}")
            out, took = None, None
        else:
            took = clock() - t0
        lat.append(took)
        outs.append(out)
        since_ref += clock() - t0
        if since_ref >= calibrate.REF_EVERY:
            refs.append(calibrate.sample())
            since_ref = 0.0
    refs.append(calibrate.sample())
    return clock() - start - sum(refs), lat, outs, errs, refs


def _lhs(rng, n: int, d: int) -> np.ndarray:
    """Latin-hypercube sample of n points in [0, 1)^d (one point per stratum per axis)."""
    strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
    return (strata + rng.random((n, d))) / n


def _finite_in(v, lo, hi) -> bool:
    return v is not None and math.isfinite(v) and lo <= v <= hi


C7_ASIAN = dict(s0=100.0, k=110.0, r=0.05, q=0.0, sigma=0.3, t=1.0)  # criterion 7's Asian call
C7_LAPLACE = (0.1, 0.1, 0.0, 1.0)  # (theta, sigma, a, T) of criterion 7's Laplace transform
C7_LAPLACE_REF = 0.904853  # published exact price for that configuration (table 1, T=1, sigma=0.1)


class Workload:
    """One workload: seeded inputs, one round of operations, output checks."""

    name = ""
    work_unit = ""
    op_name = ""

    def __init__(self, gb, seed: int, tiny: bool):
        self.gb, self.seed = gb, seed

    @staticmethod
    def warm(api, gb) -> None:
        """First call into every layer the workload uses (the set-up probe runs this)."""
        raise NotImplementedError

    def ops(self, api) -> list:
        raise NotImplementedError

    def key(self, out):
        """Output value compared bit for bit between rounds."""
        return out

    def run_round(self, ops) -> RoundResult:
        seconds, lat, outs, errs, refs = _time_ops(ops)
        return RoundResult(seconds, lat, refs, float(len(ops) - len(errs)), outs, errs)

    def unit_classes(self, n: int) -> list:
        """Class of each of a round's n operations; operations of one class cost the same."""
        return list(range(n))

    def check_op(self, i: int, out) -> str | None:
        """Message when operation i's output is wrong, else None."""
        return None

    def check_run(self, api, outputs: list) -> list[tuple[str, bool, str]]:
        """Run-level checks on the first round's outputs: (name, passed, detail)."""
        return []

    def named_metrics(self, summary: dict, rounds: list) -> list[tuple[str, float, str, str]]:
        return []


# ---------------------------------------------------------------------------
# quote_sweep: the closed-form hot path


class QuoteSweep(Workload):
    """Bond and Asian quotes plus I_BS calls across realistic market ranges."""

    name = "quote_sweep"
    work_unit = "quotes"
    op_name = "quote"

    def __init__(self, gb, seed, tiny):
        super().__init__(gb, seed, tiny)
        rng = np.random.default_rng([seed, 11])
        n = 200 if tiny else 2000
        self.inputs = self._bonds(rng, int(0.4 * n)) + self._asians(rng, int(0.4 * n)) \
            + self._ibs(rng, n - 2 * int(0.4 * n))
        order = rng.permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]

    @staticmethod
    def _bonds(rng, n):
        out = []
        n_zero_drift, n_boundary, n_zero_rate = n // 5, n // 12, max(1, n // 50)
        n_drift = n - n_zero_drift - n_boundary - n_zero_rate
        # args in bond_asymptotic's order: (r0, sigma, a, T)
        for r0, sigma, a, T in _lhs(rng, n_drift, 4):
            out.append(("bond", (0.005 + 0.195 * r0, 0.05 + 0.75 * sigma, -0.06 + 0.16 * a,
                                 0.25 + 29.75 * T)))
        for r0, sigma, T in _lhs(rng, n_zero_drift, 3):
            out.append(("bond", (0.005 + 0.195 * r0, 0.05 + 0.75 * sigma, 0.0, 0.25 + 29.75 * T)))
        # exactly on the branch locus b = |zeta|/(2+zeta): solve T for the drawn (r0, sigma, zeta)
        for r0, sigma, z in _lhs(rng, n_boundary, 3):
            r0, sigma = 0.02 + 0.18 * r0, 0.2 + 0.6 * sigma
            zeta = (0.2 + 1.8 * z) if z < 0.5 else -(0.2 + 0.6 * z)
            T = abs(zeta) / (2.0 + zeta) / math.sqrt(0.5 * sigma * sigma * r0)
            out.append(("bond", (r0, sigma, zeta / T, T)))
        for i in range(n_zero_rate):
            out.append(("bond", (0.0, 0.3, 0.02, 1.0 + i)))
        return out

    @staticmethod
    def _asians(rng, n):
        out = []
        n_atm = n // 10
        for j, (m, r, q, sigma, t, kind) in enumerate(_lhs(rng, n, 6)):
            r, q, sigma, t = 0.1 * r, 0.05 * q, 0.1 + 0.7 * sigma, 0.25 + 9.75 * t
            if j < n_atm:  # strike inside the ATM window around the forward average
                fwd = 100.0 * math.expm1((r - q) * t) / ((r - q) * t) if r != q else 100.0
                k = fwd * (1.0 + (m - 0.5) * 1e-4)
            else:
                k = 100.0 * (0.7 + 0.7 * m)
            out.append(("asian", (100.0, k, r, q, sigma, t, "call" if kind < 0.5 else "put")))
        return out

    @staticmethod
    def _ibs(rng, n):
        out = []
        n_pivot, n_zero = n // 20, n // 20
        for x, z in _lhs(rng, n - n_pivot - n_zero, 2):
            out.append(("ibs", (0.5 + 1.5 * x, -0.5 + 2.0 * z)))
        for (z,) in _lhs(rng, n_pivot, 1):
            zeta = -0.5 + 2.0 * z
            out.append(("ibs", (1.0 + 0.5 * zeta, zeta)))
        for (z,) in _lhs(rng, n_zero, 1):
            zeta = 0.05 + 1.45 * z
            out.append(("ibs", (math.expm1(zeta) / zeta, zeta)))
        return out

    @staticmethod
    def warm(api, gb):
        api.bond_asymptotic(0.05, 0.3, 0.01, 5.0)
        api.asian_price_approx(gb.asian.AsianInputs(kind=gb.asian.OptionKind.CALL, **C7_ASIAN))
        api.rate_ibs(1.2, 0.1)

    def ops(self, api):
        AsianInputs, Kind = self.gb.asian.AsianInputs, self.gb.asian.OptionKind
        ops = []
        for kind, args in self.inputs:
            if kind == "bond":
                op = partial(api.bond_asymptotic, *args)
            elif kind == "asian":
                s0, k, r, q, sigma, t, opt = args
                op = partial(api.asian_price_approx,
                             AsianInputs(s0=s0, k=k, r=r, q=q, sigma=sigma, t=t, kind=Kind(opt)))
            else:
                op = partial(api.rate_ibs, *args)
            ops.append(bench_span(api, "quote_sweep.quote", op))
        return ops

    def key(self, out):
        return out.value if self.gb.asian.IbsEval is type(out) else out.price

    def check_op(self, i, out):
        kind, args = self.inputs[i]
        if kind == "bond":
            ok = _finite_in(out.price, 1e-300, 1.0)
        elif kind == "asian":
            s0, k, r, q, sigma, t, opt = args
            df = math.exp(-r * t)
            cap = df * out.diagnostics["a_fwd"] if opt == "call" else df * k
            ok = _finite_in(out.price, 0.0, cap * (1.0 + 1e-12))
        else:
            ok = _finite_in(out.value, 0.0, math.inf)
        return None if ok else f"{kind}{args}: output {out} outside its range"

    def check_run(self, api, outputs):
        """A seeded subsample agrees with the shooting oracles to validate's 1e-4."""
        rng = np.random.default_rng([self.seed, 12])
        picks = {"bond": [], "ibs": [], "asian": []}
        for i in rng.permutation(len(self.inputs)):
            kind, args = self.inputs[i]
            want = 2 if kind == "asian" else 4
            if outputs[i] is not None and len(picks[kind]) < want and not (kind == "bond" and args[0] == 0.0):
                picks[kind].append(i)
        worst, bad = 0.0, []
        for i in picks["bond"]:
            d = outputs[i].diagnostics
            b, zeta = d["b"], d["zeta"]
            diff = abs(api.jb_variational(b, zeta).value - 2.0 * b * b * d["rate"])
            worst = max(worst, diff)
            if diff > 1e-4:
                bad.append(f"J_B(b={b:.6g}, zeta={zeta:.6g}) off by {diff:.2e}")
        for i in picks["ibs"] + picks["asian"]:
            kind, args = self.inputs[i]
            if kind == "ibs":
                x, zeta, ibs = args[0], args[1], outputs[i].value
            else:
                s0, k, r, q, sigma, t, _ = args
                x, zeta = k / s0, (r - q) * t
                ibs = api.rate_ibs(x, zeta).value
            diff = abs(api.ibs_variational(x, zeta).value - ibs)
            worst = max(worst, diff)
            if diff > 1e-4:
                bad.append(f"I_BS(x={x:.6g}, zeta={zeta:.6g}) off by {diff:.2e}")
        n = sum(len(v) for v in picks.values())
        detail = "; ".join(bad) or f"{n} quotes within 1e-4 of shooting (worst {worst:.1e})"
        return [("oracle_subsample", not bad, detail)]

    def named_metrics(self, summary, rounds):
        return [
            ("quotes_per_s", summary["throughput_per_s"], "1/s", ""),
            ("quote_p50_us", 1e3 * summary["op_p50_ms"], "us", ""),
            ("quote_tail_us", 1e3 * summary["op_tail_ms"], "us", summary["tail_note"]),
        ]


# ---------------------------------------------------------------------------
# exact_ladder: oscillatory quadrature, short rungs and long rungs


class ExactLadder(Workload):
    """Zero-drift exact prices, each paired with its asymptotic quote."""

    name = "exact_ladder"
    work_unit = "rungs"
    op_name = "rung"
    LONG = (0.05, 0.5, (50.0, 55.0, 60.0, 65.0, 70.0, 80.0, 90.0, 100.0, 125.0, 150.0, 200.0))

    def __init__(self, gb, seed, tiny):
        super().__init__(gb, seed, tiny)
        rng = np.random.default_rng([seed, 21])
        r0_t1 = gb.reference.TABLE1_SCENARIO["r0"]
        rungs = [("table1", r0_t1, sigma, T) for (T, sigma, *_rest) in gb.reference.TABLE1_ROWS]
        for r0, sigma, T in _lhs(rng, 12 if tiny else 240, 3):
            rungs.append(("short", 0.01 + 0.19 * r0, 0.1 + 0.7 * sigma, 0.25 + 9.75 * T))
        r0, sigma, long_T = self.LONG
        for T in ((50.0, 200.0) if tiny else long_T):
            rungs.append(("long", r0, sigma, T))
        order = rng.permutation(len(rungs))
        self.rungs = [rungs[i] for i in order]

    @staticmethod
    def warm(api, gb):
        api.bond_exact_zero_drift(0.1, 0.3, 1.0)
        api.bond_asymptotic(0.1, 0.3, 0.0, 1.0)
        api.bond_perpetual(0.05, 0.5, 0.0)

    def ops(self, api):
        def rung(r0, sigma, T):
            return api.bond_exact_zero_drift(r0, sigma, T), api.bond_asymptotic(r0, sigma, 0.0, T)

        return [bench_span(api, "exact_ladder.rung", partial(rung, r0, sigma, T))
                for (_, r0, sigma, T) in self.rungs]

    def key(self, out):
        return (out[0].price, out[1].price)

    def check_op(self, i, out):
        exact, asym = out
        if not (_finite_in(exact.price, 1e-300, 1.0) and _finite_in(asym.price, 1e-300, 1.0)):
            return f"rung {self.rungs[i]}: prices {exact.price}, {asym.price} outside (0, 1]"
        return None

    def check_run(self, api, outputs):
        ref = self.gb.reference
        checks = []
        bad, worst = [], 0.0
        published = {(T, sigma): b for (T, sigma, b, _, _) in ref.TABLE1_ROWS}
        by_family: dict[tuple, list] = {}
        for (kind, r0, sigma, T), out in zip(self.rungs, outputs):
            if out is None:
                continue
            if kind == "table1":
                err = abs(out[0].price - published[(T, sigma)])
                worst = max(worst, err)
                if err > 2e-6:
                    bad.append(f"(T={T:g}, sigma={sigma:g}) off by {err:.2e}")
            if kind != "short":
                by_family.setdefault((kind, r0, sigma), []).append((T, out[0].price))
        checks.append(("table1_within_2e-6", not bad,
                       "; ".join(bad) or f"15 rows within 2e-6 of the published prices (worst {worst:.1e})"))
        rising = []
        for fam, pts in by_family.items():
            pts.sort()
            rising += [f"{fam}: B({t1:g})={p1:.6f} <= B({t2:g})={p2:.6f}"
                       for (t1, p1), (t2, p2) in zip(pts, pts[1:]) if not p2 < p1]
        checks.append(("prices_fall_with_T", not rising, "; ".join(rising) or
                       f"{len(by_family)} families strictly decreasing in T"))
        r0, sigma, _ = self.LONG
        long200 = [out for (kind, _r, _s, T), out in zip(self.rungs, outputs)
                   if kind == "long" and T == 200.0 and out is not None]
        perp = api.bond_perpetual(r0, sigma, 0.0).price
        gap = abs(long200[0][0].price - perp) if long200 else math.inf
        checks.append(("T200_vs_perpetual", gap <= 1e-3, f"|B(200) - B(inf)| = {gap:.2e} (<= 1e-3)"))
        return checks

    def named_metrics(self, summary, rounds):
        return [
            ("ladder_s", summary["round_s"], "s", ""),
            ("exact_p50_ms", summary["op_p50_ms"], "ms", ""),
            ("exact_tail_ms", summary["op_tail_ms"], "ms", summary["tail_note"]),
        ]


# ---------------------------------------------------------------------------
# mc_crosscheck: the Monte Carlo oracle


class MCCrosscheck(Workload):
    """Criterion 7's Laplace and Asian Monte Carlo at scaled-down path counts."""

    name = "mc_crosscheck"
    work_unit = "path-steps"
    op_name = "MC call"
    LAPLACE_PATHS, LAPLACE_STEPS = 2048, 512
    ASIAN_PATHS, ASIAN_STEPS = 4096, 256

    def __init__(self, gb, seed, tiny):
        super().__init__(gb, seed, tiny)
        n_calls = 4 if tiny else 24
        self.seeds = [int(s) for s in np.random.SeedSequence([seed, 31]).generate_state(2 * n_calls)]
        self.asian_input = gb.asian.AsianInputs(kind=gb.asian.OptionKind.CALL, **C7_ASIAN)

    @staticmethod
    def warm(api, gb):
        api.mc_laplace(*C7_LAPLACE, 64, 16, seed=1)
        api.mc_asian_price(gb.asian.AsianInputs(kind=gb.asian.OptionKind.CALL, **C7_ASIAN), 64, 16, seed=1)
        api.asian_price_approx(gb.asian.AsianInputs(kind=gb.asian.OptionKind.CALL, **C7_ASIAN))

    def calls(self):
        """(kind, n_paths, n_steps, seed) of each operation, Laplace and Asian alternating."""
        return [("laplace", self.LAPLACE_PATHS, self.LAPLACE_STEPS, s) if j % 2 == 0 else
                ("asian", self.ASIAN_PATHS, self.ASIAN_STEPS, s) for j, s in enumerate(self.seeds)]

    def ops(self, api):
        ops = []
        for kind, paths, steps, s in self.calls():
            if kind == "laplace":
                op = partial(api.mc_laplace, *C7_LAPLACE, paths, steps, seed=s)
            else:
                op = partial(api.mc_asian_price, self.asian_input, paths, steps, seed=s)
            ops.append(bench_span(api, "mc_crosscheck.call", op))
        return ops

    def key(self, out):
        return (out.mean, out.stderr)

    def unit_classes(self, n):
        """The calls of one kind differ only in their seed, which leaves their work unchanged."""
        return [kind for kind, *_ in self.calls()]

    def run_round(self, ops):
        res = super().run_round(ops)
        done = [c for c, o in zip(self.calls(), res.outputs) if o is not None]
        res.work = float(sum(2 * paths * steps for _, paths, steps, _ in done))  # antithetic signs
        return res

    def check_op(self, i, out):
        kind = self.calls()[i][0]
        hi = 1.0 if kind == "laplace" else math.inf
        if not (_finite_in(out.mean, 0.0, hi) and _finite_in(out.stderr, 1e-300, math.inf)):
            return f"{kind} call {i}: mean {out.mean}, stderr {out.stderr}"
        return None

    def check_run(self, api, outputs):
        checks = []
        # criterion 7's bands, exactly as stated, at criterion 7's own seeds
        est = api.mc_laplace(*C7_LAPLACE, self.LAPLACE_PATHS, self.LAPLACE_STEPS, seed=20240811)
        ok = abs(est.mean - C7_LAPLACE_REF) <= 3.0 * est.stderr
        checks.append(("criterion7_laplace_band", ok,
                       f"{est.mean:.8f} vs {C7_LAPLACE_REF} (3se {3 * est.stderr:.2e})"))
        approx = api.asian_price_approx(self.asian_input).price
        mc = api.mc_asian_price(self.asian_input, self.ASIAN_PATHS, self.ASIAN_STEPS, seed=7)
        band = max(3.0 * mc.stderr, 0.02 * mc.mean)
        checks.append(("criterion7_asian_band", abs(mc.mean - approx) <= band,
                       f"{mc.mean:.4f} vs approx {approx:.4f} (band {band:.4f})"))
        # the seeded calls, pooled over the round: Asian at criterion 7's band;
        # Laplace at 5 standard errors, because a 3-se band fails for about 1
        # seed in 200 and the benchmark runs many seeds
        for kind in ("laplace", "asian"):
            ests = [o for c, o in zip(self.calls(), outputs) if c[0] == kind and o is not None]
            mean = sum(e.mean for e in ests) / len(ests)
            se = math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests)
            if kind == "laplace":
                ok, ref, band = abs(mean - C7_LAPLACE_REF) <= 5.0 * se, C7_LAPLACE_REF, 5.0 * se
            else:
                ref, band = approx, max(3.0 * se, 0.02 * mean)
                ok = abs(mean - ref) <= band
            checks.append((f"seeded_{kind}_pooled", ok,
                           f"{len(ests)} calls pooled: {mean:.8g} vs {ref:.8g} (band {band:.2e})"))
        a = api.mc_laplace(*C7_LAPLACE, 300, 64, seed=self.seed)
        b = api.mc_laplace(*C7_LAPLACE, 300, 64, seed=self.seed)
        checks.append(("same_seed_same_bits", a == b, f"{a.mean!r} vs {b.mean!r}"))
        return checks

    def named_metrics(self, summary, rounds):
        return [("path_steps_per_s", summary["throughput_per_s"], "1/s", "paths x steps x 2 signs")]


# ---------------------------------------------------------------------------
# validate_suite: what CI waits on


class ValidateSuite(Workload):
    """``run_checks(quick=False)`` then ``run_checks(quick=True)``: one operation each."""

    name = "validate_suite"
    work_unit = "checks"
    op_name = "validate command"
    EXPECTED_FAILING = frozenset({"table1_asymptotic_yields", "table3_reproduction", "series_small_b"})

    @staticmethod
    def warm(api, gb):
        # first call into each layer run_checks reaches, short of the suite itself
        api.rate_R(0.5, 0.9)
        api.rate_ibs(1.2, 0.1)
        api.bond_exact_zero_drift(0.1, 0.3, 1.0)
        api.jb_variational(0.5, 0.5)
        gb.specfun.bessel_k(1.0, 0.5)

    def ops(self, api):
        return [bench_span(api, "validate_suite.run", partial(api.run_checks, quick=q))
                for q in (False, True)]

    def run_round(self, ops):
        res = super().run_round(ops)
        res.work = float(sum(len(out) for out in res.outputs if out is not None))
        return res

    def key(self, out):
        return [(r.name, r.passed) for r in out]

    def check_op(self, i, out):
        failing = {r.name for r in out if not r.passed}
        if len(out) != 21 or failing != self.EXPECTED_FAILING:
            return f"run_checks(quick={bool(i)}): {len(out)} checks, failing {sorted(failing)}"
        return None

    def check_run(self, api, outputs):
        details = [f"quick={bool(i)}: {sorted(r.name for r in out if not r.passed)}"
                   for i, out in enumerate(outputs) if out is not None]
        ok = len(details) == 2 and all(self.check_op(i, out) is None for i, out in enumerate(outputs))
        return [("failing_set", ok, "; ".join(details))]

    def named_metrics(self, summary, rounds):
        lat = summary["op_latency"]
        return [("validate_full_s", lat[0], "s", ""), ("validate_quick_s", lat[-1], "s", "")]


WORKLOADS = {w.name: w for w in (QuoteSweep, ExactLadder, MCCrosscheck, ValidateSuite)}
