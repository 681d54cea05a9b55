"""Command-line front end.

Subcommands: ``rate`` (rate-function evaluation), ``bond`` (one quote by
any method), ``asian`` (approximation, MC benchmark, or OTM limit),
``mc`` (Laplace-transform Monte Carlo), ``reproduce`` (CSV of the
published benchmark tables and the maximum-maturity figure data), and
``validate`` (the deterministic invariant suite; ``--json`` prints its
results as one JSON list).

Exit codes: 0 success, 1 numerical failure (the message names the failing
operation), 2 argument errors, 3 validation failures, 141 (128 + SIGPIPE)
when the reader of standard output closes it early.  Single quotes are
emitted as JSON with snake_case keys; ``reproduce`` emits CSV (header row,
comma delimiter, '.' decimals, LF line endings) with the published
tables' print precision.  Monte Carlo runs only with an explicit --seed,
so every command is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

from . import __version__, asian, dothan, oracles, ratefn, reference
from .asian import AsianInputs, OptionKind
from .errors import DomainError, GbmlapError
from .model import t_max
from .validation import run_checks, table1_row, table3_row

# ArithmeticError covers float overflow and division by zero that no
# library check anticipates; they exit 1 like named errors, not with a traceback
_NUMERICAL_ERRORS = (GbmlapError, ValueError, ArithmeticError)


def _emit_json(payload: dict | list) -> None:
    # tuples in diagnostics print as lists; NaN or inf raises ValueError, not invalid JSON
    print(json.dumps(payload, indent=2, allow_nan=False))


def _mc_diagnostics(est: oracles.MCEstimate) -> dict:
    """An estimate's fields other than its mean: standard error, reproduction key and timing."""
    return {k: v for k, v in asdict(est).items() if k != "mean"}


def _cmd_rate(args, parser) -> int:
    ev = ratefn.rate_R(args.b, args.zeta)
    _emit_json(
        {
            "b": args.b,
            "zeta": args.zeta,
            "branch": ev.branch.value,
            "root": ev.root,
            "R": ev.value,
            "J_B": 2.0 * args.b * (args.b * ev.value),
            "residual": ev.residual,
            "evals": ev.evals,
        }
    )
    return 0


def _cmd_bond(args, parser) -> int:
    method = args.method
    if method != "perpetual" and args.T is None:
        parser.error(f"--T is required for method {method!r}")
    if method in ("exact", "taylor") and args.a != 0.0:
        parser.error(f"method {method!r} is defined for zero drift only (got --a {args.a})")
    if method == "asymptotic":
        q = dothan.bond_asymptotic(args.r0, args.sigma, args.a, args.T)
    elif method == "exact":
        q = dothan.bond_exact_zero_drift(args.r0, args.sigma, args.T, quad_tol=args.quad_tol)
    elif method == "small-r0":
        q = dothan.bond_small_rate(args.r0, args.sigma, args.a, args.T)
    elif method == "taylor":
        q = dothan.bond_taylor_small_T(args.r0, args.sigma, args.T)
    elif method == "perpetual":
        q = dothan.bond_perpetual(args.r0, args.sigma, args.a)
    else:  # mc
        if args.seed is None:
            parser.error("--seed is required for --method mc")
        est = oracles.mc_laplace(
            args.r0, args.sigma, args.a, args.T, args.paths, args.steps, args.seed
        )
        if not est.mean > 0.0:
            raise DomainError(f"the Monte Carlo mean underflows to {est.mean!r}, "
                              "so the yield -log(mean)/T is not finite")
        q = dothan.BondQuote(
            price=est.mean,
            method=dothan.BondMethod.MONTE_CARLO,
            yield_equiv=-math.log(est.mean) / args.T,
            diagnostics=_mc_diagnostics(est),
        )
    _emit_json(asdict(q))  # BondMethod is a str enum, so it prints as its value
    return 0


def _cmd_asian(args, parser) -> int:
    inp = AsianInputs(
        s0=args.s0, k=args.k, r=args.r, q=args.q, sigma=args.sigma, t=args.T,
        kind=OptionKind(args.kind),
    )
    if args.method == "approx":
        quote = asian.asian_price_approx(inp)
    elif args.method == "mc":
        if args.seed is None:
            parser.error("--seed is required for --method mc")
        est = oracles.mc_asian_price(inp, args.paths, args.steps, args.seed)
        quote = asian.OptionQuote(price=est.mean, method="mc", diagnostics=_mc_diagnostics(est))
    else:  # otm-limit
        a = args.r - args.q
        ev = asian._otm_rate(args.k, args.s0, args.sigma, a, args.T, inp.kind)
        quote = asian.OptionQuote(
            price=None,
            method="otm-limit",
            diagnostics={
                "log_price_limit": -ev.value,
                "scaled_by": "sigma^2*T",
                "moneyness": args.k / args.s0,
                "zeta": a * args.T,
                "branch": ev.branch.value,
            },
        )
    _emit_json(asdict(quote))
    return 0


def _cmd_mc(args, parser) -> int:
    est = oracles.mc_laplace(
        args.theta, args.sigma, args.a, args.T, args.paths, args.steps, args.seed
    )
    _emit_json(asdict(est))
    return 0


def _reproduce_rows(target: str) -> tuple[list[str], list[list[str]]]:
    if target == "table1":
        header = ["T", "sigma", "B_exact", "R_exact_pct", "R_asympt_pct"]
        rows = []
        for (T, sigma, *_) in reference.TABLE1_ROWS:
            r = table1_row(T, sigma)
            rows.append([f"{T:g}", f"{sigma:.1f}", f"{r.b_exact:.6f}",
                         f"{r.r_exact_pct:.3f}", f"{r.r_asympt_pct:.3f}"])
        return header, rows
    if target == "table3":
        header = ["T", "xi", "neg_log_B_over_T", "B_asympt", "B_reference"]
        rows = []
        for (T, *_, b_ref) in reference.TABLE3_ROWS:
            r = table3_row(T)
            rows.append([f"{T:g}", f"{r.xi:.6f}", f"{r.neg_log_b_over_t:.5f}",
                         f"{r.b_asympt:.3f}", f"{b_ref:.3f}"])
        return header, rows
    # figure1: maximum maturity for series convergence, per volatility curve
    header = ["r0", "sigma", "T_max"]
    rows = []
    for sigma in reference.FIGURE1_SIGMAS:
        for i in range(1, 41):
            r0 = 0.005 * i
            rows.append([f"{r0:.3f}", f"{sigma:.1f}", f"{t_max(r0, sigma):.4f}"])
    return header, rows


def _cmd_reproduce(args, parser) -> int:
    header, rows = _reproduce_rows(args.target)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args, parser) -> int:
    results = run_checks(quick=args.quick)
    n_pass = sum(r.passed for r in results)
    if args.json:
        _emit_json([asdict(r) for r in results])
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s): {r.detail}")
        print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmlap",
        description="Laplace-transform asymptotics for the time integral of "
        "geometric Brownian motion: bond and Asian-option pricing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="evaluate the rate function R and J_B at (b, zeta)")
    p_rate.add_argument("--b", type=float, required=True)
    p_rate.add_argument("--zeta", type=float, required=True)
    p_rate.set_defaults(run=_cmd_rate)

    p_bond = sub.add_parser("bond", help="price a zero-coupon bond")
    p_bond.add_argument("--r0", type=float, required=True)
    p_bond.add_argument("--sigma", type=float, required=True)
    p_bond.add_argument("--a", type=float, default=0.0)
    p_bond.add_argument("--T", type=float, default=None)
    p_bond.add_argument(
        "--method",
        choices=["asymptotic", "exact", "small-r0", "taylor", "perpetual", "mc"],
        default="asymptotic",
    )
    p_bond.add_argument("--quad-tol", type=float, default=1e-9)
    p_bond.add_argument("--paths", type=int, default=100_000)
    p_bond.add_argument("--steps", type=int, default=256)
    p_bond.add_argument("--seed", type=int, default=None)
    p_bond.set_defaults(run=_cmd_bond)

    p_asian = sub.add_parser("asian", help="price an arithmetic-average Asian option")
    p_asian.add_argument("--s0", type=float, required=True)
    p_asian.add_argument("--k", type=float, required=True)
    p_asian.add_argument("--r", type=float, default=0.0)
    p_asian.add_argument("--q", type=float, default=0.0)
    p_asian.add_argument("--sigma", type=float, required=True)
    p_asian.add_argument("--T", type=float, required=True)
    p_asian.add_argument("--kind", choices=["call", "put"], required=True)
    p_asian.add_argument("--method", choices=["approx", "mc", "otm-limit"], default="approx")
    p_asian.add_argument("--paths", type=int, default=100_000)
    p_asian.add_argument("--steps", type=int, default=256)
    p_asian.add_argument("--seed", type=int, default=None)
    p_asian.set_defaults(run=_cmd_asian)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate of E[exp(-theta*X_T)]")
    p_mc.add_argument("--theta", type=float, required=True)
    p_mc.add_argument("--sigma", type=float, required=True)
    p_mc.add_argument("--a", type=float, default=0.0)
    p_mc.add_argument("--T", type=float, required=True)
    p_mc.add_argument("--paths", type=int, default=100_000)
    p_mc.add_argument("--steps", type=int, default=256)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.set_defaults(run=_cmd_mc)

    p_rep = sub.add_parser("reproduce", help="emit benchmark tables / figure data as CSV")
    p_rep.add_argument("target", choices=["table1", "table3", "figure1"])
    p_rep.add_argument("--out", default=None, help="output file (default: stdout)")
    p_rep.set_defaults(run=_cmd_reproduce)

    p_val = sub.add_parser("validate", help="run the deterministic invariant suite")
    p_val.add_argument("--quick", action="store_true", help="coarse grids, no slow sweeps")
    p_val.add_argument("--json", action="store_true",
                       help="print one JSON list of {name, passed, detail, seconds}")
    p_val.set_defaults(run=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:
            sys.stdout.flush()  # --help and --version print, then exit inside parse_args
        code = args.run(args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to devnull so the exit flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _NUMERICAL_ERRORS as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
