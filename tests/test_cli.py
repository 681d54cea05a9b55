import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbmlap
from gbmlap.cli import _emit_json, main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rate_json(capsys):
    code, out, _ = _run(capsys, "rate", "--b", "0.5196152422706632", "--zeta", "0.9")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"b", "zeta", "branch", "root", "R", "J_B", "residual", "evals"}
    assert payload["branch"] == "trigonometric"
    assert abs(payload["root"] - 0.507276) < 1e-6
    assert abs(payload["J_B"] - 2.0 * 0.27 * payload["R"]) < 1e-12


def test_rate_json_at_large_b(capsys):
    # the trigonometric residual read -inf here, and 2*b^2*R overflowed
    code, out, _ = _run(capsys, "rate", "--b", "1e300", "--zeta", "0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["residual"]) <= 1e-15
    assert abs(payload["J_B"] - 4e300) <= 1e-15 * 4e300


def test_rate_numerical_error_exit_code(capsys):
    code, _, err = _run(capsys, "rate", "--b", "1.0", "--zeta", "-3.0")
    assert code == 1
    assert "error in rate" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--b", "0.01", "--zeta", "2000"],
        ["rate", "--b", "1e-300", "--zeta", "0.5"],
        # b = 1 lies on the boundary locus, where R at zeta = 1e300 is not representable
        ["rate", "--b", "1", "--zeta", "1e300"],
        ["bond", "--method", "perpetual", "--r0", "0.05", "--sigma", "0.1", "--a", "-10"],
        ["bond", "--method", "taylor", "--r0", "0.1", "--sigma", "50", "--T", "1e3"],
        ["bond", "--method", "small-r0", "--r0", "0.1", "--sigma", "0.3", "--T", "1e4"],
        ["bond", "--method", "small-r0", "--r0", "0.05", "--sigma", "0.8", "--T", "30"],
        ["asian", "--s0", "100", "--k", "110", "--r", "1", "--sigma", "0.3", "--T", "1000",
         "--kind", "call"],
    ],
    ids=["rate-zeta-overflow", "rate-tiny-b", "rate-boundary-overflow", "bond-perpetual-gamma", "bond-taylor-exp",
         "bond-small-r0-moment", "bond-small-r0-divergent", "asian-forward"],
)
def test_numerical_failure_exit_code(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error in {argv[0]}: ") and err.count("\n") == 1


def test_emit_json_refuses_nan():
    with pytest.raises(ValueError):
        _emit_json({"R": float("nan")})


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_141_silently(buffered):
    env = dict(os.environ, PYTHONPATH=str(Path(gbmlap.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbmlap", "rate", "--b", "0.5", "--zeta", "0.9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("argv", [["--help"], ["rate", "--help"], ["--version"]])
def test_help_and_version_into_closed_stdout_exit_141_silently(argv):
    # argparse prints these and exits while parsing; with buffered stdout the
    # closed pipe shows only when the text is flushed
    env = dict(os.environ, PYTHONPATH=str(Path(gbmlap.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbmlap", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_bond_exact_below_resolution_exit_code(capsys):
    code, _, err = _run(
        capsys, "bond", "--method", "exact", "--r0", "5", "--sigma", "0.2", "--T", "30"
    )
    assert code == 1
    assert "absolute resolution" in err
    assert "Traceback" not in err


def test_bond_exact_degenerate_scaling_exit_code():
    # y = 2*r0/sigma^2 overflows; run in a subprocess with a timeout so a
    # quadrature that never ends fails the test instead of hanging it
    env = dict(os.environ, PYTHONPATH=str(Path(gbmlap.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "gbmlap", "bond", "--method", "exact", "--r0", "1e308",
         "--sigma", "1e-3", "--T", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error in bond: y = 2*r0/sigma^2 is inf")
    assert out.stderr.count("\n") == 1


def test_bond_zero_rate(capsys):
    code, out, _ = _run(capsys, "bond", "--r0", "0", "--sigma", "0.3", "--T", "1")
    assert code == 0
    assert json.loads(out)["price"] == 1.0


def test_bond_methods(capsys):
    for method, extra in [
        ("asymptotic", []),
        ("exact", []),
        ("small-r0", []),
        ("taylor", []),
        ("mc", ["--paths", "5000", "--steps", "32", "--seed", "9"]),
    ]:
        code, out, _ = _run(
            capsys, "bond", "--r0", "0.1", "--sigma", "0.2", "--T", "1",
            "--method", method, *extra,
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.85 < payload["price"] < 0.95
        assert abs(payload["yield_equiv"] - 0.1) < 0.02


def test_bond_exact_diagnostics(capsys):
    code, out, _ = _run(capsys, "bond", "--method", "exact", "--r0", "0.05", "--sigma", "0.5",
                        "--T", "1")
    assert code == 0
    d = json.loads(out)["diagnostics"]
    assert set(d) == {"y", "s", "amplitude", "n_lobes", "error_estimate", "n_panels",
                      "depth_cap_hits", "n_calls", "height", "x_max", "yield_error_estimate"}


def test_bond_perpetual_without_T(capsys):
    code, out, _ = _run(
        capsys, "bond", "--r0", "0.05", "--sigma", "0.5", "--method", "perpetual"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["yield_equiv"] is None
    assert abs(payload["price"] - 0.4971309377320426) < 1e-12


def test_bond_argument_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bond", "--r0", "0.1", "--sigma", "0.2", "--T", "1",
              "--method", "exact", "--a", "0.09"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bond", "--r0", "0.1", "--sigma", "0.2", "--method", "asymptotic"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bond", "--r0", "0.1", "--sigma", "0.2", "--T", "1", "--method", "mc"])
    assert exc.value.code == 2


def test_asian_methods(capsys):
    code, out, _ = _run(
        capsys, "asian", "--s0", "100", "--k", "110", "--r", "0.05", "--sigma", "0.3",
        "--T", "1", "--kind", "call",
    )
    assert code == 0
    approx = json.loads(out)
    assert set(approx["diagnostics"]) == {"sigma_ln", "a_fwd", "zeta", "moneyness", "discount_factor",
                                          "atm_limit"}
    assert approx["diagnostics"]["atm_limit"] is False
    code, out, _ = _run(
        capsys, "asian", "--s0", "100", "--k", "110", "--r", "0.05", "--sigma", "0.3",
        "--T", "1", "--kind", "call", "--method", "mc",
        "--paths", "50000", "--steps", "128", "--seed", "4",
    )
    assert code == 0
    mc = json.loads(out)
    assert abs(approx["price"] - mc["price"]) < max(3.0 * mc["diagnostics"]["stderr"], 0.02 * mc["price"])

    code, out, _ = _run(
        capsys, "asian", "--s0", "100", "--k", "200", "--sigma", "0.2",
        "--T", "1", "--kind", "call", "--method", "otm-limit",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["price"] is None
    assert abs(payload["diagnostics"]["log_price_limit"] + 0.63636749452524) < 1e-10


def test_asian_strike_out_of_float_reach_names_k(capsys):
    # k/A_fwd underflows to 0; this printed "error in asian: math domain error"
    code, out, err = _run(capsys, "asian", "--s0", "100", "--k", "5e-324", "--sigma", "0.3",
                          "--T", "1", "--kind", "put")
    assert (code, out) == (1, "")
    assert err.startswith("error in asian: ") and "k=5e-324" in err and err.count("\n") == 1


def test_mc_subcommand_deterministic(capsys):
    args = ["mc", "--theta", "0.1", "--sigma", "0.1", "--T", "1",
            "--paths", "10000", "--steps", "32", "--seed", "42"]
    code, out1, _ = _run(capsys, *args)
    assert code == 0
    _, out2, _ = _run(capsys, *args)
    # the output is the estimate and its key, plus the call's timing
    timing = {"elapsed_s", "paths_per_s"}
    payload, again = json.loads(out1), json.loads(out2)
    assert set(payload) == {"mean", "stderr", "n_paths", "n_steps", "seed"} | timing
    assert payload["elapsed_s"] > 0.0 and payload["paths_per_s"] > 0.0
    assert {k: v for k, v in payload.items() if k not in timing} == \
        {k: v for k, v in again.items() if k not in timing}


def test_mc_subcommand_rejects_counts_below_two_at_theta_zero(capsys):
    code, out, err = _run(capsys, "mc", "--theta", "0", "--sigma", "0.1", "--T", "1",
                          "--paths", "0", "--steps", "0", "--seed", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error in mc: n_paths must be >= 2")


# whole outputs; R_asympt_pct (1, 0.4), (10, 0.1) and table-3 B_asympt T=3 round a truncated cell
_TABLE1_CSV = (
    "T,sigma,B_exact,R_exact_pct,R_asympt_pct\n"
    "1,0.1,0.904853,9.998,9.998\n"
    "1,0.2,0.904898,9.993,9.993\n"
    "1,0.3,0.904976,9.985,9.985\n"
    "1,0.4,0.905087,9.972,9.974\n"
    "1,0.5,0.905235,9.956,9.959\n"
    "5,0.1,0.607799,9.958,9.959\n"
    "5,0.2,0.611650,9.832,9.840\n"
    "5,0.3,0.618183,9.619,9.655\n"
    "5,0.4,0.627431,9.322,9.421\n"
    "5,0.5,0.639230,8.950,9.155\n"
    "10,0.1,0.373968,9.836,9.840\n"
    "10,0.2,0.391646,9.374,9.421\n"
    "10,0.3,0.418920,8.701,8.869\n"
    "10,0.4,0.452708,7.925,8.282\n"
    "10,0.5,0.489961,7.134,7.714\n"
)

_TABLE3_CSV = (
    "T,xi,neg_log_B_over_T,B_asympt,B_reference\n"
    "1,0.030345,0.06272,0.939,0.939\n"
    "2,0.068373,0.06547,0.877,0.877\n"
    "3,0.112756,0.06821,0.815,0.815\n"
    "4,0.162296,0.07091,0.753,0.753\n"
    "5,0.215833,0.07354,0.692,0.693\n"
    "10,0.507276,0.08454,0.429,0.438\n"
    "15,0.777869,0.09113,0.255,0.275\n"
    "20,1.001668,0.09411,0.152,0.179\n"
)


def test_reproduce_table1(capsys):
    code, out, _ = _run(capsys, "reproduce", "table1")
    assert code == 0
    assert out == _TABLE1_CSV


def test_reproduce_table3(capsys):
    code, out, _ = _run(capsys, "reproduce", "table3")
    assert code == 0
    assert out == _TABLE3_CSV


def test_reproduce_figure1(capsys, tmp_path):
    out_file = tmp_path / "fig1.csv"
    code, out, _ = _run(capsys, "reproduce", "figure1", "--out", str(out_file))
    assert code == 0 and out == ""
    text = out_file.read_text()
    lines = text.split("\n")
    assert lines[0] == "r0,sigma,T_max"
    assert len([l for l in lines if l]) == 1 + 3 * 40
    # spot value: T_max = sqrt(2*R_b^2/(sigma^2*r0))
    assert lines[1].startswith("0.005,0.3,")
    assert abs(float(lines[1].split(",")[2]) - 44.1829) < 5e-4


def test_reproduce_unwritable_out_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "table1", "--out", str(tmp_path / "missing" / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [l for l in err.splitlines() if "error" in l] == [
        f"gbmlap: error: cannot write --out {tmp_path / 'missing' / 'x.csv'}: "
        "No such file or directory"
    ]
    assert "Traceback" not in err


def test_validate_quick(capsys):
    code, out, _ = _run(capsys, "validate", "--quick")
    lines = [l for l in out.split("\n") if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 21
    failed = {l.split()[1] for l in lines if l.startswith("FAIL")}
    # exactly the three documented published-digit deviations fail
    assert failed == {"table1_asymptotic_yields", "table3_reproduction", "series_small_b"}
    assert code == 3
    code, out, _ = _run(capsys, "validate", "--quick", "--json")
    entries = json.loads(out)
    assert [set(e) for e in entries] == [{"name", "passed", "detail", "seconds"}] * 21
    assert [e["name"] for e in entries] == [l.split()[1] for l in lines]
    assert {e["name"] for e in entries if not e["passed"]} == failed
    assert code == 3
