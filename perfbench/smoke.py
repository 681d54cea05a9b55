"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks that each workload prints every end-to-end metric of BENCHMARK.json
with its unit, that its output checks ran and passed, that a traced run
prints every per-layer metric with its unit and repeats its counts exactly,
and that a directory holding only the benchmark fails without a result.
Exits nonzero on the first failed assertion.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("rootfind.evals.", "dothan.lobes.", "oracles.mc.blocks", "oracles.shoot.jb_ode_steps",
          "oracles.shoot.ibs_ode_steps", "code.")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def check(cond, message):
    if not cond:
        raise SystemExit(f"smoke FAILED: {message}")


def check_result(result: dict, names: dict, label: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}")
    check(set(result["metrics"]) == set(names),
          f"{label}: metrics differ from BENCHMARK.json: {set(result['metrics']) ^ set(names)}")
    for name, unit in names.items():
        m = result["metrics"][name]
        check(m["unit"] == unit and isinstance(m["value"], (int, float)), f"{label}: {name} = {m}")


def main() -> int:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    workloads = [w["name"] for w in SPEC["workloads"]]

    proc = run(["perfbench/run.py", "--workload", "all", "--size", "tiny", "--seconds", "1", "--seed", "3"])
    check(proc.returncode == 0, f"--workload all exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    for w in workloads:
        mine = [line[len(w) + 3:] for line in lines if line.startswith(f"[{w}] ")]
        check(any(line.startswith("check PASS ") for line in mine), f"{w}: no output check ran")
        check(not any(line.startswith("check FAIL ") for line in mine), f"{w}: an output check failed")
        check_result(json.loads(mine[-1]), e2e, w)
    total = json.loads(lines[-1])
    base_names = {name.split(".", 1)[-1] for name in total["metrics"]}
    check(total["correct"] and len(base_names) == 12, f"all: {sorted(base_names)}")
    for name, m in total["metrics"].items():
        check(m["unit"], f"all: {name} has no unit")

    counts = []
    for _ in range(2):
        proc = run(["perfbench/run.py", "--workload", workloads[0], "--size", "tiny", "--seconds", "1",
                    "--seed", "3", "--trace", "1"])
        check(proc.returncode == 0, f"traced run exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        check_result(result, layer, "traced")
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k.startswith(COUNTS)})
    check(counts[0] == counts[1], f"counts differ between traced runs: {counts}")

    (HERE / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
        proc = run([*SPEC["command"][1:], "--workload", workloads[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")

    print(f"smoke OK: {len(workloads)} workloads, {len(e2e)} end-to-end and {len(layer)} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
