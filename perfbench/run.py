"""gbmlap benchmark: four seeded, closed-loop, single-caller workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quote_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced rounds of the same workload
(tracing overhead), then runs the per-layer probes and writes every span
to ``perfbench/_out/``.  ``--workload all`` runs each workload in its own
process and prints the workload-specific end-to-end metrics by name.
The last line of standard output is always one JSON object.
BENCHMARK.json lists three of the four workloads: ``validate_suite``
runs only a few rounds in a run, too few for steady floors, so it is
run by hand or through ``--workload all``.

An end-to-end time is built from floors: each operation is timed in
every round, and its fastest round counts.  Floors are then scaled to
reference seconds by the fastest sample of a fixed reference task taken
during the same run (see ``calibrate.py``); the wall-clock figures are
printed beside them.  The library is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.  Timings use
``time.perf_counter``; there is no CPU pinning and no cache control.
"""

import os

# one caller and no helper threads: pin every BLAS/OpenMP pool before numpy loads
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "GBMLAP_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
WORKLOAD_NAMES = ("quote_sweep", "exact_ladder", "mc_crosscheck", "validate_suite")
MODULES = ("model", "rootfind", "ratefn", "asian", "dothan", "oracles", "validation", "cli",
           "reference", "specfun")
SETUP_PROCESSES = 7
TRACE_MAX_PAIRS = 10
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up probe)."""


def load_gbmlap() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "gbmlap" / "__init__.py").is_file():
        raise BenchError(f"no gbmlap sources under {src}")
    sys.path.insert(0, str(src))
    gb = SimpleNamespace(**{m: importlib.import_module(f"gbmlap.{m}") for m in MODULES})
    pkg = Path(sys.modules["gbmlap"].__file__).resolve()
    if src.resolve() not in pkg.parents:
        raise BenchError(f"gbmlap imported from {pkg}, not from {src}")
    return gb


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "cpu_pinning": "none",
        "cache_control": "none",
        "timer": "time.perf_counter",
    }


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError:
        return []


def tail_value(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median time of fresh processes that import gbmlap and call each layer once.

    Returns (reference seconds, wall seconds).  Each process is scaled by
    the reference samples taken just before and after it: set-up is too
    short and too few to have floors of its own.
    """
    def ref():
        return min(calibrate.sample() for _ in range(3))

    wall, scaled = [], []
    before = ref()
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        after = ref()
        wall.append(took)
        scaled.append(took * calibrate.factor([before, after]))
        before = after
    return statistics.median(scaled), statistics.median(wall)


class Checker:
    """Counts attempted and failed operations and checks; keeps round 1's outputs."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference = None
        self.first_outputs = None

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def account(self, res) -> None:
        """Check every operation of a round: round 1 against its ranges, later ones bit for bit."""
        wl = self.wl
        for msg in res.errors:
            self.add(False, msg)
        if self.reference is None:
            self.first_outputs = res.outputs
            self.reference = [None if o is None else wl.key(o) for o in res.outputs]
            for i, out in enumerate(res.outputs):
                if out is not None:
                    msg = wl.check_op(i, out)
                    self.add(msg is None, msg or "")
        else:
            for i, out in enumerate(res.outputs):
                if out is not None:
                    key = wl.key(out)
                    self.add(key == self.reference[i], f"op {i}: output {key!r} differs from round 1")
        res.outputs = None


def run_rounds(wl, ops, checker: Checker, deadline: float) -> list:
    """Run rounds while the next one, as long as the last, ends by the deadline (at least one)."""
    rounds = []
    while True:
        t0 = time.perf_counter()
        res = wl.run_round(ops)
        checker.account(res)
        rounds.append(res)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return rounds


def op_floor(rounds: list, classes: list) -> list:
    """Fastest wall time each operation reached over the run's rounds.

    Every round runs the same inputs, so an operation's fastest round is its cost
    at the quietest moment of the run; other tenants only ever add to it.
    Operations of one class cost the same by construction and share one
    floor, the fastest of all their samples.  An operation whose class
    raised in every round gets None.
    """
    best: dict = {}
    for r in rounds:
        for c, t in zip(classes, r.op_seconds):
            if t is not None and (c not in best or t < best[c]):
                best[c] = t
    return [best.get(c) for c in classes]


def summarize(rounds: list, wl, scale: float) -> dict:
    """End-to-end metrics of a run from each operation's floor, times multiplied by ``scale``.

    The round time is the sum of the floors.
    """
    floor = op_floor(rounds, wl.unit_classes(len(rounds[0].op_seconds)))
    lat = [scale * t for t in floor if t is not None]
    tail, pct = tail_value(lat)
    round_s = sum(lat)
    return {
        "op_latency": lat,
        "round_s": round_s,
        "throughput_per_s": statistics.median(r.work for r in rounds) / round_s,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "tail_note": (f"p{pct:.2f} of {len(lat)} {wl.op_name}s, each timed by its fastest "
                      f"of {len(rounds)} rounds"),
        "rounds": len(rounds),
    }


def run_checks(wl, api, checker: Checker) -> list[str]:
    lines = []
    for name, ok, detail in wl.check_run(api, checker.first_outputs):
        checker.add(ok, f"{name}: {detail}")
        lines.append(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return lines


def emit(lines: list[str], checker: Checker, metrics: dict) -> None:
    for line in lines:
        print(line)
    for msg in checker.messages:
        print(f"failure: {msg}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_untraced(args, gb, workloads, tracing) -> int:
    wl = workloads.WORKLOADS[args.workload](gb, args.seed, args.size == "tiny")
    api = tracing.make_api(gb)
    ops = wl.ops(api)
    checker = Checker(wl)
    setup, setup_wall = setup_seconds(args.workload)
    wl.warm(api, gb)
    rounds = run_rounds(wl, ops, checker, time.perf_counter() + args.seconds)
    lines = run_checks(wl, api, checker)
    refs = [x for r in rounds for x in r.refs]
    scale = calibrate.factor(refs)
    s, wall = summarize(rounds, wl, scale), summarize(rounds, wl, 1.0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "throughput_per_s": (s["throughput_per_s"], "1/s"),
        "round_s": (s["round_s"], "s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_tail_ms": (s["op_tail_ms"], "ms"),
    }
    fail_frac = checker.failed / checker.attempted
    lines = [f"machine: {json.dumps(machine())}",
             f"workload: {wl.name} seed={args.seed} seconds={args.seconds} size={args.size} "
             f"closed loop, 1 caller; {s['rounds']} rounds; work unit: {wl.work_unit}"] + lines
    lines.append(f"op_tail_ms is {s['tail_note']}")
    lines.append(f"times are in reference seconds: wall seconds x {scale:.6g}, as the reference task took "
                 f"{min(refs):.6g} s at best ({statistics.median(refs):.6g} s at the median of {len(refs)}) "
                 f"against its nominal {calibrate.REF_SECONDS} s")
    lines.append(f"wall seconds: setup_s {setup_wall:.6g}, " + ", ".join(
        f"{k} {wall[k]:.6g}" for k in ("round_s", "op_p50_ms", "op_tail_ms")) +
        f"; median wall time of a round {statistics.median(r.seconds for r in rounds):.6g} s")
    for name, value, unit, note in wl.named_metrics(s, rounds):
        lines.append(f"named {name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for name in ("setup_s", "peak_rss_mb"):
        lines.append(f"named {name} = {metrics[name][0]:.6g} {metrics[name][1]}")
    lines.append(f"named fail_frac = {fail_frac:.6g} ratio ({checker.failed}/{checker.attempted})")
    emit(lines, checker, metrics)
    return 0 if checker.failed == 0 else 1


def run_traced(args, gb, workloads, tracing, layers) -> int:
    wl = workloads.WORKLOADS[args.workload](gb, args.seed, args.size == "tiny")
    tracer = tracing.Tracer()
    api_u, api_t = tracing.make_api(gb), tracing.make_api(gb, tracer)
    ops_u, ops_t = wl.ops(api_u), wl.ops(api_t)
    checker = Checker(wl)
    wl.warm(api_u, gb)
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []
    while True:
        untraced += run_rounds(wl, ops_u, checker, 0.0)
        traced += run_rounds(wl, ops_t, checker, 0.0)
        if time.perf_counter() >= deadline or len(traced) >= TRACE_MAX_PAIRS:
            break
    loop_spans = len(tracer.spans)
    loop_self = tracer.self_seconds(0, loop_spans)
    t_med = statistics.median(r.seconds for r in traced)
    u_med = statistics.median(r.seconds for r in untraced)
    lines = run_checks(wl, api_u, checker)
    metrics, problems = layers.probe(gb, tracer, ROOT, OUT_DIR, args.seed, args.size == "tiny")
    for msg in problems:
        checker.add(False, msg)
    # paired rounds ran back to back, so the median of paired differences cancels slow drift
    pct = statistics.median((t.seconds - u.seconds) / u.seconds for t, u in zip(traced, untraced))
    metrics["trace.overhead_pct"] = (100.0 * pct, "%")
    probe_self = tracer.self_seconds(loop_spans)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    meta = {"workload": wl.name, "seed": args.seed, "machine": machine(),
            "loop_spans": loop_spans, "metrics": {k: v[0] for k, v in metrics.items()}}
    span_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write(span_file, meta)

    out = [f"machine: {json.dumps(machine())}",
           f"workload: {wl.name} seed={args.seed} traced; {len(traced)} traced and "
           f"{len(untraced)} untraced rounds; spans written to {span_file.relative_to(ROOT)}"]
    out += lines
    out.append(f"trace overhead: median traced round {t_med:.6g} s, untraced {u_med:.6g} s, "
               f"median paired difference {metrics['trace.overhead_pct'][0]:+.2f}% over {loop_spans} spans")
    for label, selfs in (("workload rounds", loop_self), ("layer probes", probe_self)):
        parts = ", ".join(f"{k} {1e3 * v:.3f}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]))
        out.append(f"self time ms ({label}): {parts}")
    for name, (value, unit) in metrics.items():
        hand = layers.BASELINE.get(name)
        out.append(f"layer {name} = {value:.6g} {unit}" + (f"   (hand baseline {hand:g})" if hand else ""))
    emit(out, checker, metrics)
    return 0 if checker.failed == 0 else 1


def run_all(args) -> int:
    """Every workload with --trace 0, each in its own process; named metrics by workload."""
    named, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            correct = False
        if not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for line in lines:
            if line.startswith("named "):
                key, rest = line[len("named "):].split(" = ", 1)
                value, unit = rest.split()[:2]
                if key in ("setup_s", "peak_rss_mb", "fail_frac"):  # reported by every workload
                    key = f"{name}.{key}"
                named[key] = (float(value), unit)
    for k, (v, u) in named.items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations per round, for the smoke test")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.setup_probe):
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    try:
        gb = load_gbmlap()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.setup_probe].warm(tracing.make_api(gb), gb)
        return 0
    try:
        if args.trace:
            return run_traced(args, gb, workloads, tracing, layers)
        return run_untraced(args, gb, workloads, tracing)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
