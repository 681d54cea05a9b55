"""Span recording around the benchmark's calls into gbmlap layers.

Spans are taken only at the boundary the benchmark itself crosses: every
public function the benchmark calls is wrapped, nothing inside the library
is patched.  A span is ``[name, layer, start, end, parent, request]`` with
times from ``time.perf_counter``; a span opened while no other span is open
starts a new request.  Spans stay in memory until ``write`` at exit.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

# layer -> public functions the workloads call; the layer probes wrap their own calls
LAYER_FUNCTIONS = {
    "ratefn": ("rate_R",),
    "asian": ("rate_ibs", "asian_price_approx"),
    "dothan": ("bond_asymptotic", "bond_exact_zero_drift", "bond_perpetual"),
    "oracles": ("mc_laplace", "mc_asian_price", "jb_variational", "ibs_variational"),
    "validation": ("run_checks",),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._request = 0

    def wrap(self, layer: str, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if not open_:
                self._request += 1
            rec = [name, layer, clock(), 0.0, open_[-1] if open_ else -1, self._request]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                open_.pop()

        return traced

    def self_seconds(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer self time over spans[first:last]: duration minus child spans."""
        chosen = self.spans[first:last]
        child = [0.0] * len(chosen)
        for rec in chosen:
            parent = rec[4] - first
            if 0 <= parent < len(chosen):
                child[parent] += rec[3] - rec[2]
        out: dict[str, float] = {}
        for rec, inner in zip(chosen, child):
            out[rec[1]] = out.get(rec[1], 0.0) + (rec[3] - rec[2]) - inner
        return out

    def write(self, path, meta: dict) -> None:
        fields = ["name", "layer", "start", "end", "parent", "request"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh)


def make_api(gb, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespace of the layer functions, wrapped in spans when ``tracer`` is given."""
    api = SimpleNamespace(tracer=tracer)
    for layer, names in LAYER_FUNCTIONS.items():
        module = getattr(gb, layer)
        for name in names:
            fn = getattr(module, name)
            setattr(api, name, tracer.wrap(layer, f"{layer}.{name}", fn) if tracer else fn)
    return api


def bench_span(api, name: str, fn):
    """Wrap a benchmark operation in a root span (layer ``bench``) when traced."""
    return api.tracer.wrap("bench", name, fn) if api.tracer else fn
