"""Every gbmlap name the benchmark harness in ``perfbench/`` reaches still exists.

The harness loads the modules listed in ``run.MODULES`` into a namespace
``gb`` and reaches into them as ``gb.<module>.X``, through local aliases
such as ``ratefn.X``, and through the names in ``tracing.LAYER_FUNCTIONS``.
The files are parsed, not imported, so this runs in milliseconds; without
it a deleted or renamed function shows up only when the traced run fails.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned_literal(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} no longer assigns {name}")


MODULES = _assigned_literal(PERFBENCH / "run.py", "MODULES")


def _gbmlap_path(node: ast.expr) -> tuple[str, ...] | None:
    """``("ratefn", "Branch", "HYPERBOLIC")`` for ``ratefn.Branch.HYPERBOLIC``
    or ``gb.ratefn.Branch.HYPERBOLIC``; None if the chain does not start at a module."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    names = [node.id, *reversed(attrs)] if isinstance(node, ast.Name) else []
    if "gb" in names[:2]:  # gb.<module>.X, also reached as self.gb.<module>.X
        names = names[names.index("gb") + 1:]
    return tuple(names) if len(names) >= 2 and names[0] in MODULES else None


def _reached_names() -> set[tuple[str, str, str]]:
    """(file, module, dotted attribute) for every gbmlap attribute the harness reads."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                chain = _gbmlap_path(node)
                if chain:
                    found.add((path.name, chain[0], ".".join(chain[1:])))
    layers = _assigned_literal(PERFBENCH / "tracing.py", "LAYER_FUNCTIONS")
    found.update(("tracing.py", module, name) for module, names in layers.items() for name in names)
    return found


REACHED = sorted(_reached_names())


def test_harness_reaches_the_layers():
    # the scan itself still finds the probes' solvers and the traced entry points
    modules = {(m, a) for _, m, a in REACHED}
    assert {("ratefn", "solve_lambda"), ("ratefn", "rate_R_zero_drift"),
            ("asian", "ibs_solve_xi"), ("rootfind", "solve_bracketed"),
            ("validation", "run_checks")} <= modules


@pytest.mark.parametrize("where, module, attr", REACHED,
                         ids=[f"{m}.{a}@{w}" for w, m, a in REACHED])
def test_reached_name_exists(where, module, attr):
    obj = importlib.import_module(f"gbmlap.{module}")
    for part in attr.split("."):
        assert hasattr(obj, part), (
            f"perfbench/{where} reaches gbmlap.{module}.{attr}, which no longer exists"
        )
        obj = getattr(obj, part)
