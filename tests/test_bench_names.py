"""Every `homreflect` name the benchmark harness under `bench/` reaches still
resolves.  The harness is run outside this suite, so a deletion in the
package could otherwise break it unnoticed.  The test only reads `bench/`."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _imported_names():
    """(module, name) for every `from homreflect... import name` in the
    harness's modules."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homreflect"):
                out += [(node.module, alias.name) for alias in node.names]
    return out


def _layer_stats_functions():
    """The <module>.<function> keys of the tracer's LAYER_STATS."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_STATS"]:
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py defines no LAYER_STATS")


def test_harness_imports_found():
    names = set(_imported_names())
    assert {("homreflect.homcount", "quotient_graph"),
            ("homreflect.homcount", "count_cube_homomorphisms"),
            ("homreflect.reflectivity", "verify_certificate"),
            ("homreflect.rainbow", "distinct_colour_count")} <= names


@pytest.mark.parametrize("module, name", _imported_names())
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("qualname", _layer_stats_functions())
def test_traced_function_resolves(qualname):
    module, func = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"homreflect.{module}"), func))
