"""Every `homreflect` name the benchmark harness under `bench/` reaches still
resolves, and the report keys and call forms its answer checks read are
still there.  The harness is run outside this suite, so a deletion in the
package could otherwise break it unnoticed.  The tests only read `bench/`."""

import ast
import importlib
import json
from pathlib import Path

import pytest

from homreflect import gen_hypercube
from homreflect.cli import main, resolve_colouring

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


def _report(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_h2k_report_keys(tmp_path):
    report = _report(tmp_path, "h2k", "--host", "q3", "--k", "2")
    assert {"h2k", "h2k_float", "spectral_error_bound", "at_least_one"} <= report.keys()


def test_spectral_round_keys(tmp_path):
    report = _report(tmp_path, "experiment", "rainbow-bounds", "--host", "q3",
                     "--k-max", "2", "--spectral")
    row, = report["rounds"]
    assert {"k", "weight_float", "bound_float", "holds"} <= row.keys()


def test_resolve_colouring_takes_four_positional_arguments():
    # the witness check resolves the colouring of an operation this way
    assert resolve_colouring(gen_hypercube(3), None, None, 0).proper
