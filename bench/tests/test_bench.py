"""Self-test of the benchmark: python3 -m pytest bench/tests -q (from the repo root)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# One short operation of each workload, with answers recorded for seed 1.
SHORT = {"certify": "q4", "hom-sweep": "setgraph-1-4-random-8",
         "hom-large": "q3-random-64", "walks": "section3-clique-27"}


def short_op(workload: str, seed: int = 1):
    return next(op for op in WORKLOADS[workload](seed) if op.name == SHORT[workload])


def test_spec_names_the_implemented_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reports_identical_with_and_without_tracing(workload, tmp_path):
    op = short_op(workload)
    plain = run.run_op(op, tmp_path / "plain", trace=False, timeout=120)
    traced = run.run_op(op, tmp_path / "traced", trace=True, timeout=120)
    assert plain["error"] is None and traced["error"] is None
    assert plain["exit"] == traced["exit"] == op.exit
    assert "report.json" in plain["outputs"]
    assert plain["outputs"] == traced["outputs"]
    assert plain["speed"] > 0 and 0 < plain["solve_s"]
    assert traced["layers"]["cli.main.self_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed(workload, trace, monkeypatch, capsys):
    op = short_op(workload)
    monkeypatch.setitem(run.WORKLOADS, workload, lambda seed: [op])
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_corrupted_expected_answer_is_a_failure():
    op = short_op("hom-large")
    answer = copy.deepcopy(run.load_expected()["hom-large"][op.key])
    answer["count"] += 1
    result, diagnostics = run.measure("hom-large", 1, 0, False, ops=[op],
                                      expected={"hom-large": {op.key: answer}})
    assert result["failed"] == 1 and not result["correct"]
    assert diagnostics["error_rate"] == 1.0
    assert ".count" in diagnostics["failures"][0]


def test_wrong_exit_code_is_a_failure():
    op = short_op("certify")
    wrong = type(op)(op.name, op.argv, exit=3)
    result, diagnostics = run.measure("certify", 1, 0, False, ops=[wrong])
    assert result["failed"] == 1
    assert "exit code 0" in diagnostics["failures"][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
