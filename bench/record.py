"""Record the answers the benchmark compares against.

    python3 bench/record.py --seeds 0-30 [--workload NAME ...]

Runs each operation of the given workloads once per seed (untimed), checks
its exit code and the validity of its outputs, and stores the answer in
expected.json under the operation's command line, so that later commits
are compared against the answers of the commit that recorded them.  Keys
already present are kept, not re-run.  Before a homomorphism count is
stored it is cross-checked against the separate 3-cube kernel.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import EXPECTED, SRC, WORK, load_expected, run_op
from answers import answer, check, graph_in
from workloads import WORKLOADS


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _cross_check(op, report: dict, workdir) -> list[str]:
    """hom(Q3, G) and inj(Q3, G) from count_cube_homomorphisms must agree."""
    if report["command"] != "homcount" or "--constraint" in op.argv:
        return []
    from homreflect.homcount import count_cube_homomorphisms
    host, _ = graph_in(workdir, op.argv[op.argv.index("--host") + 1])
    total, injective = count_cube_homomorphisms(host)
    problems = [] if report["count"] == total else [f"count {report['count']} != {total}"]
    if "injective_count" in report and report["injective_count"] != injective:
        problems.append(f"injective count {report['injective_count']} != {injective}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    expected = load_expected() if EXPECTED.exists() else {}
    workdir = WORK / "record"
    bad = 0
    for name in args.workload or sorted(WORKLOADS):
        table = expected.setdefault(name, {})
        for seed in _seeds(args.seeds):
            for op in WORKLOADS[name](seed):
                if op.key in table:
                    continue
                ex = run_op(op, workdir, trace=False, timeout=600)
                problems = check(op, ex["exit"], ex["outputs"], workdir, None)
                if not problems:
                    report = json.loads(ex["outputs"]["report.json"])
                    problems = _cross_check(op, report, workdir)
                if problems or ex["error"]:
                    bad += 1
                    print(f"NOT RECORDED {name} {op.key}: {ex['error'] or problems}",
                          file=sys.stderr)
                    continue
                table[op.key] = answer(report)
                print(f"recorded {name} seed {seed} {op.name} ({ex['wall_s']:.2f} s)",
                      file=sys.stderr)
                EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
