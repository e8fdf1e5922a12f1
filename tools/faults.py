"""Time each command line and count the page faults it takes.

    python tools/faults.py SRC [CMDFILE] [--inputs DIR]

SRC is a directory that holds the `homreflect` package (`src/` of a
checkout).  The lines and DIR are those `tools/same_output.py` takes:
CMDFILE's `homreflect ...` lines, or without it the command block of
README.md's "Command line" section.  They run in order in one fresh
directory holding a copy of DIR's files, so later lines read the files
earlier ones wrote.  Each line runs in a fresh child interpreter that
imports `homreflect.cli` and then calls `cli.main(ARGS)`; only that call
is measured: its wall time (`time.perf_counter`) and the minor page faults
the child took during it (`ru_minflt` of `getrusage`).  One row is printed
per line, then the totals; the exit code is 1 if a child failed to report.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_output import TIMEOUT_S, _argv, command_lines, fresh_directory, readme_lines  # noqa: E402

CHILD = """
import json, resource, sys, time
from homreflect import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
started = time.perf_counter()
code = cli.main(json.loads(sys.argv[1]))
wall = time.perf_counter() - started
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
with open(sys.argv[2], "w") as fh:
    json.dump({"exit": code, "wall_s": wall, "minflt": faults}, fh)
"""


def measure(src: Path, argv: list[str], cwd: Path) -> dict | None:
    """`cli.main(argv)` in a fresh child: its exit code, wall seconds and
    minor faults, or None when the child reported nothing."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    with tempfile.TemporaryDirectory() as out:
        result = Path(out) / "result.json"
        subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), str(result)], cwd=cwd,
                       env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        return json.loads(result.read_text()) if result.exists() else None


def run(src: Path, lines: list[str], inputs: Path | None = None) -> int:
    """Measure `lines` in order; the number of lines whose child did not report."""
    failed, wall, faults = 0, 0.0, 0
    print(f"{'wall_s':>8} {'minflt':>9} {'exit':>4}  command")
    with fresh_directory(inputs) as work:
        for line in lines:
            done = measure(src, _argv(line, "text"), Path(work))
            if done is None:
                failed += 1
                print(f"{'-':>8} {'-':>9} {'-':>4}  {line}  (no result)")
                continue
            wall += done["wall_s"]
            faults += done["minflt"]
            print(f"{done['wall_s']:8.3f} {done['minflt']:9d} {done['exit']:4d}  {line}")
    print(f"{wall:8.3f} {faults:9d} {'':4}  total of {len(lines) - failed} lines")
    return failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/faults.py")
    parser.add_argument("src", type=Path)
    parser.add_argument("cmdfile", type=Path, nargs="?")
    parser.add_argument("--inputs", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    lines = command_lines(args.cmdfile) if args.cmdfile else readme_lines()
    return 1 if run(args.src, lines, args.inputs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
