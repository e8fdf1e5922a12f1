"""Write the benchmark's operations as `homreflect ...` command lines.

    python tools/bench_lines.py SEED DIR

Every operation of every workload in bench/workloads.py at SEED, in the
order of its WORKLOADS table, becomes one line of DIR/lines.txt.  The input
files an operation reads are written into DIR under names unique to it,
`op4_host.edges` for the `host.edges` of the operation on line 4, and its
line names them.  bench/workloads.py is only read.  The lines then run on
the benchmark's own traffic:

    python tools/same_output.py OLD_SRC NEW_SRC DIR/lines.txt --inputs DIR
    python tools/faults.py SRC DIR/lines.txt --inputs DIR
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in bench/
from workloads import INPUT_FILES, WORKLOADS  # noqa: E402
sys.dont_write_bytecode = _write_bytecode


def write_lines(seed: int, directory: Path) -> list[str]:
    """Write the input files and DIR/lines.txt; the lines written."""
    directory.mkdir(parents=True, exist_ok=True)
    ops = [op for workload in WORKLOADS.values() for op in workload(seed)]
    lines = []
    for number, op in enumerate(ops, 1):
        renamed = {name: f"op{number}_{name}" for name in op.files}
        for name, (generator, *params) in op.files.items():
            (directory / renamed[name]).write_text(INPUT_FILES[generator](*params), newline="\n")
        lines.append(shlex.join(["homreflect"] + [renamed.get(word, word) for word in op.argv]))
    (directory / "lines.txt").write_text("".join(line + "\n" for line in lines), newline="\n")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/bench_lines.py")
    parser.add_argument("seed", type=int)
    parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    lines = write_lines(args.seed, args.directory)
    print(f"{len(lines)} lines in {args.directory / 'lines.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
