"""Compare what two source trees of homreflect do on the same command lines.

    python tools/same_output.py OLD_SRC NEW_SRC [CMDFILE] [--inputs DIR]

OLD_SRC and NEW_SRC are directories that hold the `homreflect` package
(`src/` of two checkouts).  CMDFILE holds one `homreflect ...` command line
per line; blank lines and lines starting with `#` are skipped.  Without it
the lines are the command block of README.md's "Command line" section.

The lines run in order, each as `python -m homreflect.cli ARGS`, in one
fresh directory per tree and per report format, which starts as a copy of
DIR's files (say, the input files a CMDFILE's lines read): once as written,
and once with `--format json` added to every command but `gen`, so later
lines read the files earlier ones wrote.  After each command the two trees' exit
codes, stdout, stderr without its `elapsed:` lines, and every file in the
directory are compared.  Each difference is printed; the exit code is 1 if
there was any, else 0.
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
TIMEOUT_S = 600


def readme_lines(path: Path = README) -> list[str]:
    """The command lines of the first sh block after the "## Command line" heading."""
    text = path.read_text().split("\n## Command line\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("homreflect ")]


def command_lines(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text().splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def _argv(line: str, fmt: str) -> list[str]:
    words = shlex.split(line, comments=True)
    if words[:1] != ["homreflect"]:
        raise SystemExit(f"not a homreflect command line: {line!r}")
    argv = words[1:]
    if fmt == "json" and argv[:1] != ["gen"] and "--format" not in argv:
        argv += ["--format", "json"]
    return argv


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _run(src: Path, argv: list[str], cwd: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    done = subprocess.run([sys.executable, "-m", "homreflect.cli", *argv], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=TIMEOUT_S)
    stderr = b"".join(ln for ln in done.stderr.splitlines(keepends=True)
                      if not ln.startswith(b"elapsed:"))
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": stderr,
            "files": _files(cwd)}


def _differences(old: dict, new: dict) -> list[str]:
    out = [f"exit code: {old['exit code']} != {new['exit code']}"] \
        if old["exit code"] != new["exit code"] else []
    for field in ("stdout", "stderr"):
        if old[field] != new[field]:
            pairs = zip(old[field].splitlines() + [b""], new[field].splitlines() + [b""])
            a, b = next((a, b) for a, b in pairs if a != b)
            out.append(f"{field}, first different line: {a!r} != {b!r}")
    for name in sorted(old["files"].keys() | new["files"].keys()):
        if old["files"].get(name) != new["files"].get(name):
            out.append(f"file {name}: differs" if name in old["files"] and name in new["files"]
                       else f"file {name}: written by one tree only")
    return out


def fresh_directory(inputs: Path | None) -> tempfile.TemporaryDirectory:
    """A temporary directory holding a copy of the files of `inputs`, if given."""
    work = tempfile.TemporaryDirectory()
    if inputs is not None:
        shutil.copytree(inputs, work.name, dirs_exist_ok=True)
    return work


def compare(old_src: Path, new_src: Path, lines: list[str], inputs: Path | None = None) -> int:
    """Run `lines` on both trees in both formats; the number of commands
    whose outcomes differ, each difference printed."""
    differing = 0
    for fmt in ("text", "json"):
        with fresh_directory(inputs) as old_dir, fresh_directory(inputs) as new_dir:
            for line in lines:
                argv = _argv(line, fmt)
                old = _run(old_src, argv, Path(old_dir))
                new = _run(new_src, argv, Path(new_dir))
                found = _differences(old, new)
                if found:
                    differing += 1
                    print(f"[{fmt}] homreflect {shlex.join(argv)}")
                    for text in found:
                        print(f"  {text}")
    print(f"{2 * len(lines)} runs per tree, {differing} with differences")
    return differing


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/same_output.py")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("cmdfile", type=Path, nargs="?")
    parser.add_argument("--inputs", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    lines = command_lines(args.cmdfile) if args.cmdfile else readme_lines()
    return 1 if compare(args.old_src, args.new_src, lines, args.inputs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
