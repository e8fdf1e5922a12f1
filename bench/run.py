"""Benchmark driver for homreflect.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Runs the named workload's CLI operations (see workloads.py) one at a time,
each in a fresh interpreter in its own scratch directory under .bench_work/,
and repeats the whole list while one more pass, as long as the last one,
still fits in --seconds (at least one pass).  Every outcome is checked
outside the timed region (answers.py).  End-to-end times are in reference
seconds: each operation's wall time is scaled by how fast the shared CPU ran
while it ran, as measured by a fixed reference kernel that the child samples
before, during and after it (child.py).  The last line of standard output
is the result: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of traced passes, which alternate with untraced ones.  The
line before it holds the provenance and per-operation diagnostics, with the
raw wall-clock times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
HARD_LIMIT_S = 165.0  # a run must end within 180 s, whatever the program does
# The median time of one run of child.reference_kernel in the benchmark's
# children on the 2-core box the benchmark was defined on (262 operation runs;
# 1.1 ms on an unloaded core).  That box swings between speeds about 1.8x
# apart within seconds, so an operation's time in reference seconds is its
# wall time times the CPU's mean speed, REFERENCE_S / (the kernel's time),
# over the kernel runs the child sampled while the operation ran.
REFERENCE_S = 0.002

sys.path.insert(0, str(BENCH))
from answers import check  # noqa: E402
from child import SAMPLE_EVERY_S, SETUP_SAMPLE_EVERY_S  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {name: "s" if name.endswith("_s") else "count"
             for name in LAYER_METRICS + ["trace.overhead_s"]}
_NOT_OUTPUTS = {"job.json", "result.json", "stderr.txt"}


def run_op(op, opdir: Path, trace: bool, timeout: float) -> dict:
    """Run one operation in a fresh child process.

    `wall_s` and `setup_s` are wall-clock seconds; `solve_s` and `ref_setup_s`
    are the same in reference seconds (see REFERENCE_S)."""
    no_samples = {"setup": [], "before": [REFERENCE_S], "during": [], "after": [REFERENCE_S]}
    shutil.rmtree(opdir, ignore_errors=True)
    opdir.mkdir(parents=True)
    job = {"argv": list(op.argv), "files": op.files, "src": str(SRC), "trace": trace}
    (opdir / "job.json").write_text(json.dumps(job))
    if timeout <= 0:
        return {"exit": None, "error": "not run: the run's time limit was reached",
                **_times(0.0, 0.0, no_samples), "rss_mb": 0.0, "outputs": {}}
    with open(opdir / "stderr.txt", "w") as err:
        spawned = perf_counter()
        try:
            subprocess.run([sys.executable, str(BENCH / "child.py"), "job.json"], cwd=opdir,
                           stdin=subprocess.DEVNULL, stdout=err, stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            pass  # run() has killed and reaped the child; no result.json follows
        finished = perf_counter()
    try:
        result = json.loads((opdir / "result.json").read_text())
    except FileNotFoundError:
        tail = (opdir / "stderr.txt").read_text()[-400:]
        return {"exit": None, "error": f"child left no result: {tail}",
                **_times(0.0, finished - spawned, no_samples),
                "rss_mb": 0.0, "outputs": {}}
    outputs = {}
    for path in sorted(opdir.rglob("*")):
        name = path.relative_to(opdir).as_posix()
        if path.is_file() and name not in _NOT_OUTPUTS and name not in op.files:
            outputs[name] = path.read_text()
    return {
        "exit": result["exit"],
        "error": result["error"],
        **_times(result["setup_end"] - spawned, result["end"] - result["start"],
                 result["reference"]),
        "rss_mb": result["maxrss_kb"] / 1024,
        "outputs": outputs,
        "layers": result.get("layers"),
        "spans": result.get("spans"),
    }


def _speed(times: list[float]) -> float:
    return sum(REFERENCE_S / t for t in times) / len(times)


def _scaled(seconds: float, speed: float, samples: int, period: float) -> float:
    """`seconds` of wall time in reference seconds.

    The SIGALRM handler waits while a native call (numpy) holds the
    interpreter, so `samples` taken every `period` cover only part of an
    operation that spends long stretches in native code.  That part is
    scaled by the measured speed; the rest, whose speed the kernel does not
    measure, is counted as it is."""
    covered = min(1.0, (samples + 1) * period / seconds) if seconds > 0 else 1.0
    return seconds * (covered * speed + 1.0 - covered)


def _times(setup_elapsed: float, elapsed: float, reference: dict[str, list[float]]) -> dict:
    """Raw and reference-second times of one operation.

    The kernel runs sampled during set-up and during the call are taken out
    of their wall times.  Set-up is scaled by the CPU's mean speed over the
    runs during it and the block of runs right after it; the call by the
    mean over the runs during it and the blocks right before and right after
    it.  A block counts as one run, with its mean speed."""
    def speed(blocks: list[list[float]], each: list[float]) -> float:
        speeds = [_speed(b) for b in blocks] + [REFERENCE_S / t for t in each]
        return sum(speeds) / len(speeds)

    setup = setup_elapsed - sum(reference["setup"])
    wall = elapsed - sum(reference["during"])
    setup_speed = speed([reference["before"]], reference["setup"])
    call_speed = speed([reference["before"], reference["after"]], reference["during"])
    return {"setup_s": setup, "wall_s": wall,
            "ref_setup_s": _scaled(setup, setup_speed, len(reference["setup"]),
                                   SETUP_SAMPLE_EVERY_S),
            "solve_s": _scaled(wall, call_speed, len(reference["during"]), SAMPLE_EVERY_S),
            "speed": call_speed, "samples": len(reference["during"])}


def _digest(outputs: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            ops=None, expected: dict | None = None) -> tuple[dict, dict]:
    """Run passes of the workload and return (result line, diagnostics)."""
    ops = WORKLOADS[workload](seed) if ops is None else ops
    recorded = (load_expected() if expected is None else expected).get(workload, {})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rundir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    begin = perf_counter()
    passes: dict[bool, list[list[dict]]] = {False: [], True: []}
    first_digest: dict[int, str] = {}
    verdicts: dict[tuple, list[str]] = {}
    failures: list[str] = []
    attempted = failed = 0
    while True:
        round_start = perf_counter()
        for traced in (False, True) if trace else (False,):
            executions = []
            for i, op in enumerate(ops):
                ex = run_op(op, rundir / f"op{i}", traced,
                            HARD_LIMIT_S - (perf_counter() - begin))
                digest = _digest(ex["outputs"])
                key = (i, ex["exit"], digest)
                if ex["error"]:
                    problems = [ex["error"].strip().splitlines()[-1]]
                else:
                    if key not in verdicts:
                        verdicts[key] = check(op, ex["exit"], ex["outputs"], rundir / f"op{i}",
                                              recorded.get(op.key))
                    problems = verdicts[key]
                if first_digest.setdefault(i, digest) != digest:
                    problems = problems + ["outputs differ from the first run of this operation"]
                attempted += 1
                if problems:
                    failed += 1
                    failures.append(f"{op.name} ({'traced' if traced else 'untraced'}): "
                                    + "; ".join(problems))
                executions.append(ex)
            passes[traced].append(executions)
        now = perf_counter()
        if (now - begin) + (now - round_start) > min(seconds, HARD_LIMIT_S / 2):
            break
    shutil.rmtree(rundir, ignore_errors=True)

    def per_pass(traced: bool, field: str) -> float:
        """Median over passes of one pass's total of a field."""
        return median(sum(ex[field] for ex in p) for p in passes[traced])

    solve = per_pass(False, "solve_s")
    if trace:
        metrics = {}
        for name in LAYER_METRICS:
            metrics[name] = median(sum((ex.get("layers") or {}).get(name, 0) for ex in p)
                                   for p in passes[True])
        metrics["trace.overhead_s"] = per_pass(True, "solve_s") - solve
        units = PER_LAYER
    else:
        metrics = {"solve_s": solve, "setup_s": per_pass(False, "ref_setup_s"),
                   "peak_rss_mb": max(ex["rss_mb"] for p in passes[False] for ex in p)}
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    diagnostics = {
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
        "raw_wall_s": per_pass(False, "wall_s"),
        "raw_setup_s": per_pass(False, "setup_s"),
        "answers_recorded": sum(op.key in recorded for op in ops),
        "operations": [
            {"name": op.name, "argv": list(op.argv),
             "wall_s": [p[i]["wall_s"] for p in passes[False]],
             "setup_s": [p[i]["setup_s"] for p in passes[False]],
             "speed": [p[i]["speed"] for p in passes[False]],
             "samples": [p[i]["samples"] for p in passes[False]],
             "traced_wall_s": [p[i]["wall_s"] for p in passes[True]],
             "rss_mb": max(p[i]["rss_mb"] for p in passes[False])}
            for i, op in enumerate(ops)
        ],
    }
    if trace:
        diagnostics["spans"] = {op.name: passes[True][-1][i].get("spans")
                                for i, op in enumerate(ops)}
    return result, diagnostics


def _blas() -> dict:
    """BLAS library and its thread count as this interpreter loads it."""
    import ctypes

    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        info["blas"] = None
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["blas_threads"] = getattr(lib, symbol)()
                return info
    return info


def provenance(workload: str, seed: int, seconds: float, trace: bool, load: tuple) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "homreflect").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), **_blas(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load), "platform": platform.platform(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homreflect" / "cli.py").is_file():
        sys.stderr.write(f"error: no homreflect sources under {SRC}; "
                         "run from the root of a homreflect checkout\n")
        return 2
    load = os.getloadavg()
    result, diagnostics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {"provenance": provenance(args.workload, args.seed, args.seconds,
                                     bool(args.trace), load),
            "diagnostics": diagnostics}
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**info, "result": result}, indent=1))
    info["diagnostics"] = {k: v for k, v in diagnostics.items() if k != "spans"}
    info["diagnostics"]["written_to"] = str(out.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
