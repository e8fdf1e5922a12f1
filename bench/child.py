"""Run one benchmark operation in a fresh interpreter.

Usage: python3 child.py JOB.json   (run with the operation's scratch directory as cwd)

JOB.json holds the CLI arguments, the input files to generate, the source
directory to import `homreflect` from, and whether to trace.  Set-up
(interpreter start, `import homreflect.cli`, input generation) ends where the
timed call `homreflect.cli.main` begins.  The child also times a fixed
reference kernel periodically during set-up and during the call (from a
SIGALRM handler), and a few times right before and right after
the call, so that the driver can tell how fast the shared CPU ran meanwhile.
The outcome goes to result.json in the working directory.
"""

from time import perf_counter

CHILD_START = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SETUP_SAMPLE_EVERY_S = 0.025  # set-up lasts about 0.2 s
SAMPLE_EVERY_S = 0.1
SAMPLES_AROUND = 8  # kernel runs right before and right after the call

# The reference kernel's graph: 60 vertices, v joined to 17v + 29k mod 60 for
# k = 1..7, a fixed input that no program change can touch.
_N = 60
_ADJ = [frozenset((v * 17 + k * 29) % _N for k in range(1, 8)) - {v} for v in range(_N)]


def reference_kernel() -> int:
    """About 1 ms of fixed pure-Python work of the program's kind: integer
    arithmetic and set, dict and tuple operations on a small graph."""
    total = 0
    seen: dict[tuple[int, int], int] = {}
    for a in range(_N):
        for b in _ADJ[a]:
            for c in _ADJ[b]:
                key = (a, c) if a < c else (c, a)
                seen[key] = seen.get(key, 0) + 1
                total += len(_ADJ[c] & _ADJ[a]) * (a ^ c) % 7
    return total


def reference_samples(count: int) -> list[float]:
    """Times of `count` consecutive runs of the reference kernel."""
    times = []
    for _ in range(count):
        began = perf_counter()
        reference_kernel()
        times.append(perf_counter() - began)
    return times


def main() -> None:
    samples: list[float] = []
    # homreflect uses no signals, timers or threads of its own, so the
    # handler, which runs between bytecodes, cannot change what it computes.
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.extend(reference_samples(1)))
    signal.setitimer(signal.ITIMER_REAL, SETUP_SAMPLE_EVERY_S, SETUP_SAMPLE_EVERY_S)
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from homreflect import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
        raise RuntimeError(f"imported homreflect from {cli.__file__}, not from {job['src']}")
    if job["files"]:
        from workloads import INPUT_FILES
        for name, (generator, *params) in job["files"].items():
            with open(name, "w", newline="\n") as fh:
                fh.write(INPUT_FILES[generator](*params))
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.setitimer(signal.ITIMER_REAL, 0)
    setup_end = perf_counter()
    in_setup = samples[:]
    samples.clear()
    before = reference_samples(SAMPLES_AROUND)
    error = None
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        code = cli.main(job["argv"] + ["--format", "json", "--out", "report.json"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # any failure of the program is an outcome to report
        code = None
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = perf_counter()
    after = reference_samples(SAMPLES_AROUND)
    result = {
        "child_start": CHILD_START,
        "setup_end": setup_end,
        "start": start,
        "end": end,
        "reference": {"setup": in_setup, "before": before, "during": samples,
                      "after": after},
        "exit": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_records()
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
