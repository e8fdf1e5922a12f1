"""Answer checks for benchmark operations, run outside the timed region.

`answer` reduces a report to the values fixed by the inputs (counts, exact
weights, holds flags, per-pair `certified`, verdicts).  Work counters such
as `states_visited`, `steps` and exponents are left out, so a search that
finds a different valid certificate still passes.  `validity_problems`
checks the objects that have many valid forms: certificates are re-read and
verified, witness cycles are checked against the host colouring, and the
spectral value must lie within its error bound of the exact one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

_IDENTITY_KEYS = ("command", "parameters", "toolkit_version")


def _iroot(x: int, s: int) -> int:
    """The integer s-th root of x >= 0, or ValueError if x is not a power."""
    lo, hi = 0, 1
    while hi ** s <= x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** s < x:
            lo = mid + 1
        else:
            hi = mid
    if lo ** s != x:
        raise ValueError(f"{x} is not an exact {s}-th power")
    return lo


def _section2_checks(checks: list[dict]) -> list[dict]:
    """Amplified bounds print hom(R0)^s and hom(side)·hom^(s-1), with s set
    by the certificate found; keep the two counts instead of the powers."""
    total = next(c["lhs"] for c in checks if c["name"] == "density_lower_bound")
    out = []
    for c in checks:
        if c["name"].startswith("amplified_bound"):
            s = c["exponent"]
            side, rest = divmod(c["rhs"], total ** (s - 1))
            if rest:
                raise ValueError(f"{c['name']}: rhs is not a multiple of hom^(s-1)")
            c = {"name": c["name"], "holds": c["holds"],
                 "start_count": _iroot(c["lhs"], s), "side_count": side}
        out.append(c)
    return out


def _found(cycles: list[dict]) -> list[dict]:
    return [{k: v for k, v in c.items() if k not in ("cycle", "exhaustive")}
            | {"found": c["cycle"] is not None} for c in cycles]


def answer(report: dict) -> dict:
    """The values of a report that the inputs fix."""
    command = report["command"]
    out = {k: v for k, v in report.items() if k not in _IDENTITY_KEYS}
    if command == "certify":
        for key in ("states_visited", "steps", "amplification_exponent"):
            out.pop(key, None)
        if "pairs" in out:
            out["pairs"] = [{"start": p["start"], "certified": p["certified"]}
                            for p in out["pairs"]]
    elif command == "verify section2":
        out["checks"] = _section2_checks(out["checks"])
    elif command == "h2k":
        out.pop("h2k_float")
        out.pop("spectral_error_bound")
    if "cycles_found" in out:
        out["cycles_found"] = _found(out["cycles_found"])
    return out


def difference(expected, actual, path: str = "") -> str | None:
    """Where two answers differ, or None.  Floats (spectral sums and ratios
    derived from exact counts) agree within a relative 1e-9."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and not isinstance(expected, bool) and not isinstance(actual, bool) \
                and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            return None
        return f"{path or '.'}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{path or '.'}: keys {sorted(expected)} != {sorted(actual)}"
        for key in expected:
            found = difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path or '.'}: {len(expected)} items expected, got {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = difference(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{path or '.'}: expected {expected!r}, got {actual!r}"
    return None


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def graph_in(workdir: Path, spec: str):
    """The graph of a CLI spec, with file names taken relative to workdir."""
    from homreflect.cli import parse_graph_spec
    local = workdir / spec
    return parse_graph_spec(str(local) if local.is_file() else spec)


def _certificate_problems(graph, text: str | None, start, steps) -> list[str]:
    from homreflect.reflectivity import certificate_from_json, verify_certificate
    if text is None:
        return [f"certified start {start} has no certificate file"]
    cert = certificate_from_json(graph, text)
    ok, log = verify_certificate(graph, cert)
    problems = [] if ok else [f"certificate for {start} fails verification: {log[-1:]}"]
    if sorted(cert.start) != list(start):
        problems.append(f"certificate for {start} starts at {sorted(cert.start)}")
    if steps is not None and cert.num_steps != steps:
        problems.append(f"certificate for {start} has {cert.num_steps} steps, report says {steps}")
    return problems


def _certify_problems(argv, report, outputs, workdir) -> list[str]:
    graph, _ = graph_in(workdir, _option(argv, "--graph"))
    if "pairs" not in report:
        if not report["certified"]:
            return []
        problems = _certificate_problems(graph, outputs.get("cert.json"), report["start"],
                                         report["steps"])
        if report["amplification_exponent"] != 1 << report["steps"]:
            problems.append("amplification exponent is not 2^steps")
        return problems
    problems = []
    for pair in report["pairs"]:
        name = "certs/cert_" + "_".join(str(v) for v in pair["start"]) + ".json"
        if pair["certified"]:
            problems += _certificate_problems(graph, outputs.get(name), pair["start"],
                                              pair["steps"])
        elif name in outputs:
            problems.append(f"uncertified start {pair['start']} has a certificate file")
    return problems


def _cycle_problems(argv, report, workdir) -> list[str]:
    from homreflect.cli import resolve_colouring
    from homreflect.rainbow import distinct_colour_count, is_rainbow_cycle, is_simple_cycle
    cycles = [c for c in report.get("cycles_found", []) if c["cycle"] is not None]
    if not cycles:
        return []
    host, builtin = graph_in(workdir, _option(argv, "--host"))
    spec = _option(argv, "--colouring")
    if spec is not None and (workdir / spec).is_file():
        spec = str(workdir / spec)
    colouring = resolve_colouring(host, spec, builtin, int(_option(argv, "--seed", "0")))
    problems = []
    for c in cycles:
        seq = tuple(c["cycle"])
        if c.get("kind") == "almost-rainbow":
            eps = Fraction(_option(argv, "--epsilon"))
            ok = is_simple_cycle(host, seq) and \
                distinct_colour_count(host, colouring, seq) > (1 - eps) * len(seq)
        else:
            ok = is_rainbow_cycle(host, colouring, seq)
        if not ok:
            problems.append(f"witness {list(seq)} is not a valid {c.get('kind', 'rainbow')} cycle")
    return problems


def validity_problems(argv, report: dict, outputs: dict[str, str], workdir: Path) -> list[str]:
    """Checks of objects with many valid forms; returns what is wrong."""
    command = report["command"]
    if command == "certify":
        return _certify_problems(argv, report, outputs, workdir)
    problems = _cycle_problems(argv, report, workdir)
    if command == "h2k":
        exact = Fraction(report["h2k"])
        gap = abs(Fraction(report["h2k_float"]) - exact)
        if gap > Fraction(report["spectral_error_bound"]) + exact * Fraction(1, 10 ** 11):
            problems.append(f"spectral h2k is {float(gap):.3g} from the exact value")
        if report["at_least_one"] != (exact >= 1):
            problems.append("at_least_one disagrees with h2k")
    elif command == "verify section2":
        for c in report["checks"]:
            if c["name"].startswith("amplified_bound") and c["holds"] != (c["rhs"] >= c["lhs"]):
                problems.append(f"{c['name']}: holds flag disagrees with lhs and rhs")
    elif command == "homcount" and "injective_count" in report:
        if report["injective_count"] > report["count"]:
            problems.append("more injective homomorphisms than homomorphisms")
    return problems


def check(op, exit_code, outputs: dict[str, str], workdir: Path,
          recorded: dict | None) -> list[str]:
    """Everything wrong with one operation's outcome (empty when correct).

    `recorded` is the answer stored for these exact inputs, when there is one.
    """
    if exit_code != op.exit:
        return [f"exit code {exit_code}, expected {op.exit}"]
    if "report.json" not in outputs:
        return ["no report written"]
    try:
        report = json.loads(outputs["report.json"])
        got = answer(report)
        problems = validity_problems(list(op.argv), report, outputs, workdir)
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        return [f"malformed report: {exc!r}"]
    if recorded is not None:
        found = difference(recorded, got)
        if found:
            problems.append(f"answer differs from the recorded one at {found}")
    return problems
