"""Command-line frontend: seeded, file-based, reproducible experiments.

Exit codes: 0 all checks ran and every unconditional one held; 1 input
error; 2 an unconditional invariant failed (an implementation bug, not a
property of the inputs); 3 a search ended without an answer: its budget
ran out, or a certificate search met every set it can reach without a
full side, which leaves reflectivity unknown.  Reports carry exact
values as num/den strings and are byte-identical across reruns with the
same inputs; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import combinations

from . import __version__
from .graphs import (CapabilityError, EdgeColouring, Graph, GraphError,
                     direction_colouring, gen_clique_union, gen_complete,
                     gen_cycle, gen_cycle_blowup, gen_hypercube, gen_random,
                     gen_set_graph, greedy_proper_colouring,
                     rainbow_colouring, read_colouring, read_edge_list,
                     write_colouring, write_edge_list)
from .homcount import (check_final_inequality, check_reflection_inequality,
                       hom_count, injective_hom_count, sidorenko_check,
                       supersaturation_experiment)
from .rainbow import (check_pattern_chain, check_variant_chain,
                      coincidence_table, colour_deficiency, cycle_weight_sum,
                      cycle_weight_sum_spectral, find_almost_rainbow,
                      find_rainbow_cycle, float_total_bounds, require_walk_engine)
from .reflectivity import (DEFAULT_BUDGET, certificate_from_json, certificate_to_json,
                           certify_pairs, certify_reflective, enumerate_reflection_triples,
                           is_admissible, pattern_sides, reflectivity_report, verify_certificate)
from .reports import frac_str, parse_fraction, render_json, render_text

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# Graph / colouring specs
# ---------------------------------------------------------------------------

def _triangle_rainbow() -> tuple[Graph, EdgeColouring]:
    g = gen_complete(3)
    return g, rainbow_colouring(g)


# Constructor name: its generator and the kinds of its arguments.  A
# generator returns the graph, or the graph with its built-in colouring.
_GRAPH_SPECS = {
    "hypercube": (gen_hypercube, (int,)),
    "setgraph": (gen_set_graph, (int, int)),
    "random": (gen_random, (int, parse_fraction, int)),
    "clique": (gen_complete, (int,)),
    "cycle": (gen_cycle, (int,)),
    "clique-union": (gen_clique_union, (int, int)),
    "cycle-blowup": (gen_cycle_blowup, (int,)),
    "direction-cube": (direction_colouring, (int,)),
    "triangle-rainbow": (_triangle_rainbow, ()),
}


def parse_graph_spec(spec: str) -> tuple[Graph, EdgeColouring | None]:
    """A file path, qD for hypercube(D), or a constructor of _GRAPH_SPECS:
    name(args), or the bare name of one that takes no arguments."""
    spec = spec.strip()
    if os.path.exists(spec):
        return read_edge_list(spec), None
    low = spec.lower()
    if low.startswith("q") and low[1:].isdigit():
        name, args = "hypercube", [low[1:]]
    else:
        name, args = _split_call(low)
    build, kinds = _GRAPH_SPECS.get(name, (None, None))
    if build is None or (not kinds and name != low):
        raise GraphError(f"unrecognised graph spec {spec!r}")
    made = build(*_spec_args(spec, args, *kinds))
    return made if isinstance(made, tuple) else (made, None)


def _split_call(spec: str) -> tuple[str, list[str]]:
    """name(a, b, ...) as the name and its arguments; any other spec as
    itself with no arguments."""
    if "(" in spec and spec.endswith(")"):
        name, inner = spec[:-1].split("(", 1)
        args = [a.strip() for a in inner.split(",")] if inner.strip() else []
        return name.strip(), args
    return spec, []


def _spec_args(spec: str, args: list[str], *kinds) -> list:
    """The arguments of `spec`, each read by its entry of `kinds` (int or
    parse_fraction); a wrong count or an argument it cannot read raises
    GraphError."""
    if len(args) != len(kinds):
        raise GraphError(f"spec {spec!r} needs {len(kinds)} arguments")
    values = []
    for kind, arg in zip(kinds, args):
        try:
            values.append(kind(arg))
        except ValueError:
            raise GraphError(f"spec {spec!r} has a malformed argument {arg!r}") from None
    return values


def resolve_colouring(g: Graph, spec: str | None,
                      builtin: EdgeColouring | None, seed: int) -> EdgeColouring:
    if spec is None:
        return builtin if builtin is not None else greedy_proper_colouring(g, seed)
    spec = spec.strip()
    low = spec.lower()
    if low == "direction":
        if builtin is None:
            raise GraphError("direction colouring is only built into direction-cube hosts")
        return builtin
    if low == "rainbow":
        return rainbow_colouring(g)
    name, args = _split_call(low)
    if name == "greedy":
        return greedy_proper_colouring(g, _spec_args(spec, args, int)[0] if args else seed)
    if os.path.exists(spec):
        return read_colouring(g, spec)
    raise GraphError(f"unrecognised colouring spec {spec!r}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def emit(report: dict, fmt: str, out: str | None) -> None:
    text = render_json(report) if fmt == "json" else render_text(report)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def base_report(command: str, params: dict) -> dict:
    return {"command": command, "parameters": params, "toolkit_version": __version__}


def _parse_vertices(text: str) -> list[int]:
    """Vertices separated by commas or spaces; an empty item between
    commas is an error."""
    items = text.split(",")
    try:
        if not all(item.strip() for item in items):
            raise ValueError("empty item")
        return [int(tok) for item in items for tok in item.split()]
    except ValueError:
        raise GraphError(f"bad vertex list {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> tuple[None, int]:
    g, colouring = parse_graph_spec(args.graph)
    if args.colour_out and colouring is None:
        raise GraphError(f"{args.graph} has no built-in colouring to write to --colour-out")
    write_edge_list(g, args.out)
    sys.stderr.write(f"wrote {g.n} vertices, {g.edge_count()} edges to {args.out}\n")
    if colouring is not None:
        colour_out = args.colour_out or args.out + ".colours"
        write_colouring(g, colouring, colour_out)
        sys.stderr.write(f"wrote colouring to {colour_out}\n")
    return None, EXIT_OK


def cmd_certify(args) -> tuple[dict, int]:
    if args.r0 is not None and args.all_pairs:
        raise GraphError("--r0 and --all-pairs are alternatives; give one of them")
    if args.r0 is None and not args.all_pairs:
        raise GraphError("certify needs --r0 (one start) or --all-pairs")
    if args.r0 is not None and args.cert_dir:
        raise GraphError("--cert-dir holds all-pairs certificates; with --r0 use --cert-out")
    if args.r0 is None and args.cert_out:
        raise GraphError("--cert-out holds a single start's certificate; it needs --r0")
    g, _ = parse_graph_spec(args.graph)
    pattern_sides(g)
    report = base_report("certify", {"graph": args.graph, "budget": args.budget})
    if args.r0 is not None:
        r0 = _parse_vertices(args.r0)
        if len(set(r0)) != len(r0):
            raise GraphError(f"--r0 lists a vertex more than once: {args.r0!r}")
        res = certify_reflective(g, r0, budget=args.budget)
        report["start"] = sorted(r0)
        report["certified"] = res.known_reflective
        report["states_visited"] = res.states_visited
        if res.certificate is not None:
            report["steps"] = res.certificate.num_steps
            report["amplification_exponent"] = res.certificate.amplification_exponent
            if args.cert_out:
                with open(args.cert_out, "w", newline="\n") as fh:
                    fh.write(certificate_to_json(res.certificate) + "\n")
        report["summary"] = "reflective: yes" if res.known_reflective else "reflective: unknown"
        return report, EXIT_OK if res.known_reflective else EXIT_BUDGET
    rep = reflectivity_report(g, budget=args.budget)
    report["summary"] = f"reflective: {rep['verdict']}"
    report["sides_checked"] = rep["sides_checked"]
    report["side_swap_symmetry"] = rep["side_swap_symmetry"]
    report["pairs"] = [
        {"start": p["start"], "certified": p["certified"], "steps": p["steps"]}
        for p in rep["pairs"]
    ]
    if args.cert_dir:
        os.makedirs(args.cert_dir, exist_ok=True)
        for p in rep["pairs"]:
            if p["certificate"] is not None:
                name = "cert_" + "_".join(str(v) for v in p["start"]) + ".json"
                with open(os.path.join(args.cert_dir, name), "w", newline="\n") as fh:
                    fh.write(certificate_to_json(p["certificate"]) + "\n")
    return report, EXIT_OK if rep["verdict"] == "yes" else EXIT_BUDGET


def cmd_check_cert(args) -> tuple[dict, int]:
    g, _ = parse_graph_spec(args.graph)
    with open(args.cert) as fh:
        cert = certificate_from_json(g, fh.read())
    report = base_report("check-cert", {"graph": args.graph, "cert": args.cert})
    try:
        ok, log = verify_certificate(g, cert)
    except GraphError as exc:  # a swap map that is not an automorphism of the graph
        ok, log = False, [str(exc)]
    report["valid"] = ok
    report["steps"] = cert.num_steps
    report["log"] = log
    report["summary"] = "certificate: valid" if ok else "certificate: invalid"
    return report, EXIT_OK if ok else EXIT_VIOLATION


def cmd_verify_section2(args) -> tuple[dict, int]:
    if args.max_sets < 0:
        raise GraphError(f"--max-sets must be 0 (all) or positive, got {args.max_sets}")
    pattern, _ = parse_graph_spec(args.pattern)
    host, _ = parse_graph_spec(args.host)
    parts = pattern_sides(pattern)
    report = base_report("verify section2", {
        "pattern": args.pattern, "host": args.host, "max_sets": args.max_sets,
    })
    checks = [{"name": "density_lower_bound", **sidorenko_check(pattern, host)}]
    triples = enumerate_reflection_triples(pattern)
    candidates = [frozenset(c)
                  for part in parts
                  for size in range(1, len(part) + 1)
                  for c in combinations(sorted(part), size)]
    done = 0
    violations = 0
    for ti, triple in enumerate(triples):
        for r in candidates:
            if args.max_sets and done >= args.max_sets:
                break
            if not is_admissible(pattern, triple, r):
                continue
            row = check_reflection_inequality(pattern, host, triple, r)
            done += 1
            if not row["holds"]:
                violations += 1
                checks.append({"name": f"reflection_step_t{ti}_{sorted(r)}", **row})
    checks.append({"name": "reflection_steps_swept", "count": done,
                   "holds": violations == 0})
    exhausted = []
    for r0, res in certify_pairs(pattern, [parts[0]], args.budget, triples=triples):
        if res.budget_exhausted:
            exhausted.append(list(r0))
        if res.certificate is None:
            continue
        checks.append({"name": f"amplified_bound_{r0[0]}_{r0[1]}",
                       **check_final_inequality(pattern, host, res.certificate)})
    report["checks"] = checks
    ok = all(c["holds"] for c in checks)
    report["all_hold"] = ok
    if exhausted:
        report["budget_exhausted_pairs"] = exhausted
    return report, EXIT_VIOLATION if not ok else EXIT_BUDGET if exhausted else EXIT_OK


def cmd_verify_section3(args) -> tuple[dict, int]:
    eps = colour_deficiency(parse_fraction(args.epsilon)) if args.epsilon else None
    host, builtin = parse_graph_spec(args.host)
    colouring = resolve_colouring(host, args.colouring, builtin, 0)
    report = base_report("verify section3", {
        "host": args.host, "colouring": args.colouring or "auto",
        "k": args.k, "epsilon": args.epsilon,
    })
    chain = check_pattern_chain(host, colouring, args.k)
    report["weights"] = {str(j): v for j, v in chain["weights"].items()}
    report["checks"] = [dict(c) for c in chain["checks"]]
    report["unconditional_ok"] = chain["unconditional_ok"]
    report["conditional_ok"] = chain["conditional_ok"]
    cycles = []
    if not chain["conditional_ok"]:
        cycles.append({"kind": "rainbow", **_witness(host, colouring, None)})
    if eps is not None:
        variant = check_variant_chain(host, colouring, args.k, eps)
        report["variant_checks"] = [dict(c) for c in variant["checks"]]
        report["variant_conditional_ok"] = variant["conditional_ok"]
        if not variant["conditional_ok"]:
            cycles.append({"kind": "almost-rainbow", **_witness(host, colouring, eps)})
    report["cycles_found"] = cycles
    return report, EXIT_OK if chain["unconditional_ok"] else EXIT_VIOLATION


def _witness(host: Graph, colouring: EdgeColouring, eps) -> dict:
    """Search for the cycle that a failed conditional bound certifies
    (rainbow, or almost-rainbow at deficiency eps); return its report fields."""
    found = find_rainbow_cycle(host, colouring) if eps is None else \
        find_almost_rainbow(host, colouring, eps)
    return {"cycle": list(found.cycle) if found.cycle else None,
            "exhaustive": found.exhaustive}


def cmd_supersaturation(args) -> tuple[dict, int]:
    p = parse_fraction(args.p)
    rep = supersaturation_experiment(args.n, p, args.seed, args.trials)
    report = base_report("experiment supersaturation", {
        "d": 3, "n": args.n, "p": frac_str(p), "seed": args.seed, "trials": args.trials,
    })
    report.update(rep)
    return report, EXIT_OK


def cmd_rainbow_bounds(args) -> tuple[dict, int]:
    """experiment rainbow-bounds, or almost-rainbow-bounds at deficiency
    --epsilon (1/4 by default): one round of the chain per k = 2 .. k-max."""
    if args.k_max < 2:
        raise GraphError(f"--k-max must be at least 2, the first round's k; got {args.k_max}")
    if args.spectral and args.colouring:
        raise GraphError("--spectral reads no colouring; drop --colouring")
    epsilon = getattr(args, "epsilon", None)  # rainbow-bounds has no --epsilon
    eps = None if args.name == "rainbow-bounds" else \
        colour_deficiency(parse_fraction(epsilon or "1/4"))
    host, builtin = parse_graph_spec(args.host)
    if args.spectral:
        colouring, bounds = None, float_total_bounds(host, args.k_max, eps)
    else:
        require_walk_engine(host, args.k_max, coloured=True)  # the last round's, the largest
        colouring, bounds = resolve_colouring(host, args.colouring, builtin, 0), None
    report = base_report(f"experiment {args.name}", {
        "host": args.host, "colouring": args.colouring or "auto",
        "k_max": args.k_max, "epsilon": epsilon, "spectral": args.spectral,
    })
    rows = []
    ok_unconditional = True
    cycles = []
    witness = None  # the search does not depend on k: run once, at the first failing round
    for k in range(2, args.k_max + 1):
        if args.spectral:
            sp = cycle_weight_sum_spectral(host, k)
            bound = bounds[k - 2]
            rows.append({"k": k, "weight_float": sp.value, "bound_float": bound,
                         "holds": sp.value <= bound + sp.error_bound})
            continue
        if eps is None:
            chain = check_pattern_chain(host, colouring, k)
            ok_unconditional &= chain["unconditional_ok"]
        else:
            chain = check_variant_chain(host, colouring, k, eps)
        rows.append({"k": k,
                     "weight": chain["weights"][2 * k],
                     "checks": [dict(c) for c in chain["checks"]],
                     "conditional_ok": chain["conditional_ok"]})
        if not chain["conditional_ok"]:
            witness = witness or _witness(host, colouring, eps)
            cycles.append({"k": k, **witness})
    report["rounds"] = rows
    report["cycles_found"] = cycles
    report["unconditional_ok"] = ok_unconditional
    return report, EXIT_OK if ok_unconditional else EXIT_VIOLATION


def cmd_homcount(args) -> tuple[dict, int]:
    pattern, _ = parse_graph_spec(args.pattern)
    host, _ = parse_graph_spec(args.host)
    report = base_report("homcount", {
        "pattern": args.pattern, "host": args.host,
        "constraint": args.constraint, "injective": args.injective,
    })
    constraint = None if args.constraint is None else _parse_vertices(args.constraint)
    report["count"] = hom_count(pattern, host, constraint)
    if args.injective:
        report["injective_count"] = injective_hom_count(pattern, host)
    return report, EXIT_OK


def cmd_h2k(args) -> tuple[dict, int]:
    if args.colouring and not args.patterns:
        raise GraphError("--colouring colours the pattern table; it needs --patterns")
    host, builtin = parse_graph_spec(args.host)
    report = base_report("h2k", {
        "host": args.host, "k": args.k, "patterns": args.patterns,
        "colouring": args.colouring or ("auto" if args.patterns else None),
    })
    # the table first: its walk sums hold h_2k, which the next call reuses
    table = None
    if args.patterns:
        colouring = resolve_colouring(host, args.colouring, builtin, 0)
        table = coincidence_table(host, colouring, args.k)
    exact = cycle_weight_sum(host, args.k)
    spectral = cycle_weight_sum_spectral(host, args.k)
    report["h2k"] = exact
    report["h2k_float"] = spectral.value
    report["spectral_error_bound"] = spectral.error_bound
    report["at_least_one"] = exact >= 1
    if table is not None:
        report["pattern_weights"] = [
            {"i": i, "j": j, "value": table[(i, j)]}
            for (i, j) in sorted(table)
        ]
    return report, EXIT_OK if exact >= 1 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _common(p, budget=False):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    if budget:
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def _gen_arguments(g):
    g.add_argument("--graph", required=True, help="graph spec, as every command reads it")
    g.add_argument("--out", required=True, help="edge-list file")
    g.add_argument("--colour-out", help="file for the spec's built-in colouring "
                                        "(default: OUT.colours)")
    g.set_defaults(func=cmd_gen)


def _certify_arguments(c):
    c.add_argument("--graph", required=True)
    c.add_argument("--r0", help="comma-separated starting pair, e.g. 0,3")
    c.add_argument("--all-pairs", action="store_true")
    c.add_argument("--cert-out", help="certificate file (single start)")
    c.add_argument("--cert-dir", help="certificate directory (all pairs)")
    _common(c, budget=True)
    c.set_defaults(func=cmd_certify)


def _check_cert_arguments(cc):
    cc.add_argument("--graph", required=True)
    cc.add_argument("--cert", required=True, help="certificate file (JSON)")
    _common(cc)
    cc.set_defaults(func=cmd_check_cert)


def _verify_arguments(v):
    vs = v.add_subparsers(dest="suite", required=True)
    v2 = vs.add_parser("section2", help="reflection/homomorphism inequalities")
    v2.add_argument("--pattern", default="q3")
    v2.add_argument("--host", required=True)
    v2.add_argument("--max-sets", type=int, default=200,
                    help="cap on (triple, set) combinations swept (0 = all)")
    _common(v2, budget=True)
    v2.set_defaults(func=cmd_verify_section2)
    v3 = vs.add_parser("section3", help="weighted cycle inequalities")
    v3.add_argument("--host", required=True)
    v3.add_argument("--colouring")
    v3.add_argument("--k", type=int, default=2)
    v3.add_argument("--epsilon")
    _common(v3)
    v3.set_defaults(func=cmd_verify_section3)


def _experiment_arguments(e):
    es = e.add_subparsers(dest="name", required=True)
    s = es.add_parser("supersaturation", help="3-cube counts on seeded random hosts")
    s.add_argument("--n", type=int, default=40)
    s.add_argument("--p", default="7/10")
    s.add_argument("--trials", type=int, default=5)
    _common(s)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_supersaturation)
    for name, help_line in (("rainbow-bounds", "no-rainbow chain, k = 2 .. k-max"),
                            ("almost-rainbow-bounds", "almost-rainbow chain, k = 2 .. k-max")):
        r = es.add_parser(name, help=help_line)
        r.add_argument("--host", required=True)
        r.add_argument("--colouring")
        r.add_argument("--k-max", type=int, default=3)
        if name == "almost-rainbow-bounds":
            r.add_argument("--epsilon", help="colour deficiency (default 1/4)")
        r.add_argument("--spectral", action="store_true",
                       help="float bounds via the eigenvalue path (large hosts)")
        _common(r)
        r.set_defaults(func=cmd_rainbow_bounds)


def _homcount_arguments(hc):
    hc.add_argument("--pattern", required=True)
    hc.add_argument("--host", required=True)
    hc.add_argument("--constraint", help="vertices forced to one image, e.g. 0,3")
    hc.add_argument("--injective", action="store_true")
    _common(hc)
    hc.set_defaults(func=cmd_homcount)


def _h2k_arguments(h):
    h.add_argument("--host", required=True)
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--colouring")
    h.add_argument("--patterns", action="store_true")
    _common(h)
    h.set_defaults(func=cmd_h2k)


# name, help line, arguments
_COMMANDS = (
    ("gen", "write generated graph (and colouring) files", _gen_arguments),
    ("certify", "search reflection certificates", _certify_arguments),
    ("check-cert", "verify a certificate file against a graph", _check_cert_arguments),
    ("verify", "run an inequality suite", _verify_arguments),
    ("experiment", "seeded batch experiments", _experiment_arguments),
    ("homcount", "count homomorphisms", _homcount_arguments),
    ("h2k", "weighted closed-walk sums", _h2k_arguments),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is registered, so the
    top-level help and errors never change; given `command`, only that
    subcommand gets its arguments, which is all a run that names it reads."""
    top = argparse.ArgumentParser(
        prog="homreflect",
        description="Reflection certificates, homomorphism inequalities and "
                    "weighted cycle counts on concrete graphs.")
    top.add_argument("--version", action="version", version=f"homreflect {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_arguments(p)
    return top


def _command_named(argv: list[str]) -> str | None:
    """The subcommand argv names, or None.  The top-level options take no
    values, so argparse reads the first argument not starting with "-" as
    the subcommand; an argument before it that argparse reads so too is no
    subcommand name, and its error lists every name."""
    first = next((a for a in argv if not a.startswith("-")), None)
    return first if first in {name for name, _, _ in _COMMANDS} else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_command_named(argv)).parse_args(argv)
    started = time.monotonic()
    try:
        if getattr(args, "budget", 1) < 1:  # certify and verify section2
            raise GraphError(f"budget must be at least 1, got {args.budget}")
        report, code = args.func(args)
        if report is not None:
            emit(report, args.format, args.out)
    except (GraphError, CapabilityError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    sys.stderr.write(f"elapsed: {time.monotonic() - started:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
