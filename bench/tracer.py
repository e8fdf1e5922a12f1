"""Per-layer tracing of `homreflect` from outside the package.

`Tracer.install` wraps the functions named in `LAYER_STATS` and rebinds each
name in every `homreflect.*` module that holds it, since `cli`, `homcount`
and `reflectivity` import names from one another directly.  Every call
becomes a span (name, parent span, start, end) kept in memory; a span's self
time is its duration minus the durations of the traced calls inside it.
Counters are read from arguments and return values after the span has
closed, and their cost is kept out of every span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Traced functions, as <module>.<function>, and the statistics each reports.
LAYER_STATS = {
    "automorphisms.enumerate_automorphisms": ("calls", "self_s", "repeat_calls", "group_order"),
    "reflectivity.enumerate_reflection_triples": ("calls", "self_s", "triples"),
    "reflectivity.certify_reflective": ("calls", "self_s", "states_visited", "certified"),
    "reflectivity.reflectivity_report": ("self_s",),
    "reflectivity.verify_certificate": ("self_s",),
    "homcount.hom_count": ("calls", "distinct_calls", "self_s", "nonbipartite_calls",
                           "nonbipartite_s"),
    "homcount.injective_hom_count": ("self_s",),
    "homcount.count_cube_homomorphisms": ("self_s",),
    "homcount.sidorenko_check": ("self_s",),
    "homcount.check_reflection_inequality": ("self_s",),
    "homcount.check_final_inequality": ("self_s",),
    "rainbow.cycle_weight_sum": ("calls", "self_s"),
    "rainbow.coincidence_table": ("calls", "self_s"),
    "rainbow.check_pattern_chain": ("calls", "self_s"),
    "rainbow.check_variant_chain": ("calls", "self_s"),
    "rainbow.cycle_weight_sum_spectral": ("calls", "self_s"),
    "rainbow.find_rainbow_cycle": ("calls", "self_s", "found"),
    "rainbow.find_almost_rainbow": ("calls", "self_s", "found"),
    "cli.main": ("self_s",),
    "cli.parse_graph_spec": ("self_s",),
    "reports.render_json": ("self_s",),
    "graphs.read_edge_list": ("self_s",),
    "graphs.gen_random": ("self_s",),
    "graphs.greedy_proper_colouring": ("self_s",),
    "graphs.validate_colouring": ("self_s",),
}

# The exact walk-sum functions.  The time of the outermost such call is
# split by whether its host is regular (int64 engine) or not (Fraction engine).
EXACT_WALKS = ("rainbow.cycle_weight_sum", "rainbow.coincidence_table",
               "rainbow.check_pattern_chain", "rainbow.check_variant_chain")
EXACT_SPLIT = ("rainbow.exact.regular_host_s", "rainbow.exact.irregular_host_s")

LAYER_METRICS = [f"{fn}.{stat}" for fn, stats in LAYER_STATS.items() for stat in stats] \
    + list(EXACT_SPLIT)


def _is_bipartite(adj) -> bool:
    # Graph.bipartition caches its answer on the graph object; this check
    # leaves the program's own objects untouched.
    side: dict[int, int] = {}
    for root in range(len(adj)):
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def _count_automorphisms(tracer, stats, args, result, seconds):
    graph = args["h"]
    seen = tracer.memo["automorphisms"]
    key = (graph.n, graph.adj)
    if key in seen:
        stats["repeat_calls"] += 1
    seen[key] = True
    stats["group_order"] += len(result)


def _count_triples(tracer, stats, args, result, seconds):
    stats["triples"] += len(result)


def _count_search(tracer, stats, args, result, seconds):
    stats["states_visited"] += result.states_visited
    stats["certified"] += int(result.known_reflective)


def _count_hom(tracer, stats, args, result, seconds):
    """Distinct arguments, and whether the (quotient) pattern leaves the
    bipartite kernels for backtracking."""
    constraint = args.get("constraint")
    pattern, host = args["h"], args["g"]
    group = None if constraint is None else frozenset(constraint)
    seen = tracer.memo["hom_count"]
    key = (pattern.n, pattern.adj, host.n, host.adj, group)
    if key not in seen:
        stats["distinct_calls"] += 1
        if group is not None:
            from homreflect.homcount import quotient_graph
            pattern = quotient_graph(pattern, group)
        seen[key] = not _is_bipartite(pattern.adj)
    if seen[key]:
        stats["nonbipartite_calls"] += 1
        stats["nonbipartite_s"] += seconds


def _count_found(tracer, stats, args, result, seconds):
    stats["found"] += int(result.found)


def _split_exact(tracer, stats, args, result, seconds):
    if any(tracer.spans[index][0] in EXACT_WALKS for index, _ in tracer.open):
        return  # counted with the enclosing exact call
    degrees = {len(nbrs) for nbrs in args["g"].adj}
    tracer.extra[EXACT_SPLIT[0] if len(degrees) == 1 else EXACT_SPLIT[1]] += seconds


COUNTERS = {
    "automorphisms.enumerate_automorphisms": _count_automorphisms,
    "reflectivity.enumerate_reflection_triples": _count_triples,
    "reflectivity.certify_reflective": _count_search,
    "homcount.hom_count": _count_hom,
    "rainbow.find_rainbow_cycle": _count_found,
    "rainbow.find_almost_rainbow": _count_found,
    **{name: _split_exact for name in EXACT_WALKS},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.open: list[list] = []           # [span index, seconds in traced children]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.extra = defaultdict(float)
        self.memo = defaultdict(dict)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "homreflect" or name.startswith("homreflect.")]
        for qualname in LAYER_STATS:
            module_name, func = qualname.split(".")
            original = getattr(importlib.import_module(f"homreflect.{module_name}"), func)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)

    def _wrap(self, qualname, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(qualname)
        stats = self.stats[qualname]

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([qualname, self.open[-1][0] if self.open else -1, 0.0, 0.0])
            frame = [index, 0.0]
            self.open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.open.pop()
                self.spans[index][2:] = [start, end]
                stats["calls"] += 1
                stats["self_s"] += (end - start) - frame[1]
                if self.open:
                    self.open[-1][1] += end - start
            if counter is not None:
                began = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, stats, bound.arguments, result, end - start)
                if self.open:
                    self.open[-1][1] += perf_counter() - began
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out = {}
        for qualname, names in LAYER_STATS.items():
            for stat in names:
                value = self.stats[qualname][stat]
                out[f"{qualname}.{stat}"] = value if stat.endswith("_s") else int(value)
        for name in EXACT_SPLIT:
            out[name] = self.extra[name]
        return out

    def span_records(self) -> list[list]:
        """Spans with times relative to the first one, in seconds."""
        origin = self.spans[0][2] if self.spans else 0.0
        return [[name, parent, start - origin, end - origin]
                for name, parent, start, end in self.spans]
