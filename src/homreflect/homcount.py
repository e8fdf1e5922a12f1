"""Exact homomorphism counting, with and without identification constraints.

hom(H, G) is the number of edge-preserving maps V(H) -> V(G); the
constrained variant counts only the maps sending a prescribed vertex set of
H to a single host vertex, and is evaluated as the plain count of the
quotient pattern.  One kernel counts every pattern: variable elimination
over the pattern's vertices in which every factor is a host-indexed vector
or matrix (Diaz, Serna and Thilikos, "Counting H-colorings of partial
k-trees", TCS 2002).  A vertex with at most two neighbours left is summed
out; when every vertex left has three or more, the kernel conditions on one
of them and loops over its host images.  The plan, and with it the one work
cap, depends on the pattern alone and is checked before any array exists.
The arithmetic runs through homreflect.exact: plain float64 while every
partial count stays below 2^53, float64 residues modulo enough primes past
it.
Injective counts are the Moebius inversion of hom over the partitions of
V(H) into independent blocks (Curticapean, Dell and Marx, "Homomorphisms
are a good basis for counting small subgraphs", STOC 2017).  Only the
isomorphism class of a quotient matters, so the weights are summed per
class, once per pattern, and the kernel runs once per class: 25 counts for
the 3-cube's 354 partitions.

hom_count memoises its counts per (quotient vertex count and edge set, host)
in one least-recently-used table of _MEMO_SIZE entries and builds a pattern
graph only on a miss, so a reflection sweep (`verify section2`) runs the
kernel once per distinct quotient instead of four times per step; injective
counts share the table, one entry per class representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from statistics import median

import numpy as np

from .automorphisms import _signatures, find_isomorphism
from .exact import Exact, adjacency
from .graphs import (CapabilityError, Graph, GraphError, edge_density, gen_hypercube, gen_random,
                     make_graph)
from .reflectivity import ReflectionCertificate, ReflectionTriple, reflect_set, verify_certificate

_PATTERN_CAP = 16
_WORK_CAP = 3 * 10 ** 8
_MEMO_SIZE = 4096


def quotient_graph(h: Graph, group) -> Graph:
    """Identify the vertices of `group` to one vertex, collapsing parallel
    edges; the group must be independent in H or the quotient would need a
    loop."""
    return make_graph(*_quotient_key(h.edges(), _blocks(h, group)))


def _blocks(h: Graph, group) -> list[int]:
    """The block of each vertex of H, numbered by their smallest vertex,
    once the non-empty independent set `group` is one vertex."""
    group = frozenset(group)
    if not group:
        raise GraphError("cannot quotient by an empty set")
    if not group <= frozenset(range(h.n)):
        raise GraphError("quotient set contains unknown vertices")
    for u in group:
        if h.adj[u] & group:
            raise GraphError("quotient set is not independent (self-loop would arise)")
    rep = min(group)
    ids: dict[int, int] = {}
    return [ids.setdefault(rep if v in group else v, len(ids)) for v in range(h.n)]


def _quotient_key(edges, block_of) -> tuple[int, frozenset]:
    """The vertex count and edge set of the quotient of the graph with
    these edges, without building it; parallel edges collapse."""
    return (max(block_of, default=-1) + 1,
            frozenset((block_of[u], block_of[v]) if block_of[u] < block_of[v]
                      else (block_of[v], block_of[u]) for u, v in edges))


def hom_count(h: Graph, g: Graph, constraint=None) -> int:
    """Number of homomorphisms H -> G, optionally with every vertex of
    `constraint` forced to a common image.  Counts are memoised per
    (quotient key, host); a CapabilityError is raised again on every
    call, never stored."""
    if h.n > _PATTERN_CAP:
        raise CapabilityError(f"pattern size capped at {_PATTERN_CAP} vertices")
    blocks = range(h.n) if constraint is None else _blocks(h, constraint)
    return _memoised_count(_quotient_key(h.edges(), blocks), g)


@lru_cache(maxsize=_MEMO_SIZE)
def _memoised_count(key: tuple[int, frozenset], g: Graph) -> int:
    h = make_graph(*key)
    plans = [(comp, _plan(h, comp)) for comp in h.components()]
    conditioned = [sum(step[2] for step in steps) for _, steps in plans]
    if g.n ** (max(conditioned, default=0) + 2) > _WORK_CAP:
        raise CapabilityError("assignment enumeration exceeds the budget cap")
    matrices = max((_matrices_held(steps) for _, steps in plans), default=1)
    exact = Exact(g.n ** (h.n - sum(conditioned)), g.n, matrices)
    adj = exact.lift(adjacency(g))
    ones = exact.lift(np.ones(g.n))
    total = 1
    for comp, steps in plans:
        binary = {(u, v): adj for u, v in h.edges() if u in comp}
        total *= _eliminate(exact, steps, 0, {}, binary, ones)
    return total


def _plan(h: Graph, comp) -> list[tuple[int, tuple[int, ...], bool]]:
    """The elimination of one connected component, from the pattern alone.

    Each step (v, around, conditioned) removes v from the interaction
    graph: the pattern's edges plus the pairs that earlier steps joined,
    `around` being v's neighbours there.  A vertex with at most two
    neighbours is summed out, fewest neighbours first and the smaller label
    on ties; summing out a vertex with two neighbours joins them.  When
    every vertex left has three or more, the step conditions on a vertex of
    the most neighbours, taken from the smaller side X of a bipartite
    pattern while one is left (smaller label on ties).  A plan that
    conditions on X alone conditions on at most |X| - 2 vertices, the
    exponent of the part-enumeration cap this kernel replaced: H without
    |X| - 2 vertices of X lies inside K_{2,m}, and every interaction graph
    made from it by these steps has a vertex with at most two neighbours.
    """
    parts = h.bipartition()
    side = min(parts[0] & comp, parts[1] & comp, key=len) if parts else frozenset()
    nbrs = {v: set(h.adj[v]) for v in comp}
    steps = []
    while nbrs:
        v = min(nbrs, key=lambda u: (len(nbrs[u]), u))
        conditioned = len(nbrs[v]) > 2
        if conditioned:
            v = max(nbrs, key=lambda u: (u in side, len(nbrs[u]), -u))
        around = tuple(sorted(nbrs.pop(v)))
        for u in around:
            nbrs[u].discard(v)
            if not conditioned:
                nbrs[u].update(w for w in around if w != u)
        steps.append((v, around, conditioned))
    return steps


def _matrices_held(steps) -> int:
    """The most n-by-n matrices _eliminate holds at once for a plan: the
    adjacency matrix, the matrices made by two-neighbour steps that are
    still in use, and two more while such a step forms its product and
    multiplies it into a factor.  A made matrix is freed when its scope is
    summed out, except that conditioning keeps every matrix made so far
    for the branches that follow."""
    made: set = set()  # scopes whose matrix was made since the last conditioning
    kept = peak = 0
    for v, around, conditioned in steps:
        if conditioned:
            kept += len(made)
            made = set()
            continue
        if len(around) == 2:
            peak = max(peak, kept + len(made) + 2)
        made = {scope for scope in made if v not in scope}
        if len(around) == 2:
            made.add(around)
    return 1 + max(peak, kept + len(made))


def _eliminate(exact: Exact, steps, start: int, unary: dict, binary: dict, ones) -> int:
    """Run steps[start:] of a plan: the number of assignments of their
    vertices to host vertices that satisfy every factor left.

    `unary` maps a vertex to an n-vector and `binary` a pair u < w to an
    n-by-n matrix indexed [image of u, image of w]; the pattern's edges
    start as the adjacency matrix, a missing unary factor is all ones, and
    no factor is changed in place, so branches share them.  Summing out v
    takes a sum, a matrix-vector product or one matrix product, and the
    result is multiplied into the factor of the same scope.  Conditioning
    on v loops over its images x: row x of each of v's matrices becomes a
    factor of the neighbour, and the branch counts add up with weight v's
    unary factor at x.

    The caller hands Exact the bound n^(v(H) - |C|), |C| the number of
    conditioned vertices, on every value formed: within a branch every
    entry of every factor, every product formed and every partial sum of a
    matrix product is a non-negative integer that counts assignments of a
    set of summed-out vertices, at most n^(v(H) - |C|) of them.  Branch
    counts and weights leave the arrays as Python integers before they are
    multiplied or added up.
    """
    scalar = 1
    for i in range(start, len(steps)):
        v, around, conditioned = steps[i]
        vec = unary.pop(v, ones)
        mats = [binary.pop((v, u)) if v < u else binary.pop((u, v)).mT for u in around]
        if conditioned:
            total = 0
            for x, weight in enumerate(exact.to_ints(vec)):
                if not weight:
                    continue
                branch = dict(unary)
                for u, m in zip(around, mats):
                    _multiply(exact, branch, u, m[..., x, :])
                total += weight * _eliminate(exact, steps, i + 1, branch, dict(binary), ones)
            return scalar * total
        if not around:
            scalar *= exact.to_int(exact.total(vec, -1))
        elif len(around) == 1:
            _multiply(exact, unary, around[0], exact.matvec(vec, mats[0]))
        else:
            _multiply(exact, binary, around,
                      exact.matmul(exact.mul(mats[0], vec[..., :, None]).mT, mats[1]))
    return scalar


def _multiply(exact: Exact, factors: dict, scope, value) -> None:
    factors[scope] = exact.mul(factors[scope], value) if scope in factors else value


def injective_hom_count(h: Graph, g: Graph) -> int:
    """Injective homomorphisms, by Moebius inversion over coincidence
    partitions: hom(H/pi, G) summed over the partitions pi of V(H) into
    independent blocks, weighted by the product over blocks B of
    (-1)^(|B|-1) (|B|-1)!.  A block with an edge would need a loop, so
    those partitions contribute nothing.  Isomorphic quotients have equal
    counts, so the kernel runs once per isomorphism class of quotient
    (_quotient_classes).  The pattern cap bounds the number of partitions
    by Bell(10)."""
    if h.n > 10:
        raise CapabilityError("injective counting capped at 10 pattern vertices")
    if h.n > g.n:
        return 0
    return sum(weight * _memoised_count(_quotient_key(rep.edges(), range(rep.n)), g)
               for rep, weight in _quotient_classes(h))


@lru_cache(maxsize=64)
def _quotient_classes(h: Graph) -> tuple[tuple[Graph, int], ...]:
    """The isomorphism classes of H's independent-partition quotients whose
    summed Moebius weight is not 0, as (representative, summed weight).

    Each labelled quotient is formed once and its partitions' weights are
    added up.  Quotients are then bucketed by vertex count, edge count and
    sorted vertex signatures, and one joins a class within its bucket only
    when an isomorphism onto the class's representative is found; the
    representative is the class's first quotient in partition order.  The
    3-cube has 354 partitions, 143 labelled quotients and 25 classes.
    """
    edges = h.edges()
    weights: dict[tuple, int] = {}  # _quotient_key -> summed weight
    for block_of, weight in _independent_partitions(h):
        key = _quotient_key(edges, block_of)
        weights[key] = weights.get(key, 0) + weight
    buckets: dict[tuple, list[list]] = {}
    for (n, quotient_edges), weight in weights.items():
        q = make_graph(n, quotient_edges)
        bucket = buckets.setdefault((n, len(quotient_edges), tuple(sorted(_signatures(q)))), [])
        for entry in bucket:
            if find_isomorphism(q, entry[0]) is not None:
                entry[1] += weight
                break
        else:
            bucket.append([q, weight])
    return tuple((rep, weight) for bucket in buckets.values() for rep, weight in bucket if weight)


def _independent_partitions(h: Graph):
    """Every partition of V(H) into independent sets, as the block of each
    vertex (blocks numbered by their smallest vertex) with its Moebius
    weight, the product over blocks B of (-1)^(|B|-1) (|B|-1)!."""
    block_of = [0] * h.n
    blocks: list[int] = []  # vertex masks
    nbr_mask = h.nbr_mask

    def extend(v: int, weight: int):
        if v == h.n:
            yield tuple(block_of), weight
            return
        for b in range(len(blocks) + 1):
            if b == len(blocks):
                blocks.append(0)
            elif blocks[b] & nbr_mask[v]:
                continue
            block_of[v] = b
            size = blocks[b].bit_count()
            blocks[b] |= 1 << v
            yield from extend(v + 1, -size * weight if size else weight)
            blocks[b] &= ~(1 << v)
        blocks.pop()

    return extend(0, 1)


def count_cube_homomorphisms(g: Graph) -> tuple[int, int]:
    """(total, injective) homomorphism counts of the 3-cube into G."""
    q3 = gen_hypercube(3)
    return hom_count(q3, g), injective_hom_count(q3, g)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SidorenkoResult:
    hom: int
    bound: Fraction
    holds: bool


def sidorenko_check(h: Graph, g: Graph) -> SidorenkoResult:
    """Compare hom(H,G) with n^v(H) p^e(H), exactly."""
    lhs = hom_count(h, g)
    p = edge_density(g)
    rhs = Fraction(g.n) ** h.n * p ** h.edge_count()
    return SidorenkoResult(lhs, rhs, Fraction(lhs) >= rhs)


@dataclass(frozen=True)
class ReflectionInequalityResult:
    constrained: int
    reflected_ab: int
    reflected_ba: int
    unconstrained: int
    holds_pair: bool
    holds_weak: bool

    @property
    def holds(self) -> bool:
        return self.holds_pair and self.holds_weak


def check_reflection_inequality(h: Graph, g: Graph, triple: ReflectionTriple,
                                r) -> ReflectionInequalityResult:
    """One reflection step: the constrained count squared is at most the
    product of the two reflected counts, and also at most the first
    reflected count times the unconstrained count."""
    r = frozenset(r)
    r_ab = reflect_set(h, triple, r)
    r_ba = reflect_set(h, triple.flipped(), r)
    c_r = hom_count(h, g, r)
    c_ab = hom_count(h, g, r_ab)
    c_ba = hom_count(h, g, r_ba)
    c_all = hom_count(h, g)
    return ReflectionInequalityResult(
        c_r, c_ab, c_ba, c_all,
        holds_pair=c_r * c_r <= c_ab * c_ba,
        holds_weak=c_r * c_r <= c_ab * c_all,
    )


@dataclass(frozen=True)
class FinalInequalityResult:
    constrained_start: int
    full_side: int
    unconstrained: int
    exponent: int
    holds: bool


def check_final_inequality(h: Graph, g: Graph,
                           cert: ReflectionCertificate) -> FinalInequalityResult:
    """Certificate-amplified bound: hom to the full side dominates the
    start count raised to s = 2^m, normalised by hom^(s-1)."""
    ok, report = verify_certificate(h, cert)
    if not ok:
        raise GraphError(f"invalid certificate: {report[-1] if report else 'unverifiable'}")
    c_start = hom_count(h, g, cert.start)
    c_side = hom_count(h, g, cert.side)
    c_all = hom_count(h, g)
    s = cert.amplification_exponent
    holds = c_side * c_all ** (s - 1) >= c_start ** s
    return FinalInequalityResult(c_start, c_side, c_all, s, holds)


def turan_exponent(v: int, e: int, t: int) -> Fraction:
    """Host-size exponent 2 - (v - t - 1)/(e - t) from the pattern's vertex
    count, edge count and larger part size."""
    if e <= t:
        raise GraphError("exponent undefined: pattern needs more edges than its larger part")
    return Fraction(2) - Fraction(v - t - 1, e - t)


# ---------------------------------------------------------------------------
# Supersaturation experiment
# ---------------------------------------------------------------------------

# A harness constant chosen with generous slack below the expected injective
# count, not a derived value.
_THRESHOLD = Fraction(1, 10)


def supersaturation_experiment(d: int, n: int, p, seed: int, trials: int) -> dict:
    """Seeded random hosts at density p: count 3-cube homomorphisms,
    injective copies, and compare with the n^8 p^12 benchmark.

    A trial meets the threshold when its injective count is at least
    _THRESHOLD times the benchmark.  Host size is bounded by hom_count's
    work cap alone: the 3-cube's plan conditions on two vertices, so
    n^4 <= 3*10^8, n <= 131.
    """
    if d != 3:
        raise CapabilityError("supersaturation experiment runs at d=3 only")
    p = Fraction(p)
    benchmark = Fraction(n) ** 8 * p ** 12
    rows = []
    for i in range(trials):
        g = gen_random(n, p, seed + i)
        hom, inj = count_cube_homomorphisms(g)
        noninj = hom - inj
        mind = g.min_degree()
        rows.append({
            "seed": seed + i,
            "edges": g.edge_count(),
            "hom": hom,
            "injective": inj,
            "noninjective": noninj,
            "noninjective_fraction": (float(noninj) / hom) if hom else 0.0,
            "ratio_to_benchmark": (float(Fraction(inj) / benchmark)
                                   if benchmark else float("inf")),
            "meets_threshold": Fraction(inj) >= _THRESHOLD * benchmark,
            "degree_ratio": (g.max_degree() / mind) if mind else None,
        })
    ratios = [r["ratio_to_benchmark"] for r in rows]
    return {
        "d": d,
        "n": n,
        "p": p,
        "benchmark": benchmark,
        "threshold": _THRESHOLD,
        "trials": rows,
        "all_meet_threshold": all(r["meets_threshold"] for r in rows),
        "min_ratio": min(ratios) if ratios else None,
        "median_ratio": median(ratios) if ratios else None,
    }
