"""Exact homomorphism counting, with and without identification constraints.

hom(H, G) is the number of edge-preserving maps V(H) -> V(G); the
constrained variant counts only the maps sending a prescribed vertex set of
H to a single host vertex, and is evaluated as the plain count of the
quotient pattern.  One kernel counts every pattern: variable elimination
over the pattern's vertices in which every factor is a host-indexed vector
or matrix (Diaz, Serna and Thilikos, "Counting H-colorings of partial
k-trees", TCS 2002).  A vertex with at most two neighbours left is summed
out; when every vertex left has three or more, the kernel conditions on one
of them, by one rule for every pattern, and loops over its host images.  The
plan, and so the one work cap, is fixed by the pattern before any array exists.
The last conditioned vertex of a plan is not looped over image by image:
its images are taken in chunks of consecutive host vertices, and every
factor carries a batch axis, one entry per image of the chunk, so the steps
after it run once per chunk (tensor-network slicing run the other way:
Gray and Kourtis, "Hyper-optimized tensor network contraction", Quantum
2021).  The chunk width is the most images whose stacked n-by-n matrices,
residue layers included, fit in _CHUNK_CELLS cells: every image at once up
to n = 64 on the plain path, two at n = 300.  Each entry of the batch axis
is one branch, so the bound n^(v(H) - |C|) on every value holds entrywise,
and a stacked matrix is declared to Exact as the matrices it stacks.
The plan also records each summing step's dependency set, the conditioned
vertices whose images its result depends on.  A matrix product whose set
leaves out a vertex being looped over is the same in every branch that
agrees on the set's images, so it is formed once per such image tuple and
kept: the 3-cube conditions on two vertices, and the product of its last
triangle depends on the second alone, so a count into G(n) takes 4n matrix
products, about n^4 multiply-adds, instead of n^2 + 3n and n^5; n of them
form one stacked product per chunk.  A kept product is the value a branch
would form, so the bound on every value holds for it too, and the kept
products' cells are declared to Exact with the rest, before any array
exists; a step whose products would pass the cell cap forms them in every
branch instead.
The arithmetic runs through homreflect.exact: plain float64 while every
partial count stays below 2^53, float64 residues modulo enough primes past
it.
Injective counts are the Moebius inversion of hom over the partitions of
V(H) into independent blocks (Curticapean, Dell and Marx, "Homomorphisms
are a good basis for counting small subgraphs", STOC 2017).  Only the
isomorphism class of a quotient matters, so the weights are summed per
class, once per pattern, and the kernel runs once per class: 25 counts for
the 3-cube's 354 partitions.

hom_count memoises at two levels, each a least-recently-used table of
_MEMO_SIZE entries: (pattern, constraint set) -> quotient key, the
quotient's vertex count and edge set, then (quotient key, host) -> count.
A repeated call so forms no blocks and no edge set, and the kernel runs
once per distinct quotient, building a pattern graph only on a miss.  A
reflection sweep (`verify section2`) makes about four calls per step, but
Q3's 30 one-side constraint sets give 23 distinct quotients, and sets
with equal quotients share one count.  Injective counts share both tables,
one entry per class representative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from statistics import median

import numpy as np

from .automorphisms import _signatures, find_isomorphism
from .exact import Exact, _layers, adjacency, admits
from .graphs import (CapabilityError, Graph, GraphError, edge_density, gen_hypercube, gen_random,
                     make_graph)
from .reflectivity import ReflectionCertificate, ReflectionTriple, reflect_set, verify_certificate

_PATTERN_CAP = 16
_WORK_CAP = 3 * 10 ** 8
_MEMO_SIZE = 4096
_CHUNK_CELLS = 1 << 18


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
    `constraint` forced to a common image.  The quotient key is memoised
    per (pattern, constraint) and the count per (quotient key, host); a
    GraphError or CapabilityError is raised again on every call, never
    stored."""
    if h.n > _PATTERN_CAP:
        raise CapabilityError(f"pattern size capped at {_PATTERN_CAP} vertices")
    group = None if constraint is None else frozenset(constraint)
    return _memoised_count(_pattern_key(h, group), g)


@lru_cache(maxsize=_MEMO_SIZE)
def _pattern_key(h: Graph, group: frozenset | None) -> tuple[int, frozenset]:
    """The quotient key of H with the vertices of `group` made one vertex,
    or of H itself for None."""
    return _quotient_key(h.edges(), range(h.n) if group is None else _blocks(h, group))


@lru_cache(maxsize=_MEMO_SIZE)
def _memoised_count(key: tuple[int, frozenset], g: Graph) -> int:
    h = make_graph(*key)
    plans = [(comp, _plan(h, comp)) for comp in h.components()]
    conditioned = [sum(step[2] for step in steps) for _, steps in plans]
    most = max(conditioned, default=0)
    if g.n ** (most + 2) > _WORK_CAP:
        admitted = max(n for n in range(g.n) if n ** (most + 2) <= _WORK_CAP)
        raise CapabilityError("assignment enumeration exceeds the budget cap: the plan conditions "
                              f"on {most} vertices; hosts of at most {admitted} vertices are admitted")
    bound = g.n ** (h.n - sum(conditioned))
    width = _chunk_width(bound, g.n)
    reuse = [_reused_steps(steps, bound, g.n, width) for _, steps in plans]
    exact = Exact(bound, g.n, max((held for _, held in reuse), default=1))
    adj = exact.lift(adjacency(g)[None])
    ones = exact.lift(np.ones((1, g.n)))
    images = [0] * h.n
    total = 1
    for (comp, steps), (tables, _) in zip(plans, reuse):
        binary = {(u, v): adj for u, v in h.edges() if u in comp}
        last = max((i for i, step in enumerate(steps) if step[2]), default=None)
        total *= _eliminate(exact, steps, 0, {}, binary, ones, tables, images, {last: width})[0]
    return total


def _chunk_width(bound: int, n: int) -> int:
    """The images of a plan's last conditioned vertex that _eliminate takes
    at once: as many as a stack of n-by-n matrices, residue layers
    included, holds within _CHUNK_CELLS cells, and at least one."""
    return max(1, min(n, _CHUNK_CELLS // (max(_layers(bound), 1) * n * n or 1)))


def _plan(h: Graph, comp) -> list[tuple[int, tuple[int, ...], bool, tuple[int, ...]]]:
    """The elimination of one connected component, from the pattern alone.

    Each step (v, around, conditioned, deps) removes v from the interaction
    graph: the pattern's edges plus the pairs that earlier steps joined,
    `around` being v's neighbours there.  A vertex with at most two
    neighbours is summed out, and summing out a vertex with two neighbours
    joins them; when every vertex left has three or more, the step
    conditions on the next vertex of _conditioning_order, for any pattern.

    `deps` is a summing step's dependency set: the conditioned vertices
    whose images the factors it consumes depend on.  Conditioning on c puts
    c into each neighbour's set, and summing out v puts v's set into each of
    its neighbours', since its result becomes their factor.  Among the
    vertices with fewest neighbours the one with the smallest set is summed
    out first, then the smaller label: in the 3-cube's last triangle that
    is the vertex whose product depends on the second conditioned vertex
    only.  Which vertices are summed out between two conditioning steps
    does not depend on the order they are taken in, so this order changes
    no count and no |C|.
    """
    sides = [part & comp for part in h.bipartition() or ()]
    smaller = [side for side in sides if len(side) == min(map(len, sides))]
    nbrs = {v: h.nbr_mask[v] for v in comp}
    order = None
    deps = dict.fromkeys(comp, 0)  # vertex -> mask of the conditioned vertices its factors carry
    steps = []
    while nbrs:
        low = [u for u in nbrs if nbrs[u].bit_count() <= 2]
        if low:
            v = min(low, key=lambda u: (nbrs[u].bit_count(), deps[u].bit_count(), u))
            around = _remove(nbrs, v, join=True)
            for u in around:
                deps[u] |= deps[v]
            steps.append((v, around, False, _bits(deps[v])))
        else:
            order = order or iter(_conditioning_order(nbrs, smaller))
            v = next(order)
            around = _remove(nbrs, v, join=False)
            for u in around:
                deps[u] |= 1 << v
            steps.append((v, around, True, ()))
    return steps


def _conditioning_order(nbrs: dict[int, int], smaller) -> tuple[int, ...]:
    """The vertices a plan conditions on, in order, from an interaction
    graph in which every vertex has three or more neighbours (`nbrs` maps
    each vertex to its neighbour mask).

    Each time no vertex has at most two neighbours left, the plan takes one
    of the most neighbours, or of the most on a side in `smaller`, the
    sides of least size of a bipartite component.  The order is the
    shortest over every such choice, the first found in label order, so
    its length does not depend on the labels.  It is no longer than the
    order that takes one of the most neighbours from the smaller side X
    while one is left, which conditions on at most |X| - 2 vertices, the
    exponent of the part-enumeration cap this kernel replaced: H without
    |X| - 2 vertices of X lies inside K_{2,m}, where every interaction
    graph made by these steps has a vertex with at most two neighbours.
    The vertices summed out do not depend on the order they are taken in,
    so a state is fixed by the set conditioned on, and `known` keeps, per
    set, the shortest order found or the largest length shown not to do.
    A state whose interaction graph has a subgraph of minimum degree d
    needs at least d - 2 more vertices: until one of the subgraph's
    vertices is summed out, summing out others takes none of their
    neighbours in it, and each vertex conditioned on takes one at most.
    """
    known: dict[int, tuple[int, ...] | int] = {}

    def search(nbrs: dict[int, int], done: int, budget: int) -> tuple[int, ...] | None:
        """The first shortest order from this state when one has at most
        `budget` vertices, else None."""
        low = [u for u in nbrs if nbrs[u].bit_count() <= 2]
        while low:
            v = low.pop()
            if v in nbrs:
                low.extend(u for u in _remove(nbrs, v, join=True) if nbrs[u].bit_count() <= 2)
        if not nbrs:
            return ()
        seen = known.get(done)
        if isinstance(seen, tuple):
            return seen if len(seen) <= budget else None
        if not budget or seen is not None and seen >= budget:
            return None
        candidates = set()
        for group in (nbrs.keys(), *(side & nbrs.keys() for side in smaller)):
            most = max((nbrs[v].bit_count() for v in group), default=0)
            candidates.update(v for v in group if nbrs[v].bit_count() == most)
        floor = _degeneracy(nbrs) - 2 if len(candidates) > 1 else 1
        if floor > budget:
            return None
        best = None
        for v in sorted(candidates):
            rest = dict(nbrs)
            _remove(rest, v, join=False)
            order = search(rest, done | 1 << v, budget - 1)
            if order is not None:
                best, budget = (v,) + order, len(order)
                if len(best) == floor:
                    break
        known[done] = best if best is not None else budget
        return best

    return search(dict(nbrs), 0, len(nbrs))


def _degeneracy(nbrs: dict[int, int]) -> int:
    """The largest minimum degree of a subgraph, found by peeling off low-degree vertices."""
    left = sum(1 << v for v in nbrs)
    d = 0
    while left:
        low = sum(1 << v for v in _bits(left) if (nbrs[v] & left).bit_count() <= d)
        left &= ~low
        d += not low
    return d


def _remove(nbrs: dict[int, int], v: int, join: bool) -> tuple[int, ...]:
    """Take v out of the interaction graph `nbrs` (vertex -> neighbour
    mask) and return its neighbours, ascending; `join` links two of them,
    as summing v out does."""
    around = _bits(nbrs.pop(v))
    for u in around:
        nbrs[u] &= ~(1 << v)
    if join and len(around) == 2:
        a, b = around
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return around


@lru_cache(maxsize=1 << _PATTERN_CAP)
def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a pattern's vertex mask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _matrices_held(steps, width: int) -> int:
    """The most n-by-n matrices _eliminate holds at once for a plan, apart
    from kept products: the adjacency matrix, the matrices made by
    two-neighbour steps that are still in use, and two more while such a
    step forms its product and multiplies it into a factor.  A made matrix
    is freed when its scope is summed out, except that conditioning keeps
    every matrix made so far for the branches that follow.  After the last
    conditioning a made matrix is a stack of one per image in a chunk, so it
    counts as `width` matrices.  Vectors are not counted: a stack of them
    has n times fewer cells than a stacked matrix, and a plan holds about
    one per pattern vertex."""
    made: set = set()  # scopes whose matrix was made since the last conditioning
    kept = peak = 0
    size = 1  # matrices per made matrix
    left = sum(step[2] for step in steps)  # conditioning steps still to come
    for v, around, conditioned, _ in steps:
        if conditioned:
            kept += len(made)
            made = set()
            left -= 1
            size = 1 if left else width
            continue
        if len(around) == 2:
            peak = max(peak, kept + size * (len(made) + 2))
        made = {scope for scope in made if v not in scope}
        if len(around) == 2:
            made.add(around)
    return 1 + max(peak, kept + size * len(made))


def _reused_steps(steps, bound: int, n: int, width: int) -> tuple[dict[int, dict], int]:
    """The two-neighbour steps whose products _eliminate keeps, each with an
    empty table, and the n-by-n matrices the plan then holds at most, when
    the last conditioned vertex takes its images `width` at a time.

    A step's product is kept when its dependency set leaves out a vertex
    conditioned on before it: the product is then equal in every branch
    that agrees on the images of the set, and is formed once per image
    tuple, n^|deps| matrices.  When the set holds the last conditioned
    vertex, the product is a stack over one chunk of its images, kept under
    the other images and the chunk's first; the chunks of one tuple still
    hold n matrices in all.  Steps are taken in plan order while their
    tables keep the run within the cell cap; a step past it forms its
    product in every branch."""
    held = _matrices_held(steps, width)
    tables = {}
    looped = 0
    for i, (_, around, conditioned, deps) in enumerate(steps):
        looped += conditioned
        if len(around) == 2 and len(deps) < looped and admits(bound, n, held + n ** len(deps)):
            held += n ** len(deps)
            tables[i] = {}
    return tables, held


def _eliminate(exact: Exact, steps, start: int, unary: dict, binary: dict, ones,
               tables: dict, images: list, widths: dict) -> list[int]:
    """Run steps[start:] of a plan: for each entry of the batch axis, the
    number of assignments of their vertices to host vertices that satisfy
    every factor left, as Python integers.

    Every factor carries a batch axis before its host axes: `unary` maps a
    vertex to a stack of n-vectors and `binary` a pair u < w to a stack of
    n-by-n matrices indexed [entry, image of u, image of w].  The pattern's
    edges start as the adjacency matrix and a missing unary factor is all
    ones, each a stack of one, which broadcasts against any other; no
    factor is changed in place, so branches share them.  Summing out v
    takes a sum, a matrix-vector product or one matrix product, and the
    result is multiplied into the factor of the same scope.

    Conditioning on v takes its images in chunks of `widths[i]` consecutive
    host vertices, 1 unless v is the plan's last conditioned vertex, and
    notes each chunk's first image in `images`.  Rows lo..hi of each of v's
    matrices become a factor of the neighbour, a stack of one vector per
    image, so the steps after the last conditioning run once per chunk and
    the batch axis stands for its images; before it every stack is a stack
    of one.  A step with no neighbours gives one integer per entry, and
    these multiply entrywise; the chunk's branch counts add up with weight
    v's unary factor at each image.

    A two-neighbour step with a table in `tables` (_reused_steps) looks its
    product up under the images of its dependency set and forms it only on
    a miss.  For the 3-cube, conditioned on two vertices, the product of the
    last triangle depends on the second alone: n products, one stack per
    chunk of its images, instead of n^2, so the count costs about n^4
    multiply-adds instead of n^5.

    The caller hands Exact the bound n^(v(H) - |C|), |C| the number of
    conditioned vertices, on every value formed: every entry of the batch
    axis is one branch, and within a branch every entry of every factor,
    every product formed and every partial sum of a matrix product is a
    non-negative integer that counts assignments of a set of summed-out
    vertices, at most n^(v(H) - |C|) of them.  A kept product is the value
    the branch would form, so the bound holds for it too.  Branch counts
    and weights leave the arrays as Python integers before they are
    multiplied or added up.
    """
    scalar = [1]
    for i in range(start, len(steps)):
        v, around, conditioned, deps = steps[i]
        vec = unary.pop(v, ones)
        mats = [binary.pop((v, u)) if v < u else binary.pop((u, v)).mT for u in around]
        if conditioned:
            weights = exact.to_ints(vec[..., 0, :])
            width = widths.get(i, 1)
            total = 0
            for lo in range(0, len(weights), width):
                chunk = weights[lo:lo + width]
                if not any(chunk):
                    continue
                images[v] = lo
                branch = dict(unary)
                for u, m in zip(around, mats):
                    _multiply(exact, branch, u, m[..., 0, lo:lo + width, :])
                counts = _eliminate(exact, steps, i + 1, branch, dict(binary), ones, tables,
                                    images, widths)
                total += sum(_times(chunk, counts))
            return _times(scalar, [total])
        if not around:
            scalar = _times(scalar, exact.to_ints(exact.total(vec, -1)))
        elif len(around) == 1:
            _multiply(exact, unary, around[0], exact.matvec(vec, mats[0]))
        else:
            table = tables.get(i)
            key = table is not None and tuple([images[u] for u in deps])
            product = table.get(key) if table is not None else None
            if product is None:
                product = exact.matmul(exact.mul(mats[0], vec[..., :, None]).mT, mats[1])
                if table is not None:
                    table[key] = product
            _multiply(exact, binary, around, product)
    return scalar


def _times(a: list[int], b: list[int]) -> list[int]:
    """The entrywise product of two lists of Python integers over a batch
    axis; a list of one entry stands for that entry at every position."""
    if len(a) == 1:
        a, b = b, a
    return [x * y for x, y in zip(a, b)] if len(a) == len(b) else [x * b[0] for x in a]


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
    return sum(weight * _memoised_count(_pattern_key(rep, None), g)
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

def sidorenko_check(h: Graph, g: Graph) -> dict:
    """Compare hom(H,G) with n^v(H) p^e(H), exactly.  Returns the report
    row {"lhs": hom(H,G), "rhs": the bound, "holds": lhs >= rhs}."""
    lhs = hom_count(h, g)
    p = edge_density(g)
    rhs = Fraction(g.n) ** h.n * p ** h.edge_count()
    return {"lhs": lhs, "rhs": rhs, "holds": Fraction(lhs) >= rhs}


def check_reflection_inequality(h: Graph, g: Graph, triple: ReflectionTriple, r) -> dict:
    """One reflection step: the constrained count squared is at most the
    product of the two reflected counts, and also at most the first
    reflected count times the unconstrained count.  Returns the report row
    {"lhs": hom(R)^2, "rhs": hom(R_AB) hom(R_BA), "holds"}, where holds
    needs both inequalities; the second cross-checks the kernel."""
    r = frozenset(r)
    r_ab = reflect_set(h, triple, r)
    r_ba = reflect_set(h, triple.flipped(), r)
    lhs = hom_count(h, g, r) ** 2
    c_ab = hom_count(h, g, r_ab)
    rhs = c_ab * hom_count(h, g, r_ba)
    weak = lhs <= c_ab * hom_count(h, g)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs and weak}


def check_final_inequality(h: Graph, g: Graph, cert: ReflectionCertificate) -> dict:
    """Certificate-amplified bound: hom to the full side dominates the
    start count raised to s = 2^m, normalised by hom^(s-1).  Returns the
    report row {"lhs": hom(start)^s, "rhs": hom(side) hom^(s-1), "holds":
    lhs <= rhs, "exponent": s}."""
    ok, report = verify_certificate(h, cert)
    if not ok:
        raise GraphError(f"invalid certificate: {report[-1] if report else 'unverifiable'}")
    s = cert.amplification_exponent
    lhs = hom_count(h, g, cert.start) ** s
    rhs = hom_count(h, g, cert.side) * hom_count(h, g) ** (s - 1)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs, "exponent": s}


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


def supersaturation_experiment(n: int, p, seed: int, trials: int) -> dict:
    """Seeded random hosts at density p: count 3-cube homomorphisms,
    injective copies, and compare with the n^8 p^12 benchmark.

    A trial meets the threshold when its injective count is at least
    _THRESHOLD times the benchmark.  Host size is bounded by hom_count's
    work cap alone: the 3-cube's plan conditions on two vertices, so
    n^4 <= 3*10^8, n <= 131.  n or trials below 1, or p outside (0, 1],
    raises GraphError before any host is drawn: such a run has no host, or
    no valid density, or a zero benchmark.
    """
    p = Fraction(p)
    if n < 1 or not 0 < p <= 1 or trials < 1:
        raise GraphError(f"supersaturation needs n >= 1, 0 < p <= 1 and trials >= 1; "
                         f"got n={n}, p={p}, trials={trials}")
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
            "ratio_to_benchmark": float(Fraction(inj) / benchmark),
            "meets_threshold": Fraction(inj) >= _THRESHOLD * benchmark,
            "degree_ratio": (g.max_degree() / mind) if mind else None,
        })
    ratios = [r["ratio_to_benchmark"] for r in rows]
    return {
        "d": 3,
        "n": n,
        "p": p,
        "benchmark": benchmark,
        "threshold": _THRESHOLD,
        "trials": rows,
        "all_meet_threshold": all(r["meets_threshold"] for r in rows),
        "min_ratio": min(ratios),
        "median_ratio": median(ratios),
    }
