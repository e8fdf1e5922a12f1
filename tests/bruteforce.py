"""Independent brute-force oracles for the test suite.

Everything here enumerates naively and shares no strategy with the package
kernels: automorphisms filter all permutations, homomorphism counts walk
plain product spaces with per-edge checks, injective counts come from the
coincidence-partition inclusion-exclusion, G(n, p) expectations sum over
the same partitions, and cycle weights enumerate closed walks one by one
or multiply over the factors of a tensor product.
The certificate search oracle is the package's former search, one
breadth-first loop over (state, triple) pairs, kept verbatim: the layered
search must match its states_visited, budget_exhausted and chain exactly.
Likewise the isomorphism and involution searches keep their former loops,
which try every candidate image rather than only the neighbours of a
placed neighbour's image: the anchored searches must find the same maps in
the same order and refuse at the same point.  The random graph generator
and the adjacency matrix keep their former builds too, one randrange call
per vertex pair and a matrix filled from the edge list, which the bulk
builds must reproduce exactly.  The greedy edge colouring keeps its former
colour sets, which the per-vertex bitmasks must reproduce.  hom_count's
former conditioning rule for bipartite patterns, a greedy pick from the
smaller side, is kept as the reference that the label-free plan may never
exceed.  Reflection triples come from every involution and every choice of
one vertex per moved pair, with no component structure.

The last four functions are not oracles but label helpers: Q4 with one
side labelled first, vertex ids of cube coordinate strings and of
set-graph subsets, and the inverse of an automorphism.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, lcm, perm as falling_factorial
from operator import mul

import numpy as np

from homreflect.automorphisms import (_INVOLUTION_CAP, Automorphism, _candidates,
                                      _placement_order)
from homreflect.graphs import (CapabilityError, EdgeColouring, Graph, GraphError, _mask,
                               make_graph)
from homreflect.reflectivity import (DEFAULT_BUDGET, CertificateStep, ReflectionCertificate,
                                     ReflectionTriple, ReflectivitySearch,
                                     enumerate_reflection_triples, verify_certificate)


def all_automorphisms(g) -> list[tuple[int, ...]]:
    out = []
    for perm in permutations(range(g.n)):
        if all(perm[v] in g.adj[perm[u]] for u in range(g.n) for v in g.adj[u]):
            out.append(perm)
    return out


def hom_count_naive(h, g, constraint=None) -> int:
    """Walk the maps V(H) -> V(G) that are constant on the constraint, with
    a per-edge check: one image for the constraint's least vertex, which
    the rest of the constraint copies, and one for every vertex outside it,
    n^(v(H) - |C| + 1) maps in all."""
    rest = sorted(constraint)[1:] if constraint else []
    free = [v for v in range(h.n) if v not in rest]
    slot = {v: i for i, v in enumerate(free)}
    slot.update({v: slot[min(constraint)] for v in rest})
    edges = [(slot[u], slot[v]) for u, v in h.edges()]
    count = 0
    for image in product(range(g.n), repeat=len(free)):
        if all(image[b] in g.adj[image[a]] for a, b in edges):
            count += 1
    return count


def constrained_counts_naive(h, g, constraints) -> list[int]:
    """hom_count_naive(h, g, r) for every r in `constraints`, from one walk
    of V(G)^V(H): a homomorphism counts for r when it is constant on r."""
    edges = h.edges()
    groups = [sorted(r) for r in constraints]
    counts = [0] * len(groups)
    for image in product(range(g.n), repeat=h.n):
        if all(image[v] in g.adj[image[u]] for u, v in edges):
            for i, r in enumerate(groups):
                if all(image[v] == image[r[0]] for v in r[1:]):
                    counts[i] += 1
    return counts


def injective_count_naive(h, g) -> int:
    edges = h.edges()
    count = 0
    for image in permutations(range(g.n), h.n):
        if all(image[v] in g.adj[image[u]] for u, v in edges):
            count += 1
    return count


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [[head] + block] + part[i + 1:]
        yield [[head]] + part


def expected_hom_and_injective(h, n: int, p) -> tuple[Fraction, Fraction]:
    """Exact expectations of hom(H, G) and inj(H, G) for G = G(n, p).

    A homomorphism's coincidence partition has independent blocks; the maps
    with a given partition number (n)_|blocks| and each survives with
    probability p^(edges of the simple quotient).  The injective expectation is
    the discrete partition's term alone: (n)_v p^e.
    """
    p = Fraction(p)
    edges = h.edges()
    hom = Fraction(0)
    for part in _partitions(list(range(h.n))):
        block = {v: i for i, b in enumerate(part) for v in b}
        if any(block[u] == block[v] for u, v in edges):
            continue
        quotient_edges = {frozenset((block[u], block[v])) for u, v in edges}
        hom += falling_factorial(n, len(part)) * p ** len(quotient_edges)
    return hom, falling_factorial(n, h.n) * p ** len(edges)


def injective_by_partition_moebius(h, g, hom_counter) -> int:
    """Inclusion-exclusion over coincidence partitions of V(H): each
    partition contributes the quotient's homomorphism count weighted by the
    product of (-1)^(|B|-1) (|B|-1)! over its blocks."""
    from homreflect.graphs import GraphError
    from homreflect.homcount import quotient_graph

    total = 0
    for part in _partitions(list(range(h.n))):
        quotient = h
        ok = True
        blocks = [sorted(b) for b in part if len(b) > 1]
        mapping = list(range(h.n))
        for block in sorted(blocks):
            try:
                current = sorted({mapping[v] for v in block})
                quotient = quotient_graph(quotient, current)
            except GraphError:
                ok = False
                break
            rep = min(current)
            removed = [v for v in current if v != rep]
            new_map = []
            for old in mapping:
                shift = sum(1 for r in removed if r < old)
                new_map.append(rep if old in current else old - shift)
            mapping = new_map
        if not ok:
            continue
        weight = 1
        for b in part:
            weight *= (-1) ** (len(b) - 1) * factorial(len(b) - 1)
        total += weight * hom_counter(quotient, g)
    return total


def closed_walk_weight_sum(g, length: int, colour_match=None, colouring=None) -> Fraction:
    """Enumerate every closed walk of the given length; optionally restrict
    to walks whose steps i and j (1-based) share a colour."""
    total = Fraction(0)
    degs = g.degrees()
    for seq in product(range(g.n), repeat=length):
        if not all(seq[(t + 1) % length] in g.adj[seq[t]] for t in range(length)):
            continue
        if colour_match is not None:
            i, j = colour_match
            ci = colouring.of(seq[i - 1], seq[i % length])
            cj = colouring.of(seq[j - 1], seq[j % length])
            if ci != cj:
                continue
        w = Fraction(1)
        for v in seq:
            w /= degs[v]
        total += w
    return total


def colouring_is_proper(g, colouring) -> bool:
    """No two distinct edges of g that share an endpoint share a colour,
    over every pair of edges."""
    edges = g.edges()
    return not any(set(e) & set(f) and colouring.of(*e) == colouring.of(*f)
                   for e, f in combinations(edges, 2))


def int_matmul(a, b) -> list[list[int]]:
    """The product of two matrices given as lists of rows of Python integers."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_matrix_power(a, t: int) -> list[list[int]]:
    """a^t, t >= 1, by repeated squaring in Python integers."""
    result, square = None, a
    while True:
        if t & 1:
            result = square if result is None else int_matmul(result, square)
        t >>= 1
        if not t:
            return result
        square = int_matmul(square, square)


def walk_weight_by_matrix_power(g, length: int) -> Fraction:
    """Total weight of the closed walks of the given length: the trace of
    B^length over L^length, B[u][v] = L/deg(u) on edges and L the lcm of the
    degrees, all in Python integers."""
    degs = g.degrees()
    scale = lcm(*degs)
    step = [[scale // degs[u] if v in g.adj[u] else 0 for v in range(g.n)] for u in range(g.n)]
    power = int_matrix_power(step, length)
    return Fraction(sum(power[u][u] for u in range(g.n)), scale ** length)


def tensor_product(g1, g2, c1=None, c2=None):
    """The tensor product of g1 and g2, vertex (u1, u2) numbered u1 * n2 + u2
    and adjacent to (v1, v2) when u1 ~ v1 and u2 ~ v2, with the product
    colouring of c1 and c2 (the pair of the two colours, as one id), or
    None without them.  A closed walk of the product is a pair of closed
    walks, its degrees the products of theirs, and two of its steps share a
    product colour when they share a colour in both factors: so h_2k and
    every colour-coincidence weight of the product are those of the factors
    multiplied."""
    edges = {}
    for (u1, v1), (u2, v2) in product(g1.edges(), g2.edges()):
        for a, b in (((u1, u2), (v1, v2)), ((u1, v2), (v1, u2))):
            x, y = sorted((a[0] * g2.n + a[1], b[0] * g2.n + b[1]))
            edges[(x, y)] = (u1, v1), (u2, v2)
    g = make_graph(g1.n * g2.n, list(edges))
    if c1 is None:
        return g, None
    width = max(c2.colours.values()) + 1
    return g, EdgeColouring(g, {e: c1.of(*e1) * width + c2.of(*e2)
                                for e, (e1, e2) in edges.items()})


def simple_cycles(g) -> list[tuple[int, ...]]:
    """Every simple cycle once, rooted at its smallest vertex, one
    orientation (second vertex smaller than last)."""
    out = []

    def extend(s, path, used):
        v = path[-1]
        for w in sorted(g.adj[v]):
            if w == s and len(path) >= 3 and path[1] < path[-1]:
                out.append(tuple(path))
            if w <= s or w in used:
                continue
            path.append(w)
            used.add(w)
            extend(s, path, used)
            path.pop()
            used.remove(w)

    for s in range(g.n):
        extend(s, [s], {s})
    return out


def shortest_chain_length(h, r0) -> int | None:
    """Fewest reflections that grow r0 to the full bipartition side holding
    it, or None when no chain exists.

    Breadth-first over every set reachable from r0, one level at a time,
    with no pruning: each set moves through every triple it is admissible
    for, by the public reflect_set.  The triples are the package's own
    enumeration, which the triple tests check separately.
    """
    from homreflect.reflectivity import enumerate_reflection_triples, is_admissible, reflect_set

    r0 = frozenset(r0)
    side = next(part for part in h.bipartition() if r0 <= part)
    triples = enumerate_reflection_triples(h)
    level, seen, steps = {r0}, {r0}, 0
    while level:
        if side in level:
            return steps
        level = {reflect_set(h, t, r) for r in level for t in triples
                 if is_admissible(h, t, r)} - seen
        seen |= level
        steps += 1
    return None


def graphs_isomorphic(g1, g2) -> tuple[int, ...] | None:
    """First isomorphism found by raw permutation filtering, or None."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    e1 = g1.edges()
    e2 = set(g2.edges())
    for perm in permutations(range(g2.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e2 for u, v in e1):
            return perm
    return None


def certify_reflective_loop(h: Graph, r0, budget: int = DEFAULT_BUDGET,
                            triples: list[ReflectionTriple] | None = None) -> ReflectivitySearch:
    """Plain breadth-first search for a reflection chain from r0 to a full
    side; the chain it returns is a shortest one.

    States are constraint sets and `budget` counts the states taken off the
    queue.  No certificate within budget yields an unknown outcome, never a
    negative one.
    """
    parts = h.bipartition()
    if parts is None or not h.is_connected():
        raise GraphError("certificate search needs a connected bipartite pattern")
    r0 = frozenset(r0)
    if not r0:
        raise GraphError("starting set must not be empty")
    if budget < 1:
        raise GraphError(f"budget must be at least 1, got {budget}")
    side = parts[0] if r0 <= parts[0] else parts[1] if r0 <= parts[1] else None
    if side is None:
        raise GraphError("starting set must lie inside one bipartition side")
    if triples is None:
        triples = enumerate_reflection_triples(h)

    start = _mask(r0)
    target = _mask(side)
    # Per-triple bitmask tables so each transition is a few integer ops.
    table = []
    for t in triples:
        keep = _mask(t.side_a | t.fixed)
        a_mask = _mask(t.side_a)
        need_b = _mask(t.side_b | t.fixed)
        images = {1 << v: 1 << t.swap(v) for v in t.side_a}
        table.append((keep, a_mask, need_b, images))

    parent: dict[int, tuple[int, int]] = {start: (-1, -1)}
    frontier = [start]
    visited = 0
    exhausted_budget = False
    goal = start if start == target else None

    while frontier and goal is None:
        nxt = []
        for state in frontier:
            visited += 1
            if visited > budget:
                exhausted_budget = True
                break
            for idx, (keep, a_mask, need_b, images) in enumerate(table):
                if not (state & (keep)) or not (state & need_b):
                    continue
                moved = state & a_mask
                new = state & keep
                while moved:
                    bit = moved & -moved
                    new |= images[bit]
                    moved ^= bit
                if new == state or new in parent:
                    continue
                parent[new] = (state, idx)
                if new == target:
                    goal = new
                    break
                nxt.append(new)
            if goal is not None:
                break
        if exhausted_budget:
            break
        frontier = nxt

    if goal is None:
        return ReflectivitySearch(None, visited, exhausted_budget)

    chain = []
    cur = goal
    while parent[cur][0] != -1:
        prev, idx = parent[cur]
        chain.append((triples[idx], cur))
        cur = prev
    chain.reverse()
    steps = tuple(CertificateStep(t, _unmask(m)) for t, m in chain)
    cert = ReflectionCertificate(r0, side, steps)
    ok, rep = verify_certificate(h, cert)
    if not ok:
        raise AssertionError(f"search produced an invalid certificate: {rep}")
    return ReflectivitySearch(cert, visited, False)


def _unmask(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        bit = mask & -mask
        out.add(bit.bit_length() - 1)
        mask ^= bit
    return frozenset(out)


def backtrack_unanchored(h: Graph, candidates: list[list[int]], first_only: bool,
                         target: Graph | None = None) -> list[tuple[int, ...]]:
    """Image arrays of the isomorphisms from H onto `target` (H itself when
    None, so automorphisms) that send every v into candidates[v]; only the
    first one found when `first_only` is set.  The target must have as many
    vertices as H.

    Vertices are placed in the edge-grown order.  An image w is consistent
    for v when w is unused and its neighbours among the used images are
    exactly the images of v's placed neighbours, so a complete placement
    maps edges onto edges.
    """
    image_mask = (target or h).nbr_mask
    order = _placement_order(h, candidates)
    placed_nbrs = [[u for u in order[:i] if u in h.adj[v]] for i, v in enumerate(order)]
    image = [-1] * h.n
    found: list[tuple[int, ...]] = []

    def extend(i: int, used: int) -> bool:
        if i == h.n:
            found.append(tuple(image))
            return first_only
        v = order[i]
        want = 0
        for u in placed_nbrs[i]:
            want |= 1 << image[u]
        for w in candidates[v]:
            if not used >> w & 1 and image_mask[w] & used == want:
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        return False

    extend(0, 0)
    return found


def involutions_unanchored(h: Graph) -> list[Automorphism]:
    """All non-identity automorphisms equal to their own inverse, sorted by
    image array, found without building the group.

    Backtracking as for the group, but placing v -> w also places w -> v,
    and a vertex placed that way is skipped when its turn comes.  Placed
    vertices and their images are then the same set P, so a placement is
    consistent when v's neighbours in P map onto w's neighbours in P and
    w's neighbours in P map onto v's.  More than _INVOLUTION_CAP of them
    raise CapabilityError as soon as the search finds one too many.
    """
    candidates = _candidates(h)
    nbr_mask = h.nbr_mask
    order = _placement_order(h, candidates)
    image = [-1] * h.n
    found: list[tuple[int, ...]] = []

    def placed_image(v: int, placed: int) -> int:
        """The images of v's placed neighbours, as a mask."""
        out = 0
        for u in h.adj[v]:
            if placed >> u & 1:
                out |= 1 << image[u]
        return out

    def extend(i: int, placed: int) -> None:
        while i < h.n and placed >> order[i] & 1:
            i += 1
        if i == h.n:
            found.append(tuple(image))
            if len(found) > _INVOLUTION_CAP + 1:  # the identity is found too
                raise CapabilityError(f"involution enumeration capped at {_INVOLUTION_CAP} "
                                      "involutions")
            return
        v = order[i]
        want = placed_image(v, placed)
        for w in candidates[v]:
            if placed >> w & 1 or nbr_mask[w] & placed != want or \
                    w != v and nbr_mask[v] & placed != placed_image(w, placed):
                continue
            image[v], image[w] = w, v
            extend(i + 1, placed | 1 << v | 1 << w)

    extend(0, 0)
    ident = tuple(range(h.n))
    return [Automorphism(p) for p in sorted(found) if p != ident]


def passes_carrying_test(h: Graph, phi: Automorphism) -> bool:
    """The test of the carrying involution search, vertex by vertex: no moved
    vertex x is adjacent to phi(x), nor to phi(y) for a moved neighbour y."""
    moved = [x for x in range(h.n) if phi(x) != x]
    return all(phi(x) not in h.adj[x] and
               not any(phi(y) in h.adj[x] for y in h.adj[x] if phi(y) != y)
               for x in moved)


def reflection_triples_naive(h: Graph) -> list[ReflectionTriple]:
    """Every reflection triple of H, in the order of ReflectionTriple.sort_key:
    for each non-identity involution phi, every way of putting one vertex
    of each moved pair {x, phi(x)} into A, kept when no edge joins A and
    phi(A).  The pairs partition the moved vertices, so A, phi(A) and the
    fixed set partition V(H)."""
    triples = []
    for phi in involutions_unanchored(h):
        pairs = [(x, phi(x)) for x in range(h.n) if x < phi(x)]
        for choice in product(*pairs):
            a = frozenset(choice)
            b = frozenset(phi(x) for x in a)
            if not any(h.adj[u] & b for u in a):
                triples.append(ReflectionTriple(a, b, phi))
    return sorted(triples, key=ReflectionTriple.sort_key)


def gen_random_per_pair(n: int, p: Fraction, seed: int) -> Graph:
    """Binomial random graph with exact edge probability p = num/den.

    One randrange(den) draw from random.Random(seed) per unordered pair,
    scanned in lexicographic order; the same (n, p, seed) always rebuilds
    the identical graph.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability must be in [0,1], got {p}")
    rng = random.Random(seed)
    num, den = p.numerator, p.denominator
    edges = ((u, v)
             for u in range(n) for v in range(u + 1, n)
             if rng.randrange(den) < num)
    return make_graph(n, edges)


def adjacency_from_edges(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix of g as float64."""
    adj = np.zeros((g.n, g.n))
    edges = np.array(g.edges(), dtype=np.intp).reshape(-1, 2)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = 1
    return adj


def smaller_side_greedy_conditioned(h: Graph) -> int:
    """The number of vertices the former plan of a connected bipartite
    pattern conditioned on.  A vertex with at most two neighbours left is
    summed out, joining its two neighbours if it has two; when every vertex
    left has three or more, the plan conditioned on one of the most
    neighbours on the smaller side X (either side when they are equal in
    size, the first the bipartition gives) while one was left, then on one
    of the most overall, the smaller label on ties."""
    side = min(h.bipartition(), key=len)
    nbrs = {v: set(h.adj[v]) for v in range(h.n)}
    conditioned = 0
    while nbrs:
        v = next((u for u in nbrs if len(nbrs[u]) <= 2), None)
        summed = v is not None
        if not summed:
            v = max(nbrs, key=lambda u: (u in side, len(nbrs[u]), -u))
            conditioned += 1
        around = nbrs.pop(v)
        for u in around:
            nbrs[u].discard(v)
        if summed and len(around) == 2:
            a, b = around
            nbrs[a].add(b)
            nbrs[b].add(a)
    return conditioned


def greedy_colouring_by_sets(g: Graph, seed: int) -> dict:
    """The colours of greedy_proper_colouring's former build: per edge of
    the seeded shuffle, the union of both ends' colour sets, scanned from 0
    for the smallest colour missing."""
    edges = list(g.edges())
    random.Random(seed).shuffle(edges)
    at_vertex = [set() for _ in range(g.n)]
    colours = {}
    for u, v in edges:
        used = at_vertex[u] | at_vertex[v]
        c = 0
        while c in used:
            c += 1
        colours[(u, v)] = c
        at_vertex[u].add(c)
        at_vertex[v].add(c)
    return colours


def side_first_q4() -> Graph:
    """Q4 relabelled so that one bipartition side takes labels 0..7, as in
    the benchmark's certify workload."""
    order = sorted(range(16), key=lambda v: (bin(v).count("1") % 2, v))
    label = {v: i for i, v in enumerate(order)}
    return make_graph(16, [(label[u], label[u ^ (1 << b)])
                           for u in range(16) for b in range(4) if u < u ^ (1 << b)])


def cube_vertex(bits: str) -> int:
    """Vertex id of a cube coordinate string; character i is coordinate i+1."""
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def set_graph_vertex(g: Graph, subset) -> int:
    """Vertex id carrying the given ground-set subset label."""
    want = frozenset(subset)
    for v, lab in enumerate(g.labels):
        if lab == want:
            return v
    raise GraphError(f"no vertex labelled {sorted(want)}")


def inverse(sigma: Automorphism) -> Automorphism:
    inv = [0] * len(sigma.perm)
    for v, w in enumerate(sigma.perm):
        inv[w] = v
    return Automorphism(tuple(inv))
