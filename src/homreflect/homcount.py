"""Exact homomorphism counting, with and without identification constraints.

hom(H, G) is the number of edge-preserving maps V(H) -> V(G); the
constrained variant counts only the maps sending a prescribed vertex set of
H to a single host vertex, and is evaluated as the plain count of the
quotient pattern.  Bipartite patterns use a part-enumeration kernel (pure
Python bitsets on small hosts, a vectorised two-layer numpy kernel on
larger ones); other patterns fall back to counting backtracking.

hom_count memoises its counts per (quotient pattern, host) for the life of
the process, in one least-recently-used table of _MEMO_SIZE entries, so a
reflection sweep (`verify section2`) runs the kernels once per distinct
quotient instead of four times per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from statistics import median

import numpy as np

from .graphs import CapabilityError, Graph, GraphError, edge_density, gen_random, make_graph
from .reflectivity import ReflectionCertificate, ReflectionTriple, reflect_set, verify_certificate

_PATTERN_CAP = 16
_NUMPY_HOST_THRESHOLD = 20
_ASSIGNMENT_BUDGET = 3 * 10 ** 8
_DFS_NODE_BUDGET = 5 * 10 ** 7
_MEMO_SIZE = 4096


def quotient_graph(h: Graph, group) -> Graph:
    """Identify the vertices of `group` to one vertex, collapsing parallel
    edges; the group must be independent in H or the quotient would need a
    loop."""
    group = frozenset(group)
    if not group:
        raise GraphError("cannot quotient by an empty set")
    if not group <= frozenset(range(h.n)):
        raise GraphError("quotient set contains unknown vertices")
    for u in group:
        if h.adj[u] & group:
            raise GraphError("quotient set is not independent (self-loop would arise)")
    rep = min(group)
    new_id = {}
    nxt = 0
    for v in range(h.n):
        if v in group and v != rep:
            continue
        new_id[v] = nxt
        nxt += 1
    for v in group:
        new_id[v] = new_id[rep]
    edges = {(min(new_id[u], new_id[v]), max(new_id[u], new_id[v]))
             for u, v in h.edges()}
    return make_graph(nxt, sorted(edges))


def hom_count(h: Graph, g: Graph, constraint=None) -> int:
    """Number of homomorphisms H -> G, optionally with every vertex of
    `constraint` forced to a common image.  Counts are memoised per
    (quotient pattern, host); a CapabilityError is raised again on every
    call, never stored."""
    if h.n > _PATTERN_CAP:
        raise CapabilityError(f"pattern size capped at {_PATTERN_CAP} vertices")
    if constraint is not None:
        h = quotient_graph(h, constraint)
    return _memoised_count(h, g)


@lru_cache(maxsize=_MEMO_SIZE)
def _memoised_count(h: Graph, g: Graph) -> int:
    if h.n == 0:
        return 1
    if g.n == 0:
        return 0
    total = 1
    for comp in sorted(h.components(), key=min):
        total *= _component_count(h, sorted(comp), g)
        if total == 0:
            break
    return total


def _component_count(h: Graph, comp: list[int], g: Graph) -> int:
    local = {v: i for i, v in enumerate(comp)}
    adj = [frozenset(local[w] for w in h.adj[v] if w in local) for v in comp]
    sub = Graph(len(comp), tuple(adj))
    parts = sub.bipartition()
    if parts is None:
        return _dfs_hom_count(sub, g)
    xs, ys = sorted(parts[0]), sorted(parts[1])
    if len(ys) < len(xs):
        xs, ys = ys, xs
    if g.n ** max(len(xs), 1) > _ASSIGNMENT_BUDGET:
        raise CapabilityError("assignment enumeration exceeds the budget cap")
    y_specs = [tuple(sorted(xs.index(w) for w in sub.adj[y])) for y in ys]
    if len(xs) >= 2 and g.n > _NUMPY_HOST_THRESHOLD \
            and g.n ** (len(ys) + 2) < 2 ** 53:
        return _layered_count_numpy(len(xs), y_specs, g)
    return _layered_count_python(len(xs), y_specs, g)


def _layered_count_python(x_count: int, y_specs, g: Graph) -> int:
    """Enumerate one side of the bipartition; each opposite-side vertex
    contributes the size of the common neighbourhood of its placed images."""
    n = g.n
    masks = g.nbr_mask
    full = (1 << n) - 1
    y_mask = [full] * len(y_specs)
    y_left = [len(s) for s in y_specs]
    ys_at = [[] for _ in range(x_count)]
    for yi, xs in enumerate(y_specs):
        for xp in xs:
            ys_at[xp].append(yi)
    free_factor = n ** sum(1 for s in y_specs if not s)  # isolated never occurs for connected comps
    total = 0

    def rec(pos: int, partial: int) -> None:
        nonlocal total
        if pos == x_count:
            total += partial
            return
        hooked = ys_at[pos]
        for v in range(n):
            m = masks[v]
            prod = partial
            dead = False
            undo = []
            for yi in hooked:
                old = y_mask[yi]
                nm = old & m
                y_mask[yi] = nm
                y_left[yi] -= 1
                undo.append((yi, old))
                if nm == 0:
                    dead = True
                    break
                if y_left[yi] == 0:
                    prod *= nm.bit_count()
            if not dead:
                rec(pos + 1, prod)
            for yi, old in undo:
                y_mask[yi] = old
                y_left[yi] += 1

    rec(0, free_factor)
    return total


def _layered_count_numpy(x_count: int, y_specs, g: Graph) -> int:
    """Same count with the last two enumerated vertices vectorised as an
    n-by-n block; float64 stays exact because every cell is an integer far
    below 2**53 (guarded by the caller)."""
    n = g.n
    adj = np.zeros((n, n))
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1.0
    ones = np.ones(n)
    p, q = x_count - 2, x_count - 1
    total = 0
    for partial in product(range(n), repeat=x_count - 2):
        block = None
        scalar = 1
        dead = False
        for spec in y_specs:
            placed = [x for x in spec if x < p]
            cand = ones
            for x in placed:
                cand = cand * adj[partial[x]]
            hit_p, hit_q = p in spec, q in spec
            if not hit_p and not hit_q:
                s = int(cand.sum())
                if s == 0:
                    dead = True
                    break
                scalar *= s
            elif hit_p and hit_q:
                m = (adj * cand) @ adj.T
                block = m if block is None else block * m
            else:
                vec = adj @ cand
                shaped = vec[:, None] if hit_p else vec[None, :]
                block = shaped * np.ones((n, n)) if block is None else block * shaped
        if dead:
            continue
        if block is None:
            total += scalar * n * n
        else:
            total += scalar * int(round(float(block.sum())))
    return total


def _dfs_hom_count(h: Graph, g: Graph, budget: int = _DFS_NODE_BUDGET) -> int:
    """Backtracking count for patterns without a bipartition (quotients that
    merged across the two sides)."""
    order = _bfs_order(h)
    placed_nbrs = [[order.index(w) for w in h.adj[v] if order.index(w) < i]
                   for i, v in enumerate(order)]
    n = g.n
    full = (1 << n) - 1
    masks = g.nbr_mask
    nodes = 0
    last = h.n - 1

    def rec(pos: int, images: list[int]) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapabilityError("backtracking count exceeded the node budget")
        cand = full
        for j in placed_nbrs[pos]:
            cand &= masks[images[j]]
        if pos == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            images.append(bit.bit_length() - 1)
            total += rec(pos + 1, images)
            images.pop()
            cand ^= bit
        return total

    return rec(0, [])


def _bfs_order(h: Graph) -> list[int]:
    start = max(range(h.n), key=h.degree)
    order = [start]
    seen = {start}
    qi = 0
    while qi < len(order):
        for w in sorted(h.adj[order[qi]]):
            if w not in seen:
                seen.add(w)
                order.append(w)
        qi += 1
    for v in range(h.n):  # disconnected callers
        if v not in seen:
            order.append(v)
            seen.add(v)
    return order


def injective_hom_count(h: Graph, g: Graph, budget: int = _DFS_NODE_BUDGET) -> int:
    """Injective homomorphisms by distinctness-constrained backtracking.

    Exhaustive mode only: both caps are hard because the search walks every
    partial embedding.
    """
    if h.n > 10:
        raise CapabilityError("injective counting capped at 10 pattern vertices")
    if g.n > 64:
        raise CapabilityError("injective counting capped at 64 host vertices")
    if h.n > g.n:
        return 0
    order = _bfs_order(h)
    placed_nbrs = [[order.index(w) for w in h.adj[v] if order.index(w) < i]
                   for i, v in enumerate(order)]
    full = (1 << g.n) - 1
    masks = g.nbr_mask
    nodes = 0
    last = h.n - 1

    def rec(pos: int, images: list[int], used: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapabilityError("injective count exceeded the node budget")
        cand = full & ~used
        for j in placed_nbrs[pos]:
            cand &= masks[images[j]]
        if pos == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            images.append(bit.bit_length() - 1)
            total += rec(pos + 1, images, used | bit)
            images.pop()
            cand ^= bit
        return total

    return rec(0, [], 0)


# ---------------------------------------------------------------------------
# Specialised 3-cube counting for supersaturation hosts
# ---------------------------------------------------------------------------

def count_cube_homomorphisms(g: Graph) -> tuple[int, int]:
    """(total, injective) homomorphism counts of the 3-cube into G.

    Enumerates ordered images (a, b, c, d) of one side of the cube's
    bipartition; the opposite side contributes common-neighbourhood sizes,
    and the injective count removes same-image collisions of that side in
    closed form (the only other possible collisions are each opposite-side
    vertex against the unique side vertex it does not neighbour).
    """
    n = g.n
    if n > 90:
        raise CapabilityError("cube counting kernel capped at 90 host vertices")
    adj = np.zeros((n, n))
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1.0
    tri = [(adj * adj[a][None, :]) @ adj.T for a in range(n)]
    idx = np.arange(n)
    total = 0
    injective = 0
    for a in range(n):
        m_a = tri[a]
        col_a = adj[:, a]
        for b in range(n):
            nab = adj[a] * adj[b]
            u = adj @ nab
            m_b = tri[b]
            block = (u[:, None] * u[None, :]) * m_a * m_b
            total += int(round(float(block.sum())))
            if a == b:
                continue
            masked = adj * nab[None, :]
            q = masked @ masked.T
            t1 = u[:, None] - masked
            t2 = u[None, :] - masked.T
            col_b = adj[:, b]
            t3 = m_a - adj[a, b] * np.outer(col_b, col_b)
            t4 = m_b - adj[b, a] * np.outer(col_a, col_a)
            e1 = t1 + t2 + t3 + t4
            e2 = (t1 * t2 + t1 * t3 + t1 * t4
                  + t2 * t3 + t2 * t4 + t3 * t4)
            inner = t1 * t2 * t3 * t4 - q * e2 + 3 * q * q + 2 * q * e1 - 6 * q
            inner[idx, idx] = 0.0
            inner[a, :] = 0.0
            inner[b, :] = 0.0
            inner[:, a] = 0.0
            inner[:, b] = 0.0
            injective += int(round(float(inner.sum())))
    return total, injective


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SidorenkoResult:
    hom: int
    bound: Fraction
    holds: bool

    @property
    def margin(self) -> float:
        return float(Fraction(self.hom) / self.bound) if self.bound else float("inf")


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


def noninjective_pair_bound(h: Graph, g: Graph) -> int:
    """Sum of constrained counts over all independent vertex pairs of H: an
    upper bound for the number of non-injective homomorphisms."""
    total = 0
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if v not in h.adj[u]:
                total += hom_count(h, g, {u, v})
    return total


# ---------------------------------------------------------------------------
# Supersaturation experiment
# ---------------------------------------------------------------------------

def supersaturation_experiment(d: int, n: int, p, seed: int, trials: int,
                               threshold: Fraction = Fraction(1, 10)) -> dict:
    """Seeded random hosts at density p: count 3-cube homomorphisms,
    injective copies, and compare with the n^8 p^12 benchmark.

    The 0.1 acceptance threshold is a harness constant chosen with generous
    slack below the expected injective count, not a derived value.
    """
    if d != 3:
        raise CapabilityError("supersaturation experiment runs at d=3 only")
    if n > 48:
        raise CapabilityError("supersaturation hosts capped at 48 vertices")
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
            "meets_threshold": Fraction(inj) >= threshold * benchmark,
            "degree_ratio": (g.max_degree() / mind) if mind else None,
        })
    ratios = [r["ratio_to_benchmark"] for r in rows]
    return {
        "d": d,
        "n": n,
        "p": p,
        "benchmark": benchmark,
        "threshold": threshold,
        "trials": rows,
        "all_meet_threshold": all(r["meets_threshold"] for r in rows),
        "min_ratio": min(ratios) if ratios else None,
        "median_ratio": median(ratios) if ratios else None,
    }


def cube_parameters(d: int) -> tuple[int, int, int]:
    """(v, e, t) of the d-cube: 2^d vertices, d 2^(d-1) edges, half on a side."""
    return (1 << d, d * (1 << (d - 1)), 1 << (d - 1))


def cube_exponent_identity(d: int) -> tuple[Fraction, Fraction]:
    """The general exponent at the cube's parameters and its simplified
    closed form; the two must agree for every d."""
    v, e, t = cube_parameters(d)
    general = turan_exponent(v, e, t)
    closed = Fraction(2) - Fraction(1, d - 1) + Fraction(1, (d - 1) * (1 << (d - 1)))
    return general, closed
