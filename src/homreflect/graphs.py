"""Simple undirected graphs: construction, generators, colourings, file I/O.

Vertices are dense integers 0..n-1.  Optional labels (ground-set
subsets) live in a side table so the counting kernels never see them.
Graphs are immutable after construction.  Edges are always listed in
ascending (u, v) order with u < v, however the graph was built, so edge
files and seeded colourings depend only on the graph.

Every graph has at most VERTEX_CAP = 1024 vertices.  The cap is checked
before any adjacency or edge list is built, so an oversized generator
argument or edge-list header is refused with CapabilityError instead of
exhausting memory in an O(n^2) pair loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np


class GraphError(ValueError):
    """Invalid input (bad vertex ids, malformed files, broken preconditions)."""


class CapabilityError(RuntimeError):
    """Request exceeds a documented size or budget cap."""


VERTEX_CAP = 1024


def _require_vertex_cap(n: int) -> None:
    if n > VERTEX_CAP:
        raise CapabilityError(f"graphs are capped at {VERTEX_CAP} vertices, got {n}")


def _require_vertex_count(n: int) -> None:
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    _require_vertex_cap(n)


class Graph:
    """Immutable simple undirected graph with neighbour sets and bitmasks."""

    __slots__ = ("n", "adj", "labels", "_masks", "_edges", "_parts")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...], labels=None):
        self.n = n
        self.adj = adj
        self.labels = labels
        self._masks = None
        self._edges = None
        self._parts = None

    @property
    def nbr_mask(self) -> tuple[int, ...]:
        """Each neighbour set as a bitmask (bit w for neighbour w), built on
        first use: the pattern searches read them, host kernels never do."""
        if self._masks is None:
            self._masks = tuple(_mask(s) for s in self.adj)
        return self._masks

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def max_degree(self) -> int:
        return max(self.degrees()) if self.n else 0

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v), u < v, in ascending order, built on first use:
        the one edge order that files, colourings and kernels follow."""
        if self._edges is None:
            self._edges = tuple(sorted((u, v) for u, nbrs in enumerate(self.adj)
                                       for v in nbrs if u < v))
        return self._edges

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self, removed: frozenset[int] = frozenset()) -> list[frozenset[int]]:
        """Connected components of the graph with the `removed` vertices deleted."""
        out, seen = [], set(removed)
        for s in range(self.n):
            if s in seen:
                continue
            comp, stack = {s}, [s]
            while stack:
                for w in self.adj[stack.pop()]:
                    if w not in comp and w not in removed:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def bipartition(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """Two colour classes, or None if an odd cycle exists.

        Within each connected component the class containing its smallest
        vertex goes to side 0, so the split is deterministic.
        """
        if self._parts is not None:
            return self._parts if self._parts != () else None
        colour = [-1] * self.n
        for s in range(self.n):
            if colour[s] != -1:
                continue
            colour[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if colour[w] == -1:
                        colour[w] = 1 - colour[u]
                        stack.append(w)
                    elif colour[w] == colour[u]:
                        self._parts = ()
                        return None
        parts = (frozenset(v for v in range(self.n) if colour[v] == 0),
                 frozenset(v for v in range(self.n) if colour[v] == 1))
        self._parts = parts
        return parts


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def make_graph(n: int, edges, labels=None) -> Graph:
    """Build a Graph from an iterable of edges, deduplicating and
    symmetrising; the vertex cap is checked before the first edge is read."""
    _require_vertex_count(n)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in adj), labels)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_hypercube(d: int) -> Graph:
    """d-dimensional cube: vertices are 0/1 vectors joined when they differ
    in exactly one coordinate.  Coordinate i+1 of vertex v is bit i of v."""
    if not 1 <= d <= 20:
        raise GraphError(f"cube dimension must be in [1,20], got {d}")
    n = 1 << d
    _require_vertex_cap(n)
    return Graph(n, tuple(frozenset(v ^ (1 << i) for i in range(d)) for v in range(n)))


def gen_set_graph(ell: int, k: int) -> Graph:
    """Bipartite containment graph on the ell-subsets and (k-ell)-subsets of
    {1..k}: S ~ T iff S is a subset of T.  Regular of degree C(k-ell, ell)."""
    if not 1 <= ell or not 2 * ell < k:
        raise GraphError(f"need 1 <= ell < k/2, got ell={ell}, k={k}")
    _require_vertex_cap(2 * comb(k, ell))
    small = [frozenset(c) for c in combinations(range(1, k + 1), ell)]
    large = [frozenset(c) for c in combinations(range(1, k + 1), k - ell)]
    off = len(small)
    edges = ((i, off + j)
             for i, s in enumerate(small)
             for j, t in enumerate(large)
             if s <= t)
    return make_graph(off + len(large), edges, labels=tuple(small + large))


def gen_random(n: int, p: Fraction, seed: int) -> Graph:
    """Binomial random graph with exact edge probability p = num/den.

    One randrange(den) draw from random.Random(seed) per unordered pair,
    scanned in lexicographic order, with an edge when the draw is below
    num; the same (n, p, seed) always rebuilds the identical graph.  The
    draws are taken from the generator in bulk (_draws_below), which
    leaves the stream, and so every graph, as one randrange call per pair
    gives it.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability must be in [0,1], got {p}")
    _require_vertex_count(n)
    edge = _draws_below(random.Random(seed), p.denominator, p.numerator, n * (n - 1) // 2)
    upper = np.zeros((n, n), dtype=bool)
    upper[~np.tri(n, dtype=bool)] = edge  # the strict upper triangle, row by row
    upper |= upper.T
    return Graph(n, tuple(frozenset(np.flatnonzero(row).tolist()) for row in upper))


_DRAW_WORDS = 1 << 16  # generator outputs taken per bulk draw


def _draws_below(rng: random.Random, den: int, num: int, count: int) -> np.ndarray:
    """Whether each of the next `count` values of rng.randrange(den) is
    below num, drawn in bulk.

    randrange(den) tries getrandbits(k), k = den.bit_length(), until the
    value is below den.  One try takes ceil(k/32) 32-bit outputs of the
    generator, least significant first, and cuts the last one to its top
    bits.  getrandbits(32 c) takes c outputs in the same order, as the
    little-endian words of one integer, so each chunk of tries is one
    call, read as rows of 32-bit digits, most significant first.
    """
    k = den.bit_length()
    width = -(-k // 32)
    out = np.empty(count, dtype=bool)
    done = 0
    while done < count:
        # a try succeeds with probability den / 2^k: ask for enough tries,
        # on average, to complete the draws, with a little to spare
        tries = max(1, min(_DRAW_WORDS // width, ((count - done) << k) // den + 64))
        raw = rng.getrandbits(32 * width * tries).to_bytes(4 * width * tries, "little")
        digits = np.frombuffer(raw, dtype="<u4").reshape(tries, width)[:, ::-1].copy()
        digits[:, 0] >>= 32 * width - k
        kept = digits[_below(digits, den)][:count - done]
        out[done:done + len(kept)] = _below(kept, num)
        done += len(kept)
    return out


def _below(digits: np.ndarray, bound: int) -> np.ndarray:
    """Which rows of 32-bit digits, most significant first, hold a value
    below bound (itself below 2^(32 x digits per row))."""
    width = digits.shape[1]
    less = np.zeros(len(digits), dtype=bool)
    equal = np.ones(len(digits), dtype=bool)
    for j in range(width):
        digit = bound >> 32 * (width - 1 - j) & 0xFFFFFFFF
        less |= equal & (digits[:, j] < digit)
        equal &= digits[:, j] == digit
    return less


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def gen_complete(n: int) -> Graph:
    _require_vertex_count(n)
    return Graph(n, tuple(frozenset(chain(range(v), range(v + 1, n))) for v in range(n)))


def gen_clique_union(size: int, count: int) -> Graph:
    """Disjoint union of `count` complete graphs on `size` vertices each."""
    if size < 1 or count < 1:
        raise GraphError("clique union needs positive size and count")
    edges = ((c * size + u, c * size + v)
             for c in range(count) for u in range(size) for v in range(u + 1, size))
    return make_graph(size * count, edges)


def gen_cycle_blowup(length: int) -> Graph:
    """2-blowup of an even cycle: each vertex doubled, each edge replaced by
    a complete bipartite K_{2,2} between the copies."""
    if length < 3:
        raise GraphError(f"cycle length must be at least 3, got {length}")
    edges = ((2 * i + a, 2 * ((i + 1) % length) + b)
             for i in range(length) for a in range(2) for b in range(2))
    return make_graph(2 * length, edges)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------

def edge_density(g: Graph) -> Fraction:
    """p with e(G) = p n^2 / 2, i.e. 2e/n^2."""
    if g.n == 0:
        raise GraphError("edge density undefined for the empty vertex set")
    return Fraction(2 * g.edge_count(), g.n * g.n)


# ---------------------------------------------------------------------------
# Edge colourings
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EdgeColouring:
    """Colour ids per unordered edge (u, v), u < v.  Like a Graph it is not
    changed after construction.  Two colourings are equal only when they
    are the same object, which is how kept walk sums are matched."""

    colours: dict

    def of(self, u: int, v: int) -> int:
        return self.colours[(u, v) if u < v else (v, u)]

    @cached_property
    def proper(self) -> bool:
        """No two edges that share an endpoint share a colour; worked out
        from the colours alone, once."""
        ends = [(x, c) for (u, v), c in self.colours.items() for x in (u, v)]
        return len(set(ends)) == len(ends)

    def covers(self, g: Graph) -> bool:
        """Whether the colours are on exactly the edges of g.  A yes is
        kept for the last host object asked (neither a graph nor a
        colouring changes after construction), so asking again about it is
        free; a no is worked out on every call."""
        if self.__dict__.get("_covered") is not g:
            if not _covers(g, self.colours):
                return False
            self.__dict__["_covered"] = g
        return True


def _covers(g: Graph, colours: dict) -> bool:
    return colours.keys() == set(g.edges())


def validate_colouring(g: Graph, colouring: EdgeColouring) -> None:
    """Every edge of g coloured exactly once, checked in full once per
    host object (EdgeColouring.covers).  Whether the colouring is proper
    is its own `proper`, asked only where a proper one is needed."""
    if not colouring.covers(g):
        raise GraphError("colouring does not cover exactly the edge set")


def greedy_proper_colouring(g: Graph, seed: int) -> EdgeColouring:
    """Smallest-free-colour greedy over a seeded shuffle of edges(), so the
    colouring depends only on the graph and the seed.

    Uses at most 2*maxdeg - 1 colours.  Each edge takes a colour free at
    both ends, so the result is proper and covers every edge by
    construction; callers validate colourings where they use them.
    """
    edges = list(g.edges())
    random.Random(seed).shuffle(edges)
    taken_at = [0] * g.n  # bit c set: colour c is on an edge at the vertex
    colours = {}
    for u, v in edges:
        taken = taken_at[u] | taken_at[v]
        free = ~taken & (taken + 1)  # the lowest clear bit
        colours[(u, v)] = free.bit_length() - 1
        taken_at[u] |= free
        taken_at[v] |= free
    return EdgeColouring(colours)


def rainbow_colouring(g: Graph) -> EdgeColouring:
    """Every edge its own colour (proper by construction)."""
    colours = {e: i for i, e in enumerate(g.edges())}
    return EdgeColouring(colours)


def direction_colouring(d: int) -> tuple[Graph, EdgeColouring]:
    """The d-cube with each edge coloured by the coordinate its endpoints
    differ in: a proper colouring with exactly d colours."""
    g = gen_hypercube(d)
    colours = {}
    for u, v in g.edges():
        colours[(u, v)] = (u ^ v).bit_length() - 1
    return g, EdgeColouring(colours)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph, path) -> None:
    """Line 1 is "n m"; then one "u v" line per edge, 0-indexed, in
    ascending (u, v) order with u < v, LF ends."""
    edges = g.edges()
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{g.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise GraphError(f"{path}: empty edge-list file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise GraphError(f"{path}: bad header line {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphError(f"{path}: header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphError(f"{path}: bad edge line {ln!r}") from None
        edges.append((u, v))
    return make_graph(n, edges)


def write_colouring(g: Graph, colouring: EdgeColouring, path) -> None:
    """One "u v colourId" line per edge, in ascending (u, v) order with
    u < v."""
    with open(path, "w", newline="\n") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v} {colouring.of(u, v)}\n")


def read_colouring(g: Graph, path) -> EdgeColouring:
    colours = {}
    with open(path) as fh:
        for raw in fh:
            ln = raw.strip()
            if not ln:
                continue
            try:
                u, v, c = map(int, ln.split())
            except ValueError:
                raise GraphError(f"{path}: bad colour line {ln!r}") from None
            key = (u, v) if u < v else (v, u)
            if key in colours:
                raise GraphError(f"{path}: edge {key} coloured twice")
            colours[key] = c
    colouring = EdgeColouring(colours)
    if not colouring.covers(g):
        raise GraphError(f"{path}: colouring does not cover exactly the edge set")
    return colouring
