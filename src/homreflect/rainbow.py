"""Degree-weighted closed-walk sums and rainbow-cycle machinery.

A homomorphic cycle of length 2k is a closed walk u_0 ... u_{2k-1}; its
weight is the reciprocal of the product of the degrees along it, so the
total weight equals the trace of the 2k-th power of the degree-normalised
step matrix M = D^-1 A.  The colour-matched variant restricts to walks
whose steps i and j carry the same edge colour.

The exact sums come from one engine per call (_walk_sums keeps the values,
not the engine): integer powers of B = L M, where L is the lcm of the
degrees, divided by a power of L.  Every value it forms is at most
n L^2k / delta for half-length k and minimum degree delta (see
_WalkEngine), and its products run through homreflect.exact: plain float64
below 2^53, float64 residues modulo enough primes past it.  Everything in
this module is exact rational arithmetic except the explicitly spectral
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm

import numpy as np

from .exact import Exact, adjacency, require_bits_admitted
from .graphs import EdgeColouring, Graph, GraphError, validate_colouring


def _require_positive_degrees(g: Graph) -> None:
    if g.n == 0 or g.min_degree() == 0:
        raise GraphError("walk weights need every vertex to have positive degree")


class _WalkEngine:
    """Exact powers of the scaled step matrix B = L * D^-1 A, L = lcm(degrees),
    for the closed walks of length up to 2k.  _walk_sums builds one per call
    and drops it before it returns.

    B[u][v] = L/deg(u) on edges is an integer, every row of B sums to L and
    B^t = L^t M^t for the step matrix M = D^-1 A, so each weight is an
    integer over a power of L.  The engine stores B^1 .. B^T: step_trace(2j),
    j <= k, needs B^j, so T = k; an engine for colour weights (`coloured`)
    has T = max(k, 2k - 2), since matched_trace(a, b), a + b = 2k - 2,
    needs B^a and B^b, B^0 being the identity, which is never built.  It
    holds those T matrices and at most three temporaries of n^2 cells: the
    product of step_trace is never formed, a colour class of at most n
    oriented edges gathers two blocks of at most n^2 cells, and a larger
    one forms its step matrix and two products (matched_trace).

    Every value it forms is at most n L^2k / delta, delta the minimum
    degree, the bound it hands to Exact.  Every entry is non-negative, so
    no partial sum exceeds the value it adds up to.  The rows of B^t sum to
    L^t, so its entries are at most L^t <= L^2k.  A diagonal entry of M^t,
    t >= 1, is sum_v M^(t-1)[u,v] M[v,u] <= 1/delta, so tr(B^t) <= n L^t /
    delta.  step_trace(2j) adds up the products B^j[u,v] B^j[v,u], whose
    total is tr(B^2j) <= n L^2k / delta.  matched_trace(a, b) forms entries
    of B^a and B^b, some times w = L/deg or times a colour's step matrix
    (each at most an entry of B^(a+1) or B^(b+1)), products of two of them
    (at most L^(a+b+1)), their row sums (each at most an entry of
    B^(a+b+1)) and, per colour, their weighted total; the totals of all
    colours add up to at most tr(B^(a+b+2)) = tr(B^2k).  Offset 1 of a
    proper colouring adds up the products B^2[y,y] B^(2k-2)[y,y], whose
    total is that offset's value.

    The bound is formed only after its size is checked from k and L alone,
    so that a huge k is refused at once.  A degree is at most n - 1, so
    delta < n and n L^2k / delta >= L^2k, and L >= 2^(b - 1) for b the bit
    length of L: the bound is at least 2^(2k(b - 1)), the lower bound that
    require_bits_admitted reads.
    """

    def __init__(self, g: Graph, k: int, coloured: bool = False):
        _require_positive_degrees(g)
        self.g = g
        degrees = g.degrees()
        self.scale = lcm(*degrees)
        top = max(k, 2 * k - 2) if coloured else k
        require_bits_admitted(2 * k * (self.scale.bit_length() - 1), g.n, top + 3)
        self.exact = Exact(g.n * self.scale ** (2 * k) // min(degrees), g.n, top + 3)
        # B[u][v] = weights[u] on the edges uv
        self.weights = self.exact.from_ints([self.scale // d for d in degrees])
        self.powers = [None, self.exact.mul(adjacency(g), self.weights[..., :, None])]
        for _ in range(top - 1):
            self.powers.append(self.exact.matmul(self.powers[-1], self.powers[1]))

    def step_trace(self, t: int) -> Fraction:
        """Total weight of the closed walks of length t = 2j, j <= k: the
        rows of B^j paired with the columns, entry by entry, add up to
        tr(B^t)."""
        half = self.powers[t // 2]
        rows = self.exact.dot(half, half.mT)
        return Fraction(self.exact.to_int(self.exact.total(rows, -1)), self.scale ** t)

    def matched_trace(self, classes, a: int, b: int) -> Fraction:
        """Sum over colours of tr(M^a E M^b E) with E the colour's oriented
        step matrix: closed walks of length a+b+2 whose two marked steps
        share that colour.  `classes` is _colour_classes(g, colouring):
        whether the colouring is proper, and each colour's oriented edges
        (x, y) as the arrays xs and ys.

        With w = L/deg, a colour's share of L^(a+b+2) times the value is the
        sum over its oriented edges i = (x_i, y_i) of w[x_i] rows[i], where
        rows[i] = sum_j B^a[y_j, x_i] B^b[y_i, x_j] w[x_j] over the same
        edges j: the walk takes edge i, b steps to x_j, edge j and a steps
        back to x_i.

        Offset 1 (a = 0) of a proper colouring needs no colours.  B^0 is the
        identity, so edge j ends where edge i starts, y_j = x_i, and a proper
        colouring has one edge of each colour at x_i: j is edge i walked
        back, x_j = y_i, and its term is w[x_i] w[y_i] B^b[y_i, y_i].  Over
        all colours every oriented edge is taken once, so the value is the
        sum over y of B^b[y, y] times sum_x w[y] w[x] over the edges (x, y),
        which is B^2[y, y] = sum_x B[y, x] B[x, y].  At k = 1, a = b = 0 and
        edge j must also start where edge i ends, so it is edge i walked
        back in every colouring, and B^0[y, y] = 1.

        Every other offset takes each class by one row contraction.  A
        class of at most n oriented edges, as every class of a proper
        colouring is, gathers the blocks B^a[y_j, x_i] and C^b[y_i, x_j] of
        at most n^2 cells each, C^b = B^b diag(w) being formed and reduced
        once for all classes, and contracts them row by row.  A larger
        class, which only an improper colouring has, is taken as its step
        matrix E[x, y] = w[x]: rows[i] is (B^b E B^a)[y_i, x_i], and the
        class's share tr(E B^a E B^b) is the row contraction of E B^a with
        the columns of E B^b, two matrix products of inner dimension n.
        Either way the engine holds three temporaries of n^2 cells.

        Every sum is exact.  On the residue path a row adds at most n <=
        1024 products of two reduced entries, each below p^2, so it stays
        below 1024 p^2 < 2^53 and is reduced once; so does the weighted
        total of at most n rows.  On the plain path every row, weighted, is
        a partial sum of the colour's share, at most tr(B^(a+b+2)), and an
        entry B^b[y, x] w[x] is at most B^(b+1)[y, y'] for an edge (x, y'):
        all stay within the engine's bound."""
        proper, members = classes
        if a == 0 and (proper or b == 0):
            total = self._reversal_total(b)
        else:
            n = self.g.n
            total = sum(self._matrix_total(a, b, xs, ys) for xs, ys in members if len(xs) > n)
            gathered = [(xs, ys) for xs, ys in members if len(xs) <= n]
            if gathered:
                scaled = self.exact.mul(self.powers[b], self.weights[..., None, :])
                total += sum(self._gathered_total(a, scaled, xs, ys) for xs, ys in gathered)
        return Fraction(total, self.scale ** (a + b + 2))

    def _reversal_total(self, b: int) -> int:
        """sum_y B^2[y, y] B^b[y, y]: offset 1 where every marked pair is an
        edge walked there and back."""
        exact, step = self.exact, self.powers[1]
        tail = (exact.lift(np.ones(self.g.n)) if b == 0
                else np.diagonal(self.powers[b], axis1=-2, axis2=-1))
        return exact.to_int(exact.dot(exact.dot(step, step.mT), tail))

    def _gathered_total(self, a: int, scaled, xs, ys) -> int:
        """A class's share from the blocks B^a[y_j, x_i] and scaled[y_i, x_j]."""
        exact = self.exact
        if a:
            ahead = _gather(self.powers[a], ys[None, :], xs[:, None])
        else:
            ahead = exact.lift((ys[None, :] == xs[:, None]).astype(np.float64))
        rows = exact.dot(ahead, _gather(scaled, ys[:, None], xs))
        return exact.to_int(exact.dot(rows, self.weights[..., xs]))

    def _matrix_total(self, a: int, b: int, xs, ys) -> int:
        """A class's share tr(E B^a E B^b) from its step matrix E."""
        exact = self.exact
        step = np.zeros(self.powers[1].shape)
        step[..., xs, ys] = self.weights[..., xs]
        ahead = exact.matmul(step, self.powers[a]) if a else step
        back = exact.matmul(step, self.powers[b])
        return exact.to_int(exact.total(exact.dot(ahead, back.mT), -1))


def _gather(matrices, rows, cols) -> np.ndarray:
    """matrices[..., rows, cols] for index arrays that broadcast together,
    taken along the flattened matrices, which numpy does faster than
    indexing two axes."""
    flat = matrices.reshape(matrices.shape[:-2] + (-1,))
    return np.take(flat, rows * matrices.shape[-1] + cols, axis=-1)


def _colour_classes(g: Graph, colouring: EdgeColouring) -> tuple:
    """Whether the colouring is proper, and each colour's oriented edges
    (x, y) of g as the arrays xs and ys: the edges in edges() order, sorted
    stably by colour once."""
    edges = g.edges()
    ids = np.array([colouring.colours[e] for e in edges])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.intp,
                       count=2 * len(edges)).reshape(-1, 2)[order]
    # each edge (u, v) gives (u, v) and (v, u), in contiguous arrays: the
    # engine gathers matrix entries along them
    cuts = 2 * np.flatnonzero(ids[1:] != ids[:-1]) + 2
    xs, ys = np.split(ends.ravel(), cuts), np.split(ends[:, ::-1].ravel(), cuts)
    return colouring.proper, list(zip(xs, ys))


# The values of the last _walk_sums call: (host, k, colouring, weights, offsets)
_last_sums: list[tuple] = []


def _walk_sums(g: Graph, k: int, colouring: EdgeColouring | None = None):
    """The weights (h_2, ..., h_2k) of g and, given a colouring, the
    coincidence weights of the 2k-cycles at the canonical offsets 1..k
    (else None), from one engine that is dropped before the call returns.
    The last call's values serve a later call for the same host object, k
    and colouring object, or for the same host and k without a colouring
    (`h2k --patterns`, `verify section3 --epsilon`)."""
    if k < 1:
        raise GraphError(f"half-length must be positive, got {k}")
    if _last_sums:
        host, kept_k, kept_colouring, weights, offsets = _last_sums[0]
        if host is g and kept_k == k and (colouring is None or colouring is kept_colouring):
            return weights, offsets
    engine = _WalkEngine(g, k, colouring is not None)
    weights = tuple(engine.step_trace(2 * j) for j in range(1, k + 1))
    offsets = None
    if colouring is not None:
        classes = _colour_classes(g, colouring)
        offsets = tuple(engine.matched_trace(classes, ell - 1, 2 * k - ell - 1)
                        for ell in range(1, k + 1))
    _last_sums[:] = [(g, k, colouring, weights, offsets)]
    return weights, offsets


def cycle_weight_sum(g: Graph, k: int) -> Fraction:
    """Total weight of the homomorphic cycles of length 2k, exactly."""
    return _walk_sums(g, k)[0][-1]


@dataclass(frozen=True)
class SpectralValue:
    value: float
    error_bound: float


def cycle_weight_sum_spectral(g: Graph, k: int) -> SpectralValue:
    """Floating evaluation through the eigenvalues of the symmetric
    degree-normalised adjacency matrix."""
    _require_positive_degrees(g)
    if k < 1:
        raise GraphError(f"half-length must be positive, got {k}")
    eig = _normalised_spectrum(g)
    value = float(np.sum(eig ** (2 * k)))
    bound = 4.0e-13 * g.n * 2 * k + 1e-13 * abs(value)
    return SpectralValue(value, bound)


@lru_cache(maxsize=1)
def _normalised_spectrum(g: Graph) -> np.ndarray:
    """Eigenvalues of D^-1/2 A D^-1/2, kept for the last host, so that every
    k asked of one host shares one decomposition."""
    inv_sqrt = 1.0 / np.sqrt(np.array(g.degrees(), dtype=np.float64))
    a = adjacency(g)
    a *= inv_sqrt[:, None]
    a *= inv_sqrt
    return np.linalg.eigvalsh(a)


def canonical_pattern_offset(i: int, j: int, two_k: int) -> int:
    """Rotate the marked steps (i, j) so the later one sits at position 2k,
    then fold by traversal reversal into 1..k."""
    if not 1 <= i < j <= two_k:
        raise GraphError(f"marked steps must satisfy 1 <= i < j <= {two_k}")
    off = i + two_k - j
    return two_k - off if off > two_k // 2 else off


def coincidence_table(g: Graph, colouring: EdgeColouring,
                      k: int) -> dict[tuple[int, int], Fraction]:
    """All C(2k,2) coincidence weights, evaluated once per canonical offset."""
    validate_colouring(g, colouring)
    return _coincidences(_walk_sums(g, k, colouring)[1])


def _coincidences(offsets: tuple) -> dict[tuple[int, int], Fraction]:
    """The weight of every pair of marked steps, from those at the k offsets."""
    two_k = 2 * len(offsets)
    return {(i, j): offsets[canonical_pattern_offset(i, j, two_k) - 1]
            for i in range(1, two_k + 1) for j in range(i + 1, two_k + 1)}


# ---------------------------------------------------------------------------
# Inequality chains
# ---------------------------------------------------------------------------

def _chain_inputs(g: Graph, colouring: EdgeColouring, k: int, chain: str):
    """Validate a chain's inputs; return the minimum degree, the weights
    h_2 .. h_2k and the full coincidence table."""
    validate_colouring(g, colouring)
    if not colouring.proper:
        raise GraphError(f"{chain} chain needs a proper colouring")
    weights, offsets = _walk_sums(g, k, colouring)
    h = {2 * j: w for j, w in enumerate(weights, 1)}
    return g.min_degree(), h, _coincidences(offsets)


def _add_check(checks: list, name: str, lhs: Fraction, rhs: Fraction,
               conditional: bool) -> None:
    checks.append({"name": name, "lhs": lhs, "rhs": rhs,
                   "holds": lhs <= rhs, "conditional": conditional})


def check_pattern_chain(g: Graph, colouring: EdgeColouring, k: int) -> dict:
    """Evaluate the full coincidence table and the inequality chain.

    The pairwise, extremal and shortening inequalities must hold for every
    proper colouring; a failure there is an implementation bug.  The
    no-rainbow bounds are hypothesis-dependent: a violation certifies that
    a rainbow cycle exists.
    """
    delta, h, table = _chain_inputs(g, colouring, k, "pattern")
    two_k = 2 * k
    checks = []
    top = table[(1, two_k)]
    for ell in range(1, k + 1):
        _add_check(checks, f"pairwise_split_l{ell}",
                   table[(ell, two_k)] ** 2,
                   top * table[(ell, two_k + 1 - ell)],
                   conditional=False)
    _add_check(checks, "extremal_pattern", max(table.values()), top, conditional=False)
    if k >= 2:
        _add_check(checks, "shorten_step", top, h[two_k - 2] / delta, conditional=False)
    checks += _growth_checks("no_rainbow", g.n, delta, h, k)
    return {
        "k": k,
        "n": g.n,
        "min_degree": delta,
        "weights": h,
        "patterns": table,
        "checks": checks,
        "unconditional_ok": all(c["holds"] for c in checks if not c["conditional"]),
        "conditional_ok": all(c["holds"] for c in checks if c["conditional"]),
    }


def _growth_checks(prefix: str, n: int, delta: int, h: dict, k: int, eps=None) -> list:
    """The conditional checks {prefix}_step_k{j}, h_2j <= _ratio * h_2j-2 for
    j = 2 .. k, then {prefix}_total, h_2k <= total_bound, when k >= 2."""
    checks = []
    for j in range(2, k + 1):
        _add_check(checks, f"{prefix}_step_k{j}", h[2 * j],
                   _ratio(delta, j, eps) * h[2 * j - 2], conditional=True)
    if k >= 2:
        _add_check(checks, f"{prefix}_total", h[2 * k], total_bound(n, delta, k, eps),
                   conditional=True)
    return checks


def _ratio(delta: int, j: int, eps=None) -> Fraction:
    """The chains' bound on h_2j / h_2j-2 at minimum degree delta: 2j^2/delta,
    that of no_rainbow_step_k{j}, or at colour deficiency eps j/(eps delta),
    that of variant_step_k{j}."""
    return Fraction(2 * j * j, delta) if eps is None else Fraction(j) / (eps * delta)


def total_bound(n: int, delta: int, k: int, eps=None) -> Fraction:
    """The chains' bound on h_2k for a host of n vertices and minimum degree
    delta, (_ratio)^k n: that of no_rainbow_total, or at colour deficiency
    eps that of variant_total."""
    return _ratio(delta, k, eps) ** k * n


def float_total_bounds(g: Graph, k_max: int, eps=None) -> list[float]:
    """total_bound of g for k = 2 .. k_max as floats, or a GraphError at the
    first k whose bound is past the float range.  A bound past n grows with
    k, so no later one would fit either."""
    _require_positive_degrees(g)
    bounds = []
    for k in range(2, k_max + 1):
        try:
            bounds.append(float(total_bound(g.n, g.min_degree(), k, eps)))
        except OverflowError:
            raise GraphError(f"the total bound at k = {k} is past the float range; "
                             f"k up to {k - 1} fits") from None
    return bounds


def colour_deficiency(eps) -> Fraction:
    """eps as a Fraction, refused unless 0 < eps < 1/2."""
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise GraphError("colour deficiency must lie strictly between 0 and 1/2")
    return eps


def check_variant_chain(g: Graph, colouring: EdgeColouring, k: int, eps) -> dict:
    """The almost-rainbow variant of the chain at colour-deficiency eps.

    A violated bound certifies a cycle carrying more than (1-eps) distinct
    colours per edge; the counting cross-check compares the coincidence
    total with 2*eps*k times the plain weight.
    """
    eps = colour_deficiency(eps)
    delta, h, table = _chain_inputs(g, colouring, k, "variant")
    checks = _growth_checks("variant", g.n, delta, h, k, eps)
    _add_check(checks, "coincidence_counting", 2 * eps * k * h[2 * k],
               sum(table.values(), Fraction(0)), conditional=True)
    return {
        "k": k,
        "n": g.n,
        "eps": eps,
        "min_degree": delta,
        "weights": h,
        "patterns": table,
        "checks": checks,
        "conditional_ok": all(c["holds"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Cycle search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleSearchResult:
    cycle: tuple[int, ...] | None
    exhaustive: bool

    @property
    def found(self) -> bool:
        return self.cycle is not None


# Path vertices one cycle search may push before it stops without an answer.
_NODE_BUDGET = 5 * 10 ** 6


def find_rainbow_cycle(g: Graph, colouring: EdgeColouring) -> CycleSearchResult:
    """Search for a simple cycle whose edge colours are pairwise distinct.

    Exhaustive (a certified "none") when the search finished inside the
    node budget; otherwise the miss only means not-found-within-budget.
    """
    return _cycle_search(g, colouring, None)


def find_almost_rainbow(g: Graph, colouring: EdgeColouring, eps) -> CycleSearchResult:
    """Search for a simple cycle of some length L with more than (1-eps)L
    distinct colours; exhaustive as for find_rainbow_cycle."""
    eps = colour_deficiency(eps)
    return _cycle_search(g, colouring, eps)


def _cycle_search(g: Graph, colouring: EdgeColouring, eps) -> CycleSearchResult:
    """Depth-first search for a simple cycle of length L with r < eps L
    repeats, r being its edges minus its distinct colours; eps None asks
    for a rainbow cycle, r = 0.  Each cycle is met from its smallest
    vertex.  The repeats of a path never fall as it grows, so a path with
    r >= eps n is pruned.  Each path vertex pushed is one node."""
    validate_colouring(g, colouring)
    n = g.n
    # r < eps L is r den < num L; r < L / (n + 1) means r = 0 for L <= n
    num, den = (1, n + 1) if eps is None else (eps.numerator, eps.denominator)
    counts: dict[int, int] = {}
    nodes = 0

    def search_from(s: int) -> tuple[int, ...] | None:
        """Paths from s on an explicit stack, one frame per path vertex:
        its sorted neighbours still to try, the path's repeats and the
        colour of the edge into it."""
        nonlocal nodes
        path = [s]
        used = {s}
        stack = [(iter(sorted(g.adj[s])), 0, None)]
        nodes += 1
        while stack and nodes <= _NODE_BUDGET:
            todo, r, _ = stack[-1]
            v = path[-1]
            for w in todo:
                closes = w == s and len(path) >= 3
                if not closes and (w <= s or w in used or len(path) >= n):
                    continue
                c = colouring.of(v, w)
                repeats = r + (c in counts)
                if closes:
                    if repeats * den < num * len(path):
                        return tuple(path)
                elif repeats * den < num * n:
                    path.append(w)
                    used.add(w)
                    counts[c] = counts.get(c, 0) + 1
                    stack.append((iter(sorted(g.adj[w])), repeats, c))
                    nodes += 1
                    break
            else:
                _, _, c = stack.pop()
                if stack:
                    used.remove(path.pop())
                    counts[c] -= 1
                    if not counts[c]:
                        del counts[c]
        return None

    for s in range(g.n):
        hit = search_from(s)
        if hit:
            repeats = len(hit) - distinct_colour_count(g, colouring, hit)
            assert is_simple_cycle(g, hit) and repeats * den < num * len(hit)
            return CycleSearchResult(hit, exhaustive=True)
        if nodes > _NODE_BUDGET:
            break
    return CycleSearchResult(None, exhaustive=nodes <= _NODE_BUDGET)


# ---------------------------------------------------------------------------
# Cycle utilities
# ---------------------------------------------------------------------------

def distinct_colour_count(g: Graph, colouring: EdgeColouring, seq) -> int:
    """The number of colours on the steps of the closed walk `seq`."""
    seq = tuple(seq)
    return len({colouring.of(seq[t], seq[(t + 1) % len(seq)]) for t in range(len(seq))})


def is_simple_cycle(g: Graph, seq) -> bool:
    seq = tuple(seq)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    return all(seq[(t + 1) % len(seq)] in g.adj[seq[t]] for t in range(len(seq)))


def is_rainbow_cycle(g: Graph, colouring: EdgeColouring, seq) -> bool:
    seq = tuple(seq)
    return is_simple_cycle(g, seq) and distinct_colour_count(g, colouring, seq) == len(seq)
