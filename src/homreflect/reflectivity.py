"""Reflection triples, the set-reflection map, and reflectivity certificates.

A reflection triple on a connected bipartite pattern H is (A, B, phi) where
phi is a non-identity involutive automorphism, A, B and the fixed set F of
phi partition V(H), no edge joins A and B, and phi maps A onto B.  The
reflection map keeps the members of a constraint set R lying in A or F and
replaces its B-part by the mirror image of its A-part.

H is certified reflective from a starting pair R0 when a chain of such
reflections grows R0 to a full side of the bipartition; the certificate
records every step and yields the amplification exponent 2^m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .automorphisms import (_INVOLUTION_CAP, Automorphism, _involutions, find_automorphism,
                            identity, is_automorphism)
from .graphs import CapabilityError, Graph, GraphError, gen_hypercube, gen_set_graph

DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ReflectionTriple:
    side_a: frozenset[int]
    side_b: frozenset[int]
    swap: Automorphism

    @property
    def fixed(self) -> frozenset[int]:
        """The swap map's fixed set, which the map keeps."""
        return self.swap.fixed

    def flipped(self) -> "ReflectionTriple":
        """The triple with A and B exchanged: it shares this triple's swap
        map, and so its fixed set."""
        return ReflectionTriple(self.side_b, self.side_a, self.swap)

    def sort_key(self):
        return (self.swap.perm, tuple(sorted(self.side_a)))


def pattern_sides(h: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """The two bipartition sides of H; GraphError unless H is a connected
    bipartite pattern, which every certificate search needs."""
    parts = h.bipartition()
    if parts is None or not h.is_connected():
        raise GraphError("the pattern must be a connected bipartite graph")
    return parts


def verify_reflection_triple(h: Graph, a, b, phi: Automorphism) -> tuple[bool, str | None]:
    """Check the four triple conditions; on failure name the first violated one."""
    why = _triple_failure(h, ReflectionTriple(frozenset(a), frozenset(b), phi))
    return why is None, why


# One swap map serves several triples, and one triple many certificate
# steps (the mapped certificates of `certify_pairs` repeat them), so both
# checks are memoised by content: a triple enumerated, then met in a step,
# is checked once.  A command meets at most _INVOLUTION_CAP swap maps, as
# conjugates of involutions are involutions.
@lru_cache(maxsize=_INVOLUTION_CAP)
def _swap_fixed_set(h: Graph, perm: tuple[int, ...]) -> frozenset[int] | None:
    """The fixed set of perm when it is a non-identity involution of H, and
    None for any other automorphism; GraphError when it is not one."""
    if not is_automorphism(h, perm):
        raise GraphError("phi is not an automorphism of the pattern")
    phi = Automorphism(perm)
    if not phi.is_involution or phi.is_identity:
        return None
    return phi.fixed


@lru_cache(maxsize=_INVOLUTION_CAP)
def _triple_failure(h: Graph, t: ReflectionTriple) -> str | None:
    """The first triple condition that t violates, or None."""
    fixed = _swap_fixed_set(h, t.swap.perm)
    if fixed is None:
        return "swap map is not a non-identity involution"
    a, b = t.side_a, t.side_b
    if a | b | fixed != frozenset(range(h.n)) or (a & b) or (a & fixed) or (b & fixed):
        return "A, B and the fixed set do not partition the vertices"
    for u in a:
        if h.adj[u] & b:
            return "an edge joins A and B"
    if t.swap.apply_set(a) != b:
        return "swap map does not carry A onto B"
    return None


def enumerate_reflection_triples(h: Graph) -> list[ReflectionTriple]:
    """All reflection triples of H, both orientations of each component pairing.

    For each involution that passes the involution search's carrying test,
    as every involution carrying a triple does: remove its fixed set, take
    connected components, and demand the involution move every component;
    each way of assigning the component pairs to the two sides yields one
    triple.  Each triple is checked once (`_triple_failure`), and the check
    is remembered for the certificate steps that use it.
    """
    triples: list[ReflectionTriple] = []
    for phi in _involutions(h):
        comps = h.components(removed=phi.fixed)
        pairs = []
        ok = True
        seen = set()
        for comp in comps:
            if comp in seen:
                continue
            img = phi.apply_set(comp)
            if img == comp:
                ok = False
                break
            pairs.append((comp, img))
            seen.add(comp)
            seen.add(img)
        if not ok or not pairs:
            continue
        for assign in range(1 << len(pairs)):
            a: set[int] = set()
            b: set[int] = set()
            for idx, (left, right) in enumerate(pairs):
                if (assign >> idx) & 1:
                    a |= right
                    b |= left
                else:
                    a |= left
                    b |= right
            triple = ReflectionTriple(frozenset(a), frozenset(b), phi)
            why = _triple_failure(h, triple)
            if why is not None:
                raise AssertionError(f"enumerated triple fails validation: {why}")
            triples.append(triple)
    triples.sort(key=ReflectionTriple.sort_key)
    return triples


def is_admissible(h: Graph, triple: ReflectionTriple, r) -> bool:
    """R sits inside one side of the bipartition and meets both A-with-F
    and B-with-F."""
    parts = h.bipartition()
    if parts is None:
        raise GraphError("admissibility needs a bipartite pattern")
    r = frozenset(r)
    if not r:
        return False
    if not (r <= parts[0] or r <= parts[1]):
        return False
    fixed = triple.fixed
    return bool(r & (triple.side_a | fixed)) and bool(r & (triple.side_b | fixed))


def reflect_set(h: Graph, triple: ReflectionTriple, r) -> frozenset[int]:
    """Keep R's members in A or F and mirror its A-part across the swap.

    On a connected pattern the swap map fixes a vertex, so it keeps each
    bipartition side and the result lies on R's side.  On a disconnected
    one it may exchange the sides, and the result then meets both.
    """
    r = frozenset(r)
    if not is_admissible(h, triple, r):
        raise GraphError("constraint set is not admissible for the triple")
    out = _reflect(triple, r)
    assert out, "reflection of an admissible set is never empty"
    return out


def _reflect(triple: ReflectionTriple, r: frozenset[int]) -> frozenset[int]:
    """The reflection map on a set already known to be admissible."""
    return r & (triple.side_a | triple.fixed) | triple.swap.apply_set(r & triple.side_a)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateStep:
    triple: ReflectionTriple
    r_next: frozenset[int]


@dataclass(frozen=True)
class ReflectionCertificate:
    start: frozenset[int]
    side: frozenset[int]
    steps: tuple[CertificateStep, ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def amplification_exponent(self) -> int:
        """s = 2^m for the final homomorphism inequality."""
        return 1 << len(self.steps)


def verify_certificate(h: Graph, cert: ReflectionCertificate) -> tuple[bool, list[str]]:
    """Validate every certificate invariant, independent of any search.

    Returns (ok, report).  The report lists one line per step plus which
    steps used a proper subset of the reflected set (the relaxed rule).
    """
    report: list[str] = []
    parts = h.bipartition()
    if parts is None:
        return False, ["pattern is not bipartite"]
    if not cert.start:
        return False, ["empty starting set"]
    if cert.side not in parts:
        return False, ["target is not a bipartition side"]
    if not cert.start <= cert.side:
        return False, ["start does not lie in the target side"]
    current = cert.start
    for j, step in enumerate(cert.steps):
        t = step.triple
        try:
            why = _triple_failure(h, t)
        except GraphError as exc:
            raise GraphError(f"step {j}: {exc}") from None
        if why is not None:
            return False, report + [f"step {j}: malformed triple: {why}"]
        if not is_admissible(h, t, current):
            return False, report + [f"step {j}: set not admissible"]
        reflected = _reflect(t, current)
        if not step.r_next <= reflected:
            return False, report + [f"step {j}: next set not contained in the reflection"]
        if not step.r_next:
            return False, report + [f"step {j}: empty next set"]
        tag = "subset" if step.r_next < reflected else "exact"
        report.append(f"step {j}: |R|={len(current)} -> {len(step.r_next)} ({tag})")
        current = step.r_next
    if current != cert.side:
        return False, report + ["final set is not the full side"]
    report.append(f"reached full side after {cert.num_steps} steps; exponent {cert.amplification_exponent}")
    return True, report


def _self_checked(h: Graph, cert: ReflectionCertificate, start, failure: str
                  ) -> ReflectionCertificate:
    """A certificate this module made, once it is verified and starts at
    `start`; otherwise the maker has a bug, and AssertionError names it."""
    ok, log = verify_certificate(h, cert)
    if not ok or cert.start != frozenset(start):
        raise AssertionError(f"{failure}: {log}")
    return cert


def _conjugate_triple(t: ReflectionTriple, sigma: Automorphism) -> ReflectionTriple:
    """(sigma(A), sigma(B), sigma phi sigma^-1), which sends sigma(v) to
    sigma(phi(v))."""
    swap = [0] * len(sigma.perm)
    for v, w in enumerate(t.swap.perm):
        swap[sigma.perm[v]] = sigma.perm[w]
    return ReflectionTriple(sigma.apply_set(t.side_a), sigma.apply_set(t.side_b),
                            Automorphism(tuple(swap)))


def conjugate_certificate(cert: ReflectionCertificate,
                          sigma: Automorphism) -> ReflectionCertificate:
    """Push a certificate through an automorphism of its graph, or through
    an isomorphism onto another graph."""
    steps = tuple(CertificateStep(_conjugate_triple(st.triple, sigma),
                                  sigma.apply_set(st.r_next))
                  for st in cert.steps)
    return ReflectionCertificate(sigma.apply_set(cert.start),
                                 sigma.apply_set(cert.side), steps)


def certificate_to_json(cert: ReflectionCertificate) -> str:
    """Compact JSON: start and side on the first line, then one step per line."""
    head = json.dumps({"start": sorted(cert.start), "side": sorted(cert.side)})
    steps = [json.dumps({"A": sorted(st.triple.side_a), "B": sorted(st.triple.side_b),
                         "phi": list(st.triple.swap.perm), "R_next": sorted(st.r_next)})
             for st in cert.steps]
    body = "\n  " + ",\n  ".join(steps) + "\n" if steps else ""
    return f'{head[:-1]}, "steps": [{body}]}}'


def certificate_from_json(h: Graph, text: str) -> ReflectionCertificate:
    """Read a certificate for H; malformed text, a value that is not a list
    of vertices of H or a swap map of the wrong length raises GraphError."""
    def vertices(values) -> tuple[int, ...]:
        if not isinstance(values, list) or not all(
                type(v) is int and 0 <= v < h.n for v in values):
            raise ValueError(f"{values!r} is not a list of vertices of the graph")
        return tuple(values)

    try:
        data = json.loads(text)
        steps = []
        for st in data["steps"]:
            phi = vertices(st["phi"])
            if len(phi) != h.n:
                raise ValueError(f"swap map has {len(phi)} images for {h.n} vertices")
            steps.append(CertificateStep(
                ReflectionTriple(frozenset(vertices(st["A"])), frozenset(vertices(st["B"])),
                                 Automorphism(phi)),
                frozenset(vertices(st["R_next"]))))
        return ReflectionCertificate(frozenset(vertices(data["start"])),
                                     frozenset(vertices(data["side"])), tuple(steps))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed certificate: {exc}") from None


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------

# 64-bit words in any one array of a search's expansion chunk, unless one
# state's row of triples is longer, and in each of its digit tables; not
# the float64 cells that exact._CELL_CAP counts.  Chunks of 2^16 words
# raised the peak RSS of `certify --graph q5 --r0 16,31` from 33 to 37 MB,
# above the 35 MB of the former per-state loop, and were no faster.
_CHUNK_WORDS = 1 << 14


class _SideMoves:
    """The triples as 64-bit masks over one bipartition side.

    A state is a subset of the side: one uint64 with bit j for the vertex
    order[j].  Per triple, `keep` is A with F, `need` is B with F, `b` is B
    (each restricted to the side), and `swap_of` numbers its involution.  An
    involution of a reflection triple maps each side onto itself, so its
    image of a state is looked up a digit at a time: tables[k][i << width | d]
    is the image under involution i of the side bits k*width .. k*width +
    width - 1 when they read d.  Digits are as wide as a table of at most
    _CHUNK_WORDS words allows, and one bit wide at least: like the
    per-triple masks, the tables then hold O(n) words per involution.
    """

    def __init__(self, triples: list[ReflectionTriple], side: frozenset[int], n: int):
        self.order = sorted(side)
        size = len(self.order)
        self.bit = {v: 1 << j for j, v in enumerate(self.order)}
        swaps: dict[tuple[int, ...], int] = {}
        self.swap_of = np.fromiter((swaps.setdefault(t.swap.perm, len(swaps)) for t in triples),
                                   dtype=np.intp, count=len(triples))
        perms = np.array(list(swaps), dtype=np.intp).reshape(len(swaps), n)
        position = np.zeros(n, dtype=np.uint64)
        position[self.order] = np.arange(size, dtype=np.uint64)
        one_bit = np.uint64(1) << position[perms[:, self.order]]

        self.width = next((w for w in (8, 4, 2) if len(swaps) << w <= _CHUNK_WORDS), 1)
        self.tables = []
        for low in range(0, size, self.width):
            table = np.zeros((len(swaps), 1 << self.width), dtype=np.uint64)
            # the values with this bit set: the value without it, plus its image
            for bit in range(min(self.width, size - low)):
                table[:, 1 << bit:2 << bit] = table[:, :1 << bit] | one_bit[:, low + bit, None]
            self.tables.append(table.ravel())

        a = np.array([self.mask(t.side_a) for t in triples], dtype=np.uint64)
        self.b = self.image(a, self.swap_of)
        fixed = np.uint64(self.mask(self.order)) ^ a ^ self.b
        self.keep, self.need = a | fixed, self.b | fixed

    def mask(self, vertices) -> int:
        """The state of the members of `vertices` that lie on the side."""
        return sum(self.bit.get(v, 0) for v in vertices)

    def vertices(self, state) -> frozenset[int]:
        """The vertices of `state`."""
        state = int(state)
        return frozenset(v for j, v in enumerate(self.order) if state >> j & 1)

    def image(self, states: np.ndarray, swaps: np.ndarray) -> np.ndarray:
        """phi(s) for each of `states` under the involution numbered in
        `swaps`, which broadcasts against `states`."""
        out = 0
        for k, table in enumerate(self.tables):
            digit = states >> np.uint64(k * self.width) & np.uint64((1 << self.width) - 1)
            out = out | table[swaps << self.width | digit.astype(np.intp)]
        return out

    def expand(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The successors of every state under every triple, as a (state,
        triple) array, and which of them count: admissible for the triple
        and different from the state."""
        here = states[:, None]
        kept = here & self.keep
        ok = (kept != 0) & (here & self.need != 0)
        succ = kept | (self.image(here, self.swap_of) & self.b)
        ok &= succ != here
        return succ, ok


@dataclass
class ReflectivitySearch:
    """Outcome of one breadth-first certificate search."""

    certificate: ReflectionCertificate | None
    states_visited: int
    budget_exhausted: bool

    @property
    def known_reflective(self) -> bool:
        return self.certificate is not None


def certify_reflective(h: Graph, r0, budget: int = DEFAULT_BUDGET,
                       triples: list[ReflectionTriple] | None = None) -> ReflectivitySearch:
    """Plain breadth-first search for a reflection chain from r0 to a full
    side; the chain it returns is a shortest one.

    States are constraint sets and `budget` counts the states taken off the
    queue.  No certificate within budget yields an unknown outcome, never a
    negative one.  A state is held in one 64-bit word, so a start whose side
    has more than 64 vertices raises CapabilityError.

    The search expands a layer a chunk of states at a time: every (state,
    triple) successor of the chunk is computed at once (`_SideMoves`), and
    the first occurrence, in row-major (state, triple) order, of each state
    not seen before joins the next layer.  That is the order of a loop over the
    states and, for each, over the triples, so the states visited, the
    parents and the chain are the ones such a loop finds.
    """
    parts = pattern_sides(h)
    r0 = frozenset(r0)
    if not r0:
        raise GraphError("starting set must not be empty")
    if budget < 1:
        raise GraphError(f"budget must be at least 1, got {budget}")
    side = parts[0] if r0 <= parts[0] else parts[1] if r0 <= parts[1] else None
    if side is None:
        raise GraphError("starting set must lie inside one bipartition side")
    if len(side) > 64:
        raise CapabilityError(f"certificate search holds a state in one 64-bit word; the start's "
                              f"side has {len(side)} vertices, over the limit of 64")
    if triples is None:
        triples = enumerate_reflection_triples(h)

    moves = _SideMoves(triples, side, h.n)
    chain, visited = _layered_search(moves, moves.mask(r0), budget)
    if chain is None:
        return ReflectivitySearch(None, visited, visited > budget)
    steps = tuple(CertificateStep(triples[idx], moves.vertices(state)) for idx, state in chain)
    cert = _self_checked(h, ReflectionCertificate(r0, side, steps), r0,
                         "search produced an invalid certificate")
    return ReflectivitySearch(cert, visited, False)


def _layered_search(moves: _SideMoves, start: int, budget: int):
    """Breadth-first search from the state `start` to the full side.

    Returns the chain as (triple index, state) pairs, or None, and the
    number of states taken off the queue: budget + 1 when the budget ran
    out.  Chunks take at most `budget` states, and as many as keep a chunk's
    rows of triples within _CHUNK_WORDS words; a chunk of one state takes its
    whole row, however long.  The cells are met in row-major order."""
    target = np.uint64(moves.mask(moves.order))
    if start == target:
        return [], 0
    count = len(moves.swap_of)
    rows = max(1, _CHUNK_WORDS // max(1, count))
    # Layer l: its states, each one's parent as an index into layer l-1, and
    # the triple that reached it.
    layers = [(np.array([start], dtype=np.uint64), None, None)]
    seen = [layers[0][0]]
    visited = 0
    while len(layers[-1][0]):
        frontier = layers[-1][0]
        states_out = [np.empty(0, np.uint64)]
        parents_out, via_out = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        hi = 0
        while hi < len(frontier):
            if visited == budget:
                return None, budget + 1
            lo, hi = hi, min(hi + rows, len(frontier), hi + budget - visited)
            succ, ok = moves.expand(frontier[lo:hi])
            succ = succ.ravel()
            cells = np.flatnonzero(ok)
            hit = cells[succ[cells] == target]
            if hit.size:
                row, col = divmod(int(hit[0]), count)
                chain, at = [(col, target)], lo + row
                for states, parents, via in reversed(layers[1:]):
                    chain.append((via[at], states[at]))
                    at = parents[at]
                return chain[::-1], visited + row + 1
            if cells.size:
                fresh, first = _first_new(succ[cells], cells, seen)
                order = np.argsort(first)
                first = first[order]
                states_out.append(fresh[order])
                parents_out.append(lo + first // count)
                via_out.append(first % count)
            visited += hi - lo
        layers.append((np.concatenate(states_out), np.concatenate(parents_out),
                       np.concatenate(via_out)))
    return None, visited


def _first_new(keys: np.ndarray, cells: np.ndarray, seen: list[np.ndarray]):
    """The distinct `keys` that are in no run of `seen`, in sorted order,
    each with the least of its `cells`; they are merged into `seen`.

    `seen` is a list of sorted runs, each at least twice as long as the
    next, so a key is looked up in O(log) runs and each key is merged
    O(log) times.  Sorting groups the copies of a key; np.unique would
    import numpy.ma, which costs a fresh process 15-40 ms."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys = keys[starts]
    first = np.minimum.reduceat(cells[order], starts)
    new = np.ones(len(keys), dtype=bool)
    for run in seen:
        new &= run[np.minimum(np.searchsorted(run, keys), len(run) - 1)] != keys
    keys, first = keys[new], first[new]
    run = keys
    while seen and len(seen[-1]) <= 2 * len(run):
        run = np.concatenate((seen.pop(), run))
        run.sort(kind="stable")  # a merge of two sorted runs
    if len(run):
        seen.append(run)
    return keys, first


def certify_pairs(h: Graph, sides, budget: int = DEFAULT_BUDGET,
                  triples: list[ReflectionTriple] | None = None,
                  ) -> list[tuple[tuple[int, int], ReflectivitySearch]]:
    """The certificate search from every pair of each side in `sides`, run
    once per orbit of pairs.

    Automorphisms commute with reflection moves, so a certificate from a
    pair maps to one from its image (`conjugate_certificate`).  The orbits
    are those of the group that the triples' distinct swap maps generate:
    a subgroup of Aut(H), and the orbits of any subgroup are sound.  Each
    pair records an automorphism taking its orbit's first pair to it.  Only
    that first pair is searched; the others get its outcome, with its
    `states_visited`, and every mapped certificate is verified.
    """
    if triples is None:
        triples = enumerate_reflection_triples(h)
    generators = list(dict.fromkeys(t.swap for t in triples))
    orbit: dict[tuple[int, int], tuple[tuple[int, int], Automorphism]] = {}
    searched: dict[tuple[int, int], ReflectivitySearch] = {}
    results = []
    for side in sides:
        for pair in combinations(sorted(side), 2):
            if pair not in orbit:
                orbit[pair] = (pair, identity(h.n))
                queue = [pair]
                for u, v in queue:
                    sigma = orbit[u, v][1]
                    for phi in generators:
                        a, b = phi.perm[u], phi.perm[v]
                        image = (a, b) if a < b else (b, a)
                        if image not in orbit:
                            orbit[image] = (pair, phi.compose(sigma))
                            queue.append(image)
                searched[pair] = certify_reflective(h, pair, budget=budget, triples=triples)
            first, sigma = orbit[pair]
            res = searched[first]
            if res.certificate is not None and pair != first:
                cert = _self_checked(h, conjugate_certificate(res.certificate, sigma), pair,
                                     f"mapped certificate for {pair} is invalid")
                res = ReflectivitySearch(cert, res.states_visited, False)
            results.append((pair, res))
    return results


def reflectivity_report(h: Graph, budget: int = DEFAULT_BUDGET) -> dict:
    """Run the certificate search from every size-2 start on both sides,
    once per orbit of start pairs under the triples' swap maps
    (`certify_pairs`); a pair's `states` is its orbit's search count.

    When some automorphism exchanges the two sides, the second side is
    skipped and marked as covered by symmetry.  Verdict is "yes" only if
    every pair certifies; otherwise "unknown".
    """
    parts = pattern_sides(h)
    # On a connected graph an automorphism that sends one vertex of a side
    # into the other side exchanges the two sides.
    swap_sides = len(parts[0]) == len(parts[1]) and \
        find_automorphism(h, min(parts[0]), parts[1]) is not None
    sides = [parts[0]] if swap_sides else [parts[0], parts[1]]
    results = certify_pairs(h, sides, budget)
    return {
        "verdict": "yes" if all(res.known_reflective for _, res in results) else "unknown",
        "sides_checked": len(sides),
        "side_swap_symmetry": swap_sides,
        "pairs": [{
            "start": list(r0),
            "certified": res.known_reflective,
            "steps": res.certificate.num_steps if res.certificate else None,
            "states": res.states_visited,
            "certificate": res.certificate,
        } for r0, res in results],
        "budget_exhausted": any(res.budget_exhausted for _, res in results),
    }


# ---------------------------------------------------------------------------
# Explicit chains
# ---------------------------------------------------------------------------
#
# Both builders bring the starting pair to a canonical one by at most one
# normalisation step and an automorphism sigma, then run a fixed schedule of
# canonical triples conjugated by sigma (`_run_chain`).

def _triple(phi: Automorphism, a) -> ReflectionTriple:
    """The triple (A, phi(A), phi)."""
    a = frozenset(a)
    return ReflectionTriple(a, phi.apply_set(a), phi)


def _complete(moves: dict[int, int], n: int) -> dict[int, int]:
    """Extend a partial injection of {1..n} to a permutation that sends the
    remaining points, in increasing order, to the remaining images."""
    full = dict(moves)
    full.update(zip([x for x in range(1, n + 1) if x not in moves],
                    [x for x in range(1, n + 1) if x not in moves.values()]))
    return full


def _normalise(h: Graph, triple: ReflectionTriple, r0: frozenset[int],
               steps: list[CertificateStep]) -> frozenset[int]:
    """Append the step from r0 to {x, phi(x)}, x the member of r0 in A, and
    return that pair; the other member lies in F or B, so the reflection
    keeps x and adds its mirror."""
    (x,) = r0 & triple.side_a
    pair = frozenset({x, triple.swap(x)})
    assert pair <= reflect_set(h, triple, r0)
    steps.append(CertificateStep(triple, pair))
    return pair


def _run_chain(h: Graph, r0: frozenset[int], side: frozenset[int],
               steps: list[CertificateStep], sigma: Automorphism, start: frozenset[int],
               plan: list[tuple[ReflectionTriple, frozenset[int]]]) -> ReflectionCertificate:
    """Finish a chain whose current set is sigma(start): conjugate each
    canonical (triple, target) of `plan` by sigma, reflect, and assert that
    the result is sigma(target).  A step that leaves the set unchanged is
    left out: it would double the exponent 2^m for nothing.  The whole
    certificate is then verified."""
    current = steps[-1].r_next if steps else r0
    assert current == sigma.apply_set(start)
    for base, target in plan:
        triple = _conjugate_triple(base, sigma)
        reflected = reflect_set(h, triple, current)
        assert reflected == sigma.apply_set(target)
        if reflected != current:
            steps.append(CertificateStep(triple, reflected))
        current = reflected
    return _self_checked(h, ReflectionCertificate(r0, side, tuple(steps)), r0,
                         "explicit chain failed validation")


def _coord(v: int, i: int) -> int:
    """Coordinate i (1-based) of cube vertex v."""
    return (v >> (i - 1)) & 1


def _cube_map(d: int, moves: dict[int, int], shift: int = 0) -> Automorphism:
    """The cube automorphism v -> pi(v) xor shift, where pi carries
    coordinate i to coordinate moves[i] and is extended by `_complete`."""
    full = _complete(moves, d)
    perm = [shift]
    for v in range(1, 1 << d):
        low = v & -v  # pi is linear: pi(v) = pi(v - low) xor pi(low)
        perm.append(perm[v ^ low] ^ (1 << (full[low.bit_length()] - 1)))
    return Automorphism(tuple(perm))


def _coord_swap(d: int, i: int, j: int, flip: bool) -> ReflectionTriple:
    """Coordinates i and j exchanged, and also complemented when `flip`; A
    holds the vertices with (x_i, x_j) = (1, 0), or (0, 0) when `flip`."""
    shift = (1 << (i - 1)) | (1 << (j - 1)) if flip else 0
    return _triple(_cube_map(d, {i: j, j: i}, shift),
                   (v for v in range(1 << d) if _coord(v, i) != flip and not _coord(v, j)))


def _even_prefix_set(d: int, k: int) -> frozenset[int]:
    """Even-parity cube vertices supported on the first k coordinates."""
    return frozenset(v for v in range(1 << d)
                     if v < (1 << k) and bin(v).count("1") % 2 == 0)


def _even_prefix_trimmed(d: int, k: int) -> frozenset[int]:
    """Even-parity vertices supported on the first k+1 coordinates whose
    (k, k+1) coordinates are not both 1."""
    return frozenset(v for v in range(1 << d)
                     if v < (1 << (k + 1))
                     and bin(v).count("1") % 2 == 0
                     and not (_coord(v, k) and _coord(v, k + 1)))


def hypercube_growth_step(d: int, k: int) -> tuple[ReflectionTriple, ReflectionTriple]:
    """The two triples that grow the prefix set at coordinate k: a plain
    coordinate swap then a flip-swap, for 2 <= k <= d-1."""
    return _coord_swap(d, k, k + 1, False), _coord_swap(d, k, k + 1, True)


def hypercube_reflection_chain(d: int, r0) -> ReflectionCertificate:
    """Explicit certificate for the d-cube from any same-parity pair.

    One normalisation step first brings the pair to distance two (a
    coordinate swap fixing one endpoint when the pair is not antipodal, a
    flip-swap otherwise), then a relabelling reduces to the pair {0...0,
    110...0}, and alternating swap / flip-swap steps grow that pair one
    coordinate at a time to the full parity class.  Every claimed identity
    is recomputed through the reflection map and asserted.
    """
    h = gen_hypercube(d)
    r0 = frozenset(r0)
    if len(r0) != 2 or not all(0 <= v < h.n for v in r0):
        raise GraphError("starting set must be two vertices of the graph")
    u, v = sorted(r0)
    if bin(u).count("1") % 2 != bin(v).count("1") % 2:
        raise GraphError("starting vertices lie in different parity classes")

    steps: list[CertificateStep] = []
    pair = r0
    diff = u ^ v
    if bin(diff).count("1") != 2:
        # Antipodal: flip-swap the first two coordinates.  Otherwise swap a
        # coordinate where u and v differ with one where they agree.  Either
        # base is conjugated so that u plays the all-zero corner.
        if diff == (1 << d) - 1:
            base = _coord_swap(d, 1, 2, True)
        else:
            i = (diff & -diff).bit_length()
            j = next(c for c in range(1, d + 1) if not _coord(diff, c))
            base = _coord_swap(d, i, j, False)
        pair = _normalise(h, _conjugate_triple(base, _cube_map(d, {}, u)), r0, steps)

    # Relabel so the distance-two pair becomes {0, e1+e2}, then grow it.
    a, b = sorted(pair)
    w = a ^ b
    sigma = _cube_map(d, {1: (w & -w).bit_length(), 2: w.bit_length()}, a)
    plan = [(triple, target) for k in range(2, d)
            for triple, target in zip(hypercube_growth_step(d, k),
                                      (_even_prefix_trimmed(d, k), _even_prefix_set(d, k + 1)))]
    side = next(part for part in h.bipartition() if u in part)
    return _run_chain(h, r0, side, steps, sigma, _even_prefix_set(d, 2), plan)


def _ground_map(g: Graph, moves: dict[int, int]) -> Automorphism:
    """The automorphism of a set graph induced by the ground-set permutation
    x -> moves[x], extended by `_complete`."""
    full = _complete(moves, max(map(max, g.labels)))
    index = {lab: v for v, lab in enumerate(g.labels)}
    return Automorphism(tuple(index[frozenset(full[x] for x in lab)] for lab in g.labels))


def _element_swap(g: Graph, i: int, j: int) -> ReflectionTriple:
    """Triple from the ground-set transposition (i j): A holds the vertices
    containing i but not j, B the reverse."""
    return _triple(_ground_map(g, {i: j, j: i}),
                   (v for v, lab in enumerate(g.labels) if i in lab and j not in lab))


def _prefix_cover(g: Graph, ell: int, i: int, j: int) -> frozenset[int]:
    """The ell-subsets containing {1..i-1} and meeting {i..j}."""
    return frozenset(v for v, lab in enumerate(g.labels)
                     if len(lab) == ell and all(x in lab for x in range(1, i))
                     and any(i <= x <= j for x in lab))


def set_graph_reflection_chain(ell: int, k: int, r0) -> ReflectionCertificate:
    """Explicit certificate for the containment graph from a pair of
    ell-subsets.

    A pair differing in more than one element is first reflected through a
    transposition moving one private element onto a fresh one, giving a pair
    differing in a single element; a ground-set relabelling then reduces to
    the pair {1..ell} / {1..ell-1, ell+1}, which a fixed transposition
    schedule grows to all ell-subsets.  After the swap (i j) the set is
    asserted to be exactly the prefix cover of (i, j).
    """
    g = gen_set_graph(ell, k)
    r0 = frozenset(r0)
    if len(r0) != 2 or not all(0 <= v < g.n for v in r0):
        raise GraphError("starting set must be two vertices of the graph")
    if any(len(g.labels[v]) != ell for v in r0):
        raise GraphError("starting vertices must be small-side subsets")

    steps: list[CertificateStep] = []
    sa, sb = (g.labels[v] for v in sorted(r0))
    if len(sa ^ sb) > 2:
        fresh = min(set(range(1, k + 1)) - (sa | sb))
        pair = _normalise(g, _element_swap(g, min(sa - sb), fresh), r0, steps)
        sa, sb = (g.labels[v] for v in sorted(pair))

    # Ground-set relabelling onto the canonical adjacent pair.
    sigma = _ground_map(g, dict(zip(range(1, ell + 2),
                                    sorted(sa & sb) + [min(sa - sb), min(sb - sa)])))
    plan = [(_element_swap(g, i, j), _prefix_cover(g, ell, i, j))
            for i in range(ell, 0, -1) for j in range(i + 1, k + 1)]
    small_side = frozenset(v for v, lab in enumerate(g.labels) if len(lab) == ell)
    return _run_chain(g, r0, small_side, steps, sigma, _prefix_cover(g, ell, ell, ell + 1), plan)
