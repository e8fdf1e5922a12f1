"""Automorphisms and involutions of small pattern graphs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import CapabilityError, Graph, _mask

_VERTEX_CAP = 32
# Twin vertices multiply involutions like those of a symmetric group (the
# star K_{1,k} has 9495 at k = 10 and 568503 at k = 13, each of them able to
# carry a triple), and the triple and certificate searches grow with them.
# The cap counts only the involutions that pass the carrying test of
# `_involutions` (setgraph(1,10): 46 of 18991); 4096 leaves room above every
# pattern the documentation and benchmark use (at most 116, on Q5).
_INVOLUTION_CAP = 4096


@dataclass(frozen=True)
class Automorphism:
    """Adjacency-preserving vertex permutation, stored as its image array."""

    perm: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.perm[v]

    def apply_set(self, vertices) -> frozenset[int]:
        return frozenset(self.perm[v] for v in vertices)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: v -> self(other(v))."""
        return Automorphism(tuple(self.perm[other.perm[v]] for v in range(len(self.perm))))

    @property
    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.perm))

    @property
    def is_involution(self) -> bool:
        return all(self.perm[w] == v for v, w in enumerate(self.perm))

    @cached_property
    def fixed(self) -> frozenset[int]:
        """The vertices the map fixes, worked out once per map object."""
        return frozenset(v for v, w in enumerate(self.perm) if v == w)


def identity(n: int) -> Automorphism:
    return Automorphism(tuple(range(n)))


def is_automorphism(h: Graph, perm) -> bool:
    perm = tuple(perm)
    if sorted(perm) != list(range(h.n)):
        return False
    return all(perm[v] in h.adj[perm[u]] for u in range(h.n) for v in h.adj[u] if u < v)


def _signatures(h: Graph) -> list[tuple]:
    """Degree plus sorted neighbour-degree multiset; invariant under Aut(H)."""
    deg = h.degrees()
    return [(deg[v], tuple(sorted([deg[w] for w in nbrs]))) for v, nbrs in enumerate(h.adj)]


def _candidates(h: Graph, target: Graph | None = None) -> list[list[int]]:
    """Possible images of each vertex of H in the target (H itself when
    None): the target's vertices with its signature."""
    if h.n > _VERTEX_CAP:
        raise CapabilityError(f"automorphism enumeration capped at {_VERTEX_CAP} vertices")
    sig = _signatures(h)
    image_sig = sig if target is None else _signatures(target)
    return [[w for w, s in enumerate(image_sig) if s == sig[v]] for v in range(h.n)]


def _placement_order(h: Graph, candidates: list[list[int]]) -> list[int]:
    """Edge-grown order: next comes the unplaced vertex with the most placed
    neighbours, ties broken by fewer candidates, so each placement is
    constrained by adjacency as early as possible (McKay & Piperno,
    "Practical graph isomorphism II", 2014)."""
    nbr_mask = h.nbr_mask
    ties = [(len(candidates[u]), -h.degree(u), u) for u in range(h.n)]
    order: list[int] = []
    placed = 0
    left = set(range(h.n))
    while left:
        v = min(left, key=lambda u: (-(nbr_mask[u] & placed).bit_count(), ties[u]))
        order.append(v)
        left.discard(v)
        placed |= 1 << v
    return order


def _backtrack(h: Graph, candidates: list[list[int]], first_only: bool,
               target: Graph | None = None) -> list[tuple[int, ...]]:
    """Image arrays of the isomorphisms from H onto `target` (H itself when
    None, so automorphisms) that send every v into candidates[v]; only the
    first one found when `first_only` is set.  The target must have as many
    vertices as H.

    Vertices are placed in the edge-grown order.  An image w is consistent
    for v when w is unused and its neighbours among the used images are
    exactly the images of v's placed neighbours, so a complete placement
    maps edges onto edges.  A consistent w is therefore adjacent to the
    image of v's first placed neighbour u, and only the neighbours of
    image[u] that are candidates of v are tried, in ascending order, as
    the candidates themselves are: the same placements are met in the same
    order (McKay & Piperno, "Practical graph isomorphism II", 2014).
    """
    image_graph = target or h
    image_mask = image_graph.nbr_mask
    image_nbrs = [sorted(nbrs) for nbrs in image_graph.adj]
    allowed = [_mask(c) for c in candidates]
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
        tries = image_nbrs[image[placed_nbrs[i][0]]] if placed_nbrs[i] else candidates[v]
        for w in tries:
            if allowed[v] >> w & 1 and not used >> w & 1 and image_mask[w] & used == want:
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        return False

    extend(0, 0)
    return found


def enumerate_automorphisms(h: Graph) -> list[Automorphism]:
    """The full automorphism group by backtracking, sorted lexicographically
    by image array."""
    perms = _backtrack(h, _candidates(h), first_only=False)
    return [Automorphism(p) for p in sorted(perms)]


def find_automorphism(h: Graph, v: int, images) -> Automorphism | None:
    """Some automorphism sending v into `images`, or None; the search stops
    at the first one."""
    candidates = _candidates(h)
    candidates[v] = [w for w in candidates[v] if w in images]
    found = _backtrack(h, candidates, first_only=True)
    return Automorphism(found[0]) if found else None


def find_isomorphism(h: Graph, g: Graph) -> tuple[int, ...] | None:
    """The image array of some isomorphism from H onto G, or None; the
    search stops at the first one."""
    if h.n != g.n or h.edge_count() != g.edge_count():
        return None
    found = _backtrack(h, _candidates(h, g), first_only=True, target=g)
    return found[0] if found else None


def _involutions(h: Graph) -> list[Automorphism]:
    """The non-identity involutions of H that pass a test every involution
    carrying a reflection triple passes, sorted by image array, found
    without building the group.  More than _INVOLUTION_CAP of them raise
    CapabilityError as soon as the search finds one too many.

    Backtracking as for the group, but placing v -> w also places w -> v,
    and a vertex placed that way is skipped when its turn comes.  Placed
    vertices and their images are then the same set P, and the image map
    is an involution of P.  A placement is consistent when v's neighbours
    in P map onto w's neighbours in P; that w's map onto v's follows by
    applying the involution, so a consistent w is adjacent to the image of
    every placed neighbour of v.  Only neighbours of the image of v's least
    placed neighbour are tried, in ascending order: as in `_backtrack`, the
    placements and their order are those of trying every candidate.

    The test: if phi carries a triple, no moved vertex x is adjacent to
    phi(x) or to phi(y) for a moved neighbour y, since x and y lie in one
    component C of H - F and phi(x), phi(y) in phi(C), another one.  As
    x ~ phi(y) exactly when y ~ phi(x), placing a moved pair {v, w} checks
    that v and w are not adjacent and have no moved common neighbour; every
    offending pair is met that way once both of its pairs are placed.
    """
    candidates = _candidates(h)
    nbr_mask = h.nbr_mask
    nbrs = [sorted(adj) for adj in h.adj]
    allowed = [_mask(c) for c in candidates]
    order = _placement_order(h, candidates)
    image = [-1] * h.n
    found: list[tuple[int, ...]] = []

    def extend(i: int, placed: int, moved: int) -> None:
        while i < h.n and placed >> order[i] & 1:
            i += 1
        if i == h.n:
            found.append(tuple(image))
            if len(found) > _INVOLUTION_CAP + 1:  # the identity is found too
                raise CapabilityError(f"involution enumeration capped at {_INVOLUTION_CAP} "
                                      "involutions")
            return
        v = order[i]
        want, anchor = 0, -1
        for u in nbrs[v]:
            if placed >> u & 1:
                want |= 1 << image[u]
                if anchor < 0:
                    anchor = u
        for w in candidates[v] if anchor < 0 else nbrs[image[anchor]]:
            if not allowed[v] >> w & 1 or placed >> w & 1 or nbr_mask[w] & placed != want:
                continue
            if w != v and (nbr_mask[v] >> w & 1 or nbr_mask[v] & nbr_mask[w] & moved):
                continue
            image[v], image[w] = w, v
            pair = 1 << v | 1 << w
            extend(i + 1, placed | pair, moved if w == v else moved | pair)

    extend(0, 0, 0)
    ident = tuple(range(h.n))
    return [Automorphism(p) for p in sorted(found) if p != ident]
