"""Automorphisms and involutions of small pattern graphs."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import CapabilityError, Graph, _mask

_VERTEX_CAP = 32


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

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for v, w in enumerate(self.perm):
            inv[w] = v
        return Automorphism(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.perm))

    @property
    def is_involution(self) -> bool:
        return all(self.perm[w] == v for v, w in enumerate(self.perm))

    def fixed_set(self) -> frozenset[int]:
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
    return [(deg[v], tuple(sorted(deg[w] for w in h.adj[v]))) for v in range(h.n)]


def enumerate_automorphisms(h: Graph) -> list[Automorphism]:
    """The full automorphism group by backtracking, sorted lexicographically
    by image array.

    Vertices are placed in an edge-grown order: next comes the unplaced
    vertex with the most placed neighbours, ties broken by fewer signature
    candidates, so each placement is constrained by adjacency as early as
    possible (McKay & Piperno, "Practical graph isomorphism II", 2014).  An
    image w is consistent for v when w is unused and its neighbours among
    the used images are exactly the images of v's placed neighbours.
    """
    if h.n > _VERTEX_CAP:
        raise CapabilityError(f"automorphism enumeration capped at {_VERTEX_CAP} vertices")
    if h.n == 0:
        return [identity(0)]
    sig = _signatures(h)
    candidates = [
        [w for w in range(h.n) if sig[w] == sig[v]]
        for v in range(h.n)
    ]
    nbr_mask = [_mask(h.adj[v]) for v in range(h.n)]
    order: list[int] = []
    placed = 0
    while len(order) < h.n:
        v = min((u for u in range(h.n) if not placed >> u & 1),
                key=lambda u: (-(nbr_mask[u] & placed).bit_count(), len(candidates[u]),
                               -h.degree(u), u))
        order.append(v)
        placed |= 1 << v
    placed_nbrs = [[u for u in order[:i] if u in h.adj[v]] for i, v in enumerate(order)]
    image = [-1] * h.n
    found: list[Automorphism] = []

    def extend(i: int, used: int) -> None:
        if i == h.n:
            found.append(Automorphism(tuple(image)))
            return
        v = order[i]
        want = 0
        for u in placed_nbrs[i]:
            want |= 1 << image[u]
        for w in candidates[v]:
            if not used >> w & 1 and nbr_mask[w] & used == want:
                image[v] = w
                extend(i + 1, used | 1 << w)

    extend(0, 0)
    found.sort(key=lambda a: a.perm)
    return found


def enumerate_involutions(h: Graph) -> list[Automorphism]:
    """All non-identity automorphisms equal to their own inverse."""
    return [a for a in enumerate_automorphisms(h)
            if a.is_involution and not a.is_identity]

