import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from bruteforce import cube_vertex, side_first_q4
from homreflect import (
    Automorphism,
    CapabilityError,
    enumerate_automorphisms,
    find_automorphism,
    gen_cycle,
    gen_cycle_blowup,
    gen_hypercube,
    gen_random,
    gen_set_graph,
    identity,
    make_graph,
)
from homreflect import enumerate_reflection_triples, reflectivity
from homreflect.automorphisms import _INVOLUTION_CAP as INVOLUTION_CAP
from homreflect.automorphisms import _backtrack, _candidates, _involutions, find_isomorphism

# Frozen from the permutation-filter oracle.
Q3_AUTOMORPHISM_COUNT = 48
Q3_INVOLUTION_COUNT = 19
Q3_CARRYING_COUNT = 7


def decorated_c12():
    """C12 with, at each v in {0, 3, 6, 9}, a pendant vertex on v and a
    pendant 2-path on v + 1.  Its group is cyclic of order 4: the rotation
    by 3 exchanges the bipartition sides, and the only involution, the
    rotation by 6, keeps them."""
    edges = [(i, (i + 1) % 12) for i in range(12)]
    n = 12
    for v in (0, 3, 6, 9):
        edges += [(v, n), (v + 1, n + 1), (n + 1, n + 2)]
        n += 3
    return make_graph(n, edges)


def involutive_elements(g):
    return [a.perm for a in enumerate_automorphisms(g) if a.is_involution and not a.is_identity]


def small_graphs():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        return make_graph(n, picks)
    return build()


class TestGroupEnumeration:
    def test_single_edge(self):
        assert len(enumerate_automorphisms(make_graph(2, [(0, 1)]))) == 2

    def test_q3_group_order(self):
        auts = enumerate_automorphisms(gen_hypercube(3))
        assert len(auts) == Q3_AUTOMORPHISM_COUNT

    def test_c6_dihedral(self):
        assert len(enumerate_automorphisms(gen_cycle(6))) == 12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cube_group_order_formula(self, d):
        assert len(enumerate_automorphisms(gen_hypercube(d))) == 2 ** d * factorial(d)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_permutation_filter(self, g):
        ours = {a.perm for a in enumerate_automorphisms(g)}
        assert ours == set(bf.all_automorphisms(g))

    def test_contains_identity_and_closed(self):
        g = gen_hypercube(3)
        auts = enumerate_automorphisms(g)
        perms = {a.perm for a in auts}
        assert identity(g.n).perm in perms
        for a in auts[:8]:
            for b in auts[::7]:
                assert a.compose(b).perm in perms

    def test_degree_preserved_pointwise(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        for a in enumerate_automorphisms(g):
            for v in range(g.n):
                assert g.degree(v) == g.degree(a(v))

    def test_set_graph_2_5_group_order(self):
        # Frozen: S_5 acting on the subsets, times complementation.
        assert len(enumerate_automorphisms(gen_set_graph(2, 5))) == 240

    def test_relabelled_q4_group_is_conjugate(self):
        q4 = gen_hypercube(4)
        sigma = Automorphism(tuple(sorted(range(16), key=lambda v: (bin(v).count("1") % 2, v))))
        relabelled = make_graph(16, [(sigma(u), sigma(v)) for u, v in q4.edges()])
        inv = bf.inverse(sigma)
        expect = sorted(sigma.compose(a).compose(inv).perm for a in enumerate_automorphisms(q4))
        assert [a.perm for a in enumerate_automorphisms(relabelled)] == expect

    def test_size_cap(self):
        big = make_graph(33, [])
        with pytest.raises(CapabilityError):
            enumerate_automorphisms(big)


def carrying_oracle(g):
    """The image arrays of the oracle's involutions that pass the carrying
    test, in the oracle's order."""
    return [a.perm for a in bf.involutions_unanchored(g) if bf.passes_carrying_test(g, a)]


class TestInvolutions:
    """The whole involution set comes from the oracle
    (`bruteforce.involutions_unanchored`); the package's search keeps the
    involutions that pass the carrying test."""

    def test_edge_swap(self):
        g = make_graph(2, [(0, 1)])
        invs = bf.involutions_unanchored(g)
        assert len(invs) == 1
        assert invs[0].fixed == frozenset()
        assert _involutions(g) == []  # the swap moves an edge onto itself

    def test_q3_count_frozen(self):
        g = gen_hypercube(3)
        assert len(bf.involutions_unanchored(g)) == Q3_INVOLUTION_COUNT
        assert len(_involutions(g)) == Q3_CARRYING_COUNT

    def test_q3_coordinate_swap_present_with_fixed_set(self):
        g = gen_hypercube(3)
        swap12 = tuple((v & ~3) | ((v & 1) << 1) | ((v >> 1) & 1) for v in range(8))
        invs = {a.perm: a for a in _involutions(g)}
        assert swap12 in invs
        want = frozenset(cube_vertex(b) for b in ("000", "001", "110", "111"))
        assert invs[swap12].fixed == want

    def test_exactly_the_involutive_group_elements(self):
        g = gen_cycle(6)
        full = enumerate_automorphisms(g)
        expect = {a.perm for a in full if a.is_involution and not a.is_identity}
        assert {a.perm for a in bf.involutions_unanchored(g)} == expect

    def test_identity_fixed_set_is_everything(self):
        assert identity(5).fixed == frozenset(range(5))

    @pytest.mark.parametrize("g", [
        gen_hypercube(3), gen_hypercube(4), gen_hypercube(5), gen_set_graph(1, 7),
        gen_cycle_blowup(8), side_first_q4(),
    ], ids=["q3", "q4", "q5", "setgraph-1-7", "cycle-blowup-8", "q4-side-first"])
    def test_direct_enumeration_is_the_group_filter(self, g):
        assert [a.perm for a in bf.involutions_unanchored(g)] == involutive_elements(g)
        assert [a.perm for a in _involutions(g)] == carrying_oracle(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_direct_enumeration_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = gen_random(8 + seed % 2, Fraction(rng.randint(1, 9), 10), seed)
        assert [a.perm for a in bf.involutions_unanchored(g)] == involutive_elements(g)
        assert [a.perm for a in _involutions(g)] == carrying_oracle(g)

    def test_group_is_not_built(self, monkeypatch):
        import homreflect.automorphisms as automorphisms

        def refuse(h):
            raise AssertionError("the whole group was enumerated")

        monkeypatch.setattr(automorphisms, "enumerate_automorphisms", refuse)
        assert len(_involutions(gen_hypercube(3))) == Q3_CARRYING_COUNT

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            _involutions(make_graph(33, []))

    @pytest.mark.parametrize("leaves, count", [(9, 2619), (10, 9495)])
    def test_star_counts_around_the_involution_cap(self, leaves, count):
        # K_{1,k}: the involutions of S_k on the leaves, less the identity;
        # each of them fixes the centre and passes the carrying test
        star = make_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        assert count == sum(factorial(leaves) // (factorial(leaves - 2 * j) * 2 ** j
                                                  * factorial(j))
                            for j in range(1, leaves // 2 + 1))
        if count <= INVOLUTION_CAP:
            assert len(_involutions(star)) == count
        else:
            with pytest.raises(CapabilityError, match=f"capped at {INVOLUTION_CAP} involutions"):
                _involutions(star)

    def test_involution_cap_refuses_during_the_search(self):
        star = make_graph(14, [(0, v) for v in range(1, 14)])  # 568503 involutions
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match="involution enumeration capped"):
            _involutions(star)
        assert time.perf_counter() - start < 2


class TestFindAutomorphism:
    def test_side_swap_found_without_an_involution(self):
        g = decorated_c12()
        assert len(enumerate_automorphisms(g)) == 4
        sides = g.bipartition()
        assert all(a.apply_set(sides[0]) == sides[0] for a in bf.involutions_unanchored(g))
        swap = find_automorphism(g, 0, sides[1])
        assert swap is not None and swap.apply_set(sides[0]) == sides[1]
        assert swap.perm in {a.perm for a in enumerate_automorphisms(g)}

    def test_none_when_no_automorphism_fits(self):
        path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert find_automorphism(path, 0, {1, 2}) is None
        assert find_automorphism(path, 0, {3}).perm == (3, 2, 1, 0)


PRISM = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
K33 = make_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
TWO_TRIANGLES = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
# 2-, 3- and 4-regular graphs on 6 and 8 vertices
REGULAR = [gen_cycle(8), K33, gen_hypercube(3),
           make_graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                          if v not in gen_hypercube(3).adj[u]])]


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _switched(g, rng):
    """G after one degree-preserving switch (u-v, x-y become u-x, v-y) when
    some pair of edges admits one, relabelled."""
    edges = {frozenset(e) for e in g.edges()}
    pairs = [(e, f) for e in g.edges() for f in g.edges() if not set(e) & set(f)]
    rng.shuffle(pairs)
    for (u, v), (x, y) in pairs:
        if frozenset((u, x)) not in edges and frozenset((v, y)) not in edges:
            edges -= {frozenset((u, v)), frozenset((x, y))}
            edges |= {frozenset((u, x)), frozenset((v, y))}
            break
    return _relabelled(make_graph(g.n, [tuple(e) for e in edges]), rng)


def _same_size_pair(seed):
    """A graph on 5-8 vertices and a relabelled copy of it, or of it after
    degree-preserving switches.  Switches keep the vertex, edge and degree
    counts; on the regular graphs (every fourth seed) they keep the
    signatures too, and the two graphs are isomorphic or not.  Some graphs
    are disconnected."""
    rng = random.Random(seed)
    n = 5 + seed % 4
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if seed % 4 == 2:
        a = _relabelled(REGULAR[seed // 4 % len(REGULAR)], rng)
    else:
        a = make_graph(n, rng.sample(pairs, rng.randint(2, len(pairs) - 2)))
    if seed % 2:
        return a, _relabelled(a, rng)
    b = a
    for _ in range(1 + seed % 3):
        b = _switched(b, rng)
    return a, b


def _maps_edges_onto_edges(h, g, image):
    return sorted(image) == list(range(g.n)) and \
        {frozenset((image[u], image[v])) for u, v in h.edges()} == \
        {frozenset(e) for e in g.edges()}


class TestFindIsomorphism:
    """The automorphism backtracking, aimed at a second graph, against the
    permutation filter."""

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_permutation_filter(self, seed):
        a, b = _same_size_pair(seed)
        image = find_isomorphism(a, b)
        assert (image is not None) == (bf.graphs_isomorphic(a, b) is not None)
        if image is not None:
            assert _maps_edges_onto_edges(a, b, image)
        if seed % 2:
            assert image is not None

    @pytest.mark.parametrize("a, b", [
        (gen_cycle(6), TWO_TRIANGLES),
        (K33, PRISM),
        # both 2-regular on 7 vertices: C7 against C4 + C3
        (gen_cycle(7), make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])),
        # both 2-regular on 8 vertices: C3 + C5 against C4 + C4
        (make_graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]),
         make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])),
    ], ids=["c6-two-triangles", "k33-prism", "c7-c4-c3", "c3c5-c4c4"])
    def test_equal_invariants_not_isomorphic(self, a, b):
        assert (a.n, a.edge_count()) == (b.n, b.edge_count())
        assert sorted(a.degrees()) == sorted(b.degrees())
        assert find_isomorphism(a, b) is None
        assert bf.graphs_isomorphic(a, b) is None

    @pytest.mark.parametrize("g", [gen_cycle(6), K33, PRISM, TWO_TRIANGLES, gen_hypercube(3),
                                   make_graph(7, [(0, 1), (2, 3)])],
                             ids=["c6", "k33", "prism", "two-triangles", "q3", "two-edges"])
    def test_relabelled_copies(self, g):
        rng = random.Random(g.n)
        for _ in range(3):
            copy = _relabelled(g, rng)
            image = find_isomorphism(g, copy)
            assert image is not None and _maps_edges_onto_edges(g, copy, image)

    def test_counts_must_agree(self):
        assert find_isomorphism(gen_cycle(5), gen_cycle(6)) is None
        assert find_isomorphism(gen_cycle(6), make_graph(6, [(0, 1)])) is None


ORACLE_GRAPHS = {
    "q3": gen_hypercube(3), "q4": gen_hypercube(4), "q5": gen_hypercube(5),
    "setgraph-1-4": gen_set_graph(1, 4), "setgraph-2-5": gen_set_graph(2, 5),
    "setgraph-1-7": gen_set_graph(1, 7), "cycle-8": gen_cycle(8), "cycle-24": gen_cycle(24),
    "cycle-blowup-6": gen_cycle_blowup(6), "cycle-blowup-8": gen_cycle_blowup(8),
    "q4-side-first": side_first_q4(), "decorated-c12": decorated_c12(),
}


def bipartite_graphs():
    """Bipartite graphs on 2-8 vertices, sides interleaved by a random
    labelling, some disconnected."""
    @st.composite
    def build(draw):
        left = draw(st.integers(min_value=1, max_value=4))
        right = draw(st.integers(min_value=1, max_value=4))
        pairs = [(u, left + v) for u in range(left) for v in range(right)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        labels = draw(st.permutations(range(left + right)))
        return make_graph(left + right, [(labels[u], labels[v]) for u, v in edges])
    return build()


def assert_anchored_matches_oracle(g):
    """The anchored searches find the maps of the unanchored loops in the
    same order, the carrying search finds those of the oracle's involutions
    that pass the carrying test, and they carry every triple: on at most 16
    vertices, every triple that one vertex per moved pair gives."""
    cands = _candidates(g)
    assert _backtrack(g, cands, False) == bf.backtrack_unanchored(g, cands, False)
    assert [a.perm for a in _involutions(g)] == carrying_oracle(g)
    for v in range(0, g.n, 3):
        for images in ({w} for w in range(g.n)):
            restricted = [list(c) for c in cands]
            restricted[v] = [w for w in restricted[v] if w in images]
            first = bf.backtrack_unanchored(g, restricted, True)
            got = find_automorphism(g, v, images)
            assert (got.perm if got else None) == (first[0] if first else None), (v, images)
    rng = random.Random(g.n)
    copy = _relabelled(g, rng)
    first = bf.backtrack_unanchored(g, _candidates(g, copy), True, target=copy)
    assert find_isomorphism(g, copy) == first[0]
    assert enumerate_reflection_triples(g) == \
        triples_over(g, bf.involutions_unanchored(g))
    if g.n <= 16:
        assert enumerate_reflection_triples(g) == bf.reflection_triples_naive(g)


def triples_over(h, involutions):
    """The reflection triples enumerate_reflection_triples(h) finds when it
    runs over `involutions` instead of the carrying involutions of h."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reflectivity, "_involutions", lambda _: involutions)
        return enumerate_reflection_triples(h)


class TestAnchoredSearch:
    """Trying only neighbours of a placed neighbour's image, against the
    loops that try every candidate (`bruteforce.backtrack_unanchored`,
    `bruteforce.involutions_unanchored`)."""

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_named_patterns(self, name):
        assert_anchored_matches_oracle(ORACLE_GRAPHS[name])

    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_relabelled_bipartite_graphs(self, g):
        assert_anchored_matches_oracle(g)

    def test_same_cap_refusal(self):
        star = make_graph(11, [(0, v) for v in range(1, 11)])  # K_{1,10}: 9495 involutions
        message = f"involution enumeration capped at {INVOLUTION_CAP} involutions"
        for search in (bf.involutions_unanchored, _involutions):
            with pytest.raises(CapabilityError, match=message):
                search(star)

    def test_carrying_only_keeps_a_few(self):
        # Q5 has 311 involutions; 116 pass the test and carry all 40 triples.
        # setgraph(1,10) has 18991, over the cap, and only 46 pass.
        q5 = gen_hypercube(5)
        assert (len(bf.involutions_unanchored(q5)), len(_involutions(q5))) == (311, 116)
        assert len(enumerate_reflection_triples(q5)) == 40
        assert len(_involutions(gen_set_graph(1, 10))) == 46
        with pytest.raises(CapabilityError):
            bf.involutions_unanchored(gen_set_graph(1, 10))
