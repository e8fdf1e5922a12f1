import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from homreflect import (
    Automorphism,
    CapabilityError,
    cube_vertex,
    enumerate_automorphisms,
    enumerate_involutions,
    find_automorphism,
    gen_cycle,
    gen_cycle_blowup,
    gen_hypercube,
    gen_random,
    gen_set_graph,
    identity,
    make_graph,
)

# Frozen from the permutation-filter oracle.
Q3_AUTOMORPHISM_COUNT = 48
Q3_INVOLUTION_COUNT = 19


def side_first_q4():
    """Q4 relabelled so that one bipartition side takes labels 0..7, as in
    the benchmark's certify workload."""
    order = sorted(range(16), key=lambda v: (bin(v).count("1") % 2, v))
    label = {v: i for i, v in enumerate(order)}
    return make_graph(16, [(label[u], label[u ^ (1 << b)])
                           for u in range(16) for b in range(4) if u < u ^ (1 << b)])


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
        inv = sigma.inverse()
        expect = sorted(sigma.compose(a).compose(inv).perm for a in enumerate_automorphisms(q4))
        assert [a.perm for a in enumerate_automorphisms(relabelled)] == expect

    def test_size_cap(self):
        big = make_graph(33, [])
        with pytest.raises(CapabilityError):
            enumerate_automorphisms(big)


class TestInvolutions:
    def test_edge_swap(self):
        invs = enumerate_involutions(make_graph(2, [(0, 1)]))
        assert len(invs) == 1
        assert invs[0].fixed_set() == frozenset()

    def test_q3_count_frozen(self):
        assert len(enumerate_involutions(gen_hypercube(3))) == Q3_INVOLUTION_COUNT

    def test_q3_coordinate_swap_present_with_fixed_set(self):
        g = gen_hypercube(3)
        swap12 = tuple((v & ~3) | ((v & 1) << 1) | ((v >> 1) & 1) for v in range(8))
        invs = {a.perm: a for a in enumerate_involutions(g)}
        assert swap12 in invs
        want = frozenset(cube_vertex(b) for b in ("000", "001", "110", "111"))
        assert invs[swap12].fixed_set() == want

    def test_exactly_the_involutive_group_elements(self):
        g = gen_cycle(6)
        full = enumerate_automorphisms(g)
        expect = {a.perm for a in full if a.is_involution and not a.is_identity}
        assert {a.perm for a in enumerate_involutions(g)} == expect

    def test_identity_fixed_set_is_everything(self):
        assert identity(5).fixed_set() == frozenset(range(5))

    @pytest.mark.parametrize("g", [
        gen_hypercube(3), gen_hypercube(4), gen_hypercube(5), gen_set_graph(1, 7),
        gen_cycle_blowup(8), side_first_q4(),
    ], ids=["q3", "q4", "q5", "setgraph-1-7", "cycle-blowup-8", "q4-side-first"])
    def test_direct_enumeration_is_the_group_filter(self, g):
        assert [a.perm for a in enumerate_involutions(g)] == involutive_elements(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_direct_enumeration_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = gen_random(8 + seed % 2, Fraction(rng.randint(1, 9), 10), seed)
        assert [a.perm for a in enumerate_involutions(g)] == involutive_elements(g)

    def test_group_is_not_built(self, monkeypatch):
        import homreflect.automorphisms as automorphisms

        def refuse(h):
            raise AssertionError("the whole group was enumerated")

        monkeypatch.setattr(automorphisms, "enumerate_automorphisms", refuse)
        assert len(enumerate_involutions(gen_hypercube(3))) == Q3_INVOLUTION_COUNT

    def test_size_cap(self):
        with pytest.raises(CapabilityError):
            enumerate_involutions(make_graph(33, []))


class TestFindAutomorphism:
    def test_side_swap_found_without_an_involution(self):
        g = decorated_c12()
        assert len(enumerate_automorphisms(g)) == 4
        sides = g.bipartition()
        assert all(a.apply_set(sides[0]) == sides[0] for a in enumerate_involutions(g))
        swap = find_automorphism(g, 0, sides[1])
        assert swap is not None and swap.apply_set(sides[0]) == sides[1]
        assert swap.perm in {a.perm for a in enumerate_automorphisms(g)}

    def test_none_when_no_automorphism_fits(self):
        path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert find_automorphism(path, 0, {1, 2}) is None
        assert find_automorphism(path, 0, {3}).perm == (3, 2, 1, 0)
