import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from bruteforce import cube_vertex
from homreflect import (
    CapabilityError,
    GraphError,
    check_final_inequality,
    check_reflection_inequality,
    count_cube_homomorphisms,
    certify_reflective,
    enumerate_reflection_triples,
    gen_complete,
    gen_cycle,
    gen_cycle_blowup,
    gen_hypercube,
    gen_random,
    gen_set_graph,
    hom_count,
    injective_hom_count,
    is_admissible,
    make_graph,
    quotient_graph,
    sidorenko_check,
    supersaturation_experiment,
    turan_exponent,
)
from homreflect import exact, homcount
from homreflect.exact import Exact
from homreflect.homcount import _memoised_count, _pattern_key

# Frozen from the naive product-space oracle.
HOM_Q3_K4 = 2652


def connected_pattern(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = [(i, draw(st.integers(min_value=0, max_value=i - 1))) for i in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=6))
    return make_graph(n, edges + extra)


@st.composite
def pattern_and_host(draw):
    h = connected_pattern(draw, max_n=5)
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = make_graph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else [])
    return h, g


class TestQuotient:
    def test_collapses_parallel_edges(self):
        q3 = gen_hypercube(3)
        r = {cube_vertex("000"), cube_vertex("011")}
        q = quotient_graph(q3, r)
        assert q.n == 7
        assert q.edge_count() == 10  # two edge pairs merge

    def test_rejects_dependent_set(self):
        with pytest.raises(GraphError):
            quotient_graph(make_graph(2, [(0, 1)]), {0, 1})


# A greedy pick of the most neighbours regardless of side conditions on 4
# vertices here instead of 3
ELEVEN = [(0, 4), (0, 7), (0, 8), (0, 9), (1, 3), (1, 4), (1, 8), (1, 9), (2, 5), (2, 6),
          (2, 10), (3, 5), (3, 6), (3, 10), (4, 5), (4, 6), (4, 10), (5, 7), (5, 9), (6, 7),
          (6, 8), (8, 10), (9, 10)]


class TestHomCount:
    def test_edge_into_path(self):
        assert hom_count(make_graph(2, [(0, 1)]), make_graph(3, [(0, 1), (1, 2)])) == 4

    def test_four_cycle_into_edge(self):
        assert hom_count(gen_cycle(4), make_graph(2, [(0, 1)])) == 2

    def test_cube_into_complete_bipartite(self):
        k44 = make_graph(8, [(i, 4 + j) for i in range(4) for j in range(4)])
        assert hom_count(gen_hypercube(3), k44) == 2 * 4 ** 8

    def test_cube_into_k22_oracle_confirmed(self):
        # small enough for the product-space oracle: 2 * 2^8 side-respecting maps
        k22 = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        q3 = gen_hypercube(3)
        assert hom_count(q3, k22) == 512 == bf.hom_count_naive(q3, k22)

    def test_cube_into_k4_frozen(self):
        assert hom_count(gen_hypercube(3), gen_complete(4)) == HOM_Q3_K4

    def test_singleton_constraint_is_noop(self):
        q3 = gen_hypercube(3)
        g = gen_random(7, Fraction(1, 2), 11)
        assert hom_count(q3, g, {0}) == hom_count(q3, g)

    @given(pattern_and_host())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_oracle(self, hg):
        h, g = hg
        assert hom_count(h, g) == bf.hom_count_naive(h, g)

    @given(pattern_and_host(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_constrained_matches_naive_oracle(self, hg, data):
        h, g = hg
        independent = [(u, v) for u in range(h.n) for v in range(u + 1, h.n)
                       if v not in h.adj[u]]
        if not independent:
            return
        r = set(data.draw(st.sampled_from(independent)))
        assert hom_count(h, g, r) == bf.hom_count_naive(h, g, r)

    def test_parent_kernel_values_frozen(self):
        # One count per kernel the elimination replaced, frozen from that
        # kernel: part enumeration in Python bitsets and in numpy blocks,
        # backtracking on a cross-side quotient, injective backtracking and
        # the hand-derived 3-cube formula.
        q3 = gen_hypercube(3)
        k33 = make_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        half = Fraction(1, 2)
        assert hom_count(q3, gen_random(12, half, 3)) == 222424
        assert hom_count(q3, gen_random(25, Fraction(2, 5), 8)) == 11809424
        assert hom_count(q3, gen_random(36, half, 1), {0, 7}) == 18735408
        assert hom_count(k33, gen_random(200, half, 1)) == 151171889220
        assert injective_hom_count(q3, gen_random(22, half, 2)) == 5694480
        assert count_cube_homomorphisms(gen_random(40, Fraction(7, 10), 1)) \
            == (71934285458, 32652304272)

    def test_monotone_under_constraint_growth(self):
        q3 = gen_hypercube(3)
        g = gen_random(9, Fraction(1, 2), 4)
        evens = sorted(v for v in range(8) if bin(v).count("1") % 2 == 0)
        small = {evens[0], evens[1]}
        for extra in (evens[2], evens[3]):
            big = small | {extra}
            assert hom_count(q3, g, small) >= hom_count(q3, g, big)
            small = big

    def test_pattern_cap(self):
        with pytest.raises(CapabilityError):
            hom_count(make_graph(17, []), gen_complete(2))

    @pytest.mark.parametrize("pattern, conditioned", [
        (gen_hypercube(3), 2),
        (make_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]), 1),
        (gen_hypercube(4), 4),
        (gen_set_graph(1, 4), 2),
        (make_graph(11, ELEVEN), 3),
    ], ids=["q3", "k33", "q4", "setgraph-1-4", "eleven"])
    def test_bipartite_plan_conditions_on_smaller_side_minus_two(self, pattern, conditioned):
        # the former part-enumeration cap had exponent |X|, the work cap has
        # |C| + 2, so no host it admitted is refused
        steps = homcount._plan(pattern, frozenset(range(pattern.n)))
        smaller = min(pattern.bipartition(), key=len)
        assert [v for v, _, c, _ in steps if c] == \
            [v for v, _, c, _ in steps if c and v in smaller]
        assert sum(c for _, _, c, _ in steps) == conditioned <= len(smaller) - 2


def _sweep_sets(h):
    """The constraint sets `verify section2` sweeps: every non-empty subset
    of each side of the bipartition."""
    return [frozenset(c) for part in h.bipartition()
            for size in range(1, len(part) + 1)
            for c in combinations(sorted(part), size)]


class TestNaiveOracle:
    """The constrained oracle walks only the maps constant on the
    constraint; the walk of every map, `constrained_counts_naive`, gives
    the same counts.  Q3's singletons are left out to save time: a
    singleton constrains nothing, so it takes the unconstrained walk, which
    cycle(6)'s singletons cover."""

    @pytest.mark.parametrize("pattern, smallest", [(gen_hypercube(3), 2), (gen_cycle(6), 1)],
                             ids=["q3", "cycle-6"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_walks_only_constant_maps(self, pattern, smallest, seed):
        g = gen_random(5, Fraction(1, 2), seed)
        sets = [r for r in _sweep_sets(pattern) if len(r) >= smallest]
        want = bf.constrained_counts_naive(pattern, g, sets)
        assert [bf.hom_count_naive(pattern, g, r) for r in sets] == want
        assert any(want)


class TestMemo:
    """hom_count memoises per (quotient vertex count and edge set, host)."""

    @pytest.mark.parametrize("pattern", [gen_hypercube(3), gen_set_graph(1, 4)],
                             ids=["q3", "setgraph-1-4"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_sweep_sets_match_oracle_cold_and_warm(self, pattern, seed):
        g = gen_random(5, Fraction(1, 2), seed)
        sets = _sweep_sets(pattern)
        assert len(sets) == 30
        expected = bf.constrained_counts_naive(pattern, g, sets)
        cold = []
        for r in sets:
            _memoised_count.cache_clear()
            _pattern_key.cache_clear()
            cold.append(hom_count(pattern, g, r))
        assert cold == expected
        _memoised_count.cache_clear()
        assert [hom_count(pattern, g, r) for r in sets] == expected
        filled = _memoised_count.cache_info()
        # the 8 singletons quotient to the pattern itself: 23 labelled quotients
        assert (filled.misses, filled.hits) == (23, 7)
        assert [hom_count(pattern, g, r) for r in sets] == expected
        warm = _memoised_count.cache_info()
        assert (warm.misses, warm.hits) == (23, 7 + 30)

    def test_pattern_graph_built_only_on_a_miss(self, monkeypatch):
        built = []

        def spy(n, edges, labels=None):
            built.append(n)
            return make_graph(n, edges, labels)

        monkeypatch.setattr(homcount, "make_graph", spy)
        q3 = gen_hypercube(3)
        g = gen_random(5, Fraction(1, 2), 5)
        sets = _sweep_sets(q3)
        _memoised_count.cache_clear()
        cold = [hom_count(q3, g, r) for r in sets]
        assert len(built) == 23
        built.clear()
        assert [hom_count(q3, g, r) for r in sets] == cold
        assert built == []

    def test_key_built_once_per_pattern_and_constraint(self, monkeypatch):
        built = []
        key = homcount._quotient_key

        def spy(edges, block_of):
            built.append(block_of)
            return key(edges, block_of)

        monkeypatch.setattr(homcount, "_quotient_key", spy)
        q3 = gen_hypercube(3)
        g = gen_random(5, Fraction(1, 2), 5)
        sets = _sweep_sets(q3) + [None]
        _pattern_key.cache_clear()
        _memoised_count.cache_clear()
        cold = [hom_count(q3, g, r) for r in sets]
        # the 30 sets and None; the 8 singletons key like None, 23 quotients in all
        assert len(built) == 31
        assert _memoised_count.cache_info().misses == 23
        built.clear()
        assert [hom_count(q3, g, r) for r in sets] == cold
        assert built == []
        info = _pattern_key.cache_info()
        assert (info.misses, info.hits, info.currsize) == (31, 31, 31)

    def test_constraint_container_does_not_matter(self):
        q3 = gen_hypercube(3)
        g = gen_random(7, Fraction(1, 2), 2)
        _pattern_key.cache_clear()
        _memoised_count.cache_clear()
        counts = {hom_count(q3, g, r) for r in ([0, 3], (3, 0), {0, 3}, frozenset({3, 0}))}
        assert counts == {bf.hom_count_naive(q3, g, {0, 3})}
        for info in (_pattern_key.cache_info(), _memoised_count.cache_info()):
            assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    @pytest.mark.parametrize("constraint, message", [
        (set(), "empty set"),
        ({0, 1}, "not independent"),
        ({0, 8}, "unknown vertices"),
    ], ids=["empty", "dependent", "out-of-range"])
    def test_malformed_constraint_raised_on_every_call_and_never_stored(self, constraint,
                                                                       message):
        q3 = gen_hypercube(3)
        g = gen_random(7, Fraction(1, 2), 2)
        _pattern_key.cache_clear()
        _memoised_count.cache_clear()
        for _ in range(2):
            with pytest.raises(GraphError, match=message):
                hom_count(q3, g, constraint)
        assert _pattern_key.cache_info().currsize == _memoised_count.cache_info().currsize == 0

    def test_sets_with_one_quotient_share_an_entry(self):
        q3 = gen_hypercube(3)
        g = gen_random(7, Fraction(1, 2), 2)
        _memoised_count.cache_clear()
        counts = {hom_count(q3, g, {0}), hom_count(q3, g, {3}), hom_count(q3, g)}
        assert len(counts) == 1
        info = _memoised_count.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_equal_hosts_share_an_entry_hosts_an_edge_apart_do_not(self):
        q3 = gen_hypercube(3)
        g = gen_random(7, Fraction(1, 2), 3)
        twin = make_graph(7, g.edges())
        one_less = make_graph(7, g.edges()[1:])
        assert twin is not g and twin == g and one_less != g
        _memoised_count.cache_clear()
        count = hom_count(q3, g)
        assert hom_count(q3, twin) == count
        assert _memoised_count.cache_info().hits == 1
        # every host edge carries a homomorphism of the bipartite cube
        assert hom_count(q3, one_less) < count
        info = _memoised_count.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)

    def test_patterns_of_equal_size_do_not_share(self):
        g = gen_random(7, Fraction(1, 2), 3)
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        _memoised_count.cache_clear()
        assert hom_count(star, g) == sum(d ** 3 for d in g.degrees())
        assert hom_count(path, g) == bf.hom_count_naive(path, g)
        assert _memoised_count.cache_info().misses == 2

    @pytest.mark.parametrize("pattern, host, constraint, message", [
        (make_graph(17, []), gen_complete(2), None, "pattern size"),
        # Q4 conditions on 4 vertices: 25^6 <= 3*10^8 < 26^6
        (gen_hypercube(4), gen_random(26, Fraction(1, 2), 1), None, "assignment enumeration"),
        # a cross-side quotient: its plan conditions on 5 vertices, 40^7 > 3*10^8
        (gen_hypercube(4), gen_random(40, Fraction(1, 2), 1), {0, 7}, "assignment enumeration"),
    ], ids=["pattern-cap", "assignment-cap", "cross-side-quotient"])
    def test_refusal_raised_on_every_call_and_never_stored(self, pattern, host, constraint,
                                                           message):
        _memoised_count.cache_clear()
        for _ in range(2):
            start = time.perf_counter()
            with pytest.raises(CapabilityError, match=message):
                hom_count(pattern, host, constraint)
            assert time.perf_counter() - start < 1  # planned, not discovered
        assert _memoised_count.cache_info().currsize == 0


class TestEliminationDtype:
    """The elimination runs in plain float64 exactly when n^(v(H) - |C|) <
    2^53, |C| the number of vertices it conditions on, and on float64
    residues otherwise; both sides must give exact counts."""

    @staticmethod
    def _paths_seen(monkeypatch):
        seen = set()
        kernel = homcount._eliminate

        def spy(exact, *args):
            seen.add("residues" if exact.primes else "float64")
            return kernel(exact, *args)

        monkeypatch.setattr(homcount, "_eliminate", spy)
        _memoised_count.cache_clear()
        return seen

    # 20^12 < 2^53 <= 20^13: K_{1,11} stays plain, K_{1,15} does not
    @pytest.mark.parametrize("leaves, path", [(11, "float64"), (15, "residues")])
    def test_star_degree_power_sum(self, monkeypatch, leaves, path):
        g = gen_random(20, Fraction(1, 2), 4)
        star = make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        seen = self._paths_seen(monkeypatch)
        count = hom_count(star, g)
        assert seen == {path}
        assert count == sum(d ** leaves for d in g.degrees())
        assert (count >= 2 ** 53) == (path == "residues")

    # K4 conditions on one vertex; 12 isolated vertices make 12^(16-1) >= 2^53
    @pytest.mark.parametrize("isolated, path", [(0, "float64"), (12, "residues")])
    def test_conditioned_clique(self, monkeypatch, isolated, path):
        g = gen_random(12, Fraction(1, 2), 5)
        k4 = gen_complete(4)
        assert [conditioned for _, _, conditioned, _ in homcount._plan(k4, frozenset(range(4)))] \
            == [True, False, False, False]
        pattern = make_graph(4 + isolated, k4.edges())
        seen = self._paths_seen(monkeypatch)
        count = hom_count(pattern, g)
        assert seen == {path}
        assert count == bf.hom_count_naive(k4, g) * 12 ** isolated > 0

    def test_residues_on_every_small_count(self, monkeypatch):
        """With the plain limit lowered to 2 every count takes residues, with
        one or more primes: conditioning, all three summing-out steps and a
        constraint quotient."""
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", 2)
        _memoised_count.cache_clear()
        g = make_graph(5, [e for e in gen_complete(5).edges() if e != (0, 1)])
        for h in (gen_complete(4), gen_cycle(5), make_graph(4, [(0, 1), (1, 2)])):
            assert hom_count(h, g) == bf.hom_count_naive(h, g) > 0
        q3 = gen_hypercube(3)
        assert [hom_count(q3, g), hom_count(q3, g, [0, 7])] == \
            bf.constrained_counts_naive(q3, g, [[0], [0, 7]])
        _memoised_count.cache_clear()

    def test_long_cycle_in_large_host_matches_integer_matrix_power(self):
        # C16 into 200 vertices: 200^16 >= 2^53, so residues; the former
        # Python-integer path took about 8 s here
        g = gen_random(200, Fraction(1, 2), 1)
        adj = [[int(v in g.adj[u]) for v in range(g.n)] for u in range(g.n)]
        power = bf.int_matrix_power(adj, 16)
        _memoised_count.cache_clear()
        start = time.perf_counter()
        count = hom_count(gen_cycle(16), g)
        assert time.perf_counter() - start < 2
        assert count == sum(power[v][v] for v in range(g.n))


def _with_pendants(h, k):
    """H with k pendant vertices, the i-th hung on vertex i mod v(H)."""
    return make_graph(h.n + k, list(h.edges()) + [(i % h.n, h.n + i) for i in range(k)])


def _q4_quotient(block_of):
    return make_graph(*homcount._quotient_key(gen_hypercube(4).edges(), block_of))


class TestKeptProducts:
    """A matrix product whose dependency set leaves out a vertex the kernel
    loops over is formed once per image tuple of the set and kept for the
    other branches (_reused_steps)."""

    @pytest.mark.parametrize("pattern, n", [
        (gen_hypercube(3), 5),
        # 8-vertex quotients of Q4 that condition on two and on three vertices
        (_q4_quotient([0, 1, 2, 3, 4, 5, 6, 2, 7, 2, 5, 6, 5, 1, 2, 0]), 5),
        (_q4_quotient([0, 1, 2, 3, 4, 3, 5, 0, 5, 4, 6, 5, 6, 1, 4, 7]), 5),
        (_with_pendants(gen_hypercube(3), 1), 4),
        (_with_pendants(gen_hypercube(3), 2), 4),
    ], ids=["q3", "q4-quotient-c2", "q4-quotient-c3", "q3-pendant", "q3-two-pendants"])
    def test_matches_naive_oracle_on_both_paths(self, monkeypatch, pattern, n):
        steps = homcount._plan(pattern, frozenset(range(pattern.n)))
        assert sum(c for _, _, c, _ in steps) >= 2
        assert homcount._reused_steps(steps, n ** pattern.n, n, n)[0]
        g = gen_random(n, Fraction(4, 5), n)
        expected = bf.hom_count_naive(pattern, g)
        assert expected > 0
        _memoised_count.cache_clear()
        assert hom_count(pattern, g) == expected
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", 2)
        _memoised_count.cache_clear()
        assert hom_count(pattern, g) == expected
        _memoised_count.cache_clear()

    # recorded from the kernel that formed every product in every branch;
    # 60^(v(H) - 2) >= 2^53, so both counts run on residues
    @pytest.mark.parametrize("pendants, count", [
        (5, 2555920640630699042),
        (8, 81301457149531408297192),
    ])
    def test_cube_with_pendants_on_residues(self, pendants, count):
        _memoised_count.cache_clear()
        assert hom_count(_with_pendants(gen_hypercube(3), pendants),
                         gen_random(60, Fraction(1, 2), 2)) == count

    @staticmethod
    def _products(monkeypatch):
        """The n-by-n products of each matmul call: the size of its stack."""
        products = []

        def spy(bound, n, matrices):
            ex = Exact(bound, n, matrices)
            matmul = ex.matmul

            def counted(a, b):
                products.append(math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])))
                return matmul(a, b)

            ex.matmul = counted
            return ex

        monkeypatch.setattr(homcount, "Exact", spy)
        _memoised_count.cache_clear()
        return products

    @staticmethod
    def _branches(monkeypatch):
        """The number of _eliminate calls per start step."""
        calls = {}
        kernel = homcount._eliminate

        def spy(exact, steps, start, *args):
            calls[start] = calls.get(start, 0) + 1
            return kernel(exact, steps, start, *args)

        monkeypatch.setattr(homcount, "_eliminate", spy)
        return calls

    # the cube conditions on step 0 and step 4 of its plan; up to n = 64 the
    # second takes all n images in one chunk
    @pytest.mark.parametrize("n", [9, 40])
    def test_cube_takes_4n_products(self, monkeypatch, n):
        g = gen_random(n, Fraction(1, 2), 3)
        assert min(g.degrees()) > 0
        assert homcount._chunk_width(n ** 6, n) == n
        products = self._products(monkeypatch)
        branches = self._branches(monkeypatch)
        count = hom_count(gen_hypercube(3), g)
        # n outer branches of one chunk each; three products per outer
        # branch and the last triangle's, kept, as one stack of n
        assert branches == {0: 1, 1: n, 5: n}
        assert sorted(products) == [1] * (3 * n) + [n]
        assert sum(products) == 4 * n
        # forming every product in every branch takes n^2 + 3n, same count
        products.clear()
        monkeypatch.setattr(homcount, "_reused_steps", lambda steps, bound, n, width:
                            ({}, homcount._matrices_held(steps, width)))
        _memoised_count.cache_clear()
        assert hom_count(gen_hypercube(3), g) == count
        assert sorted(products) == [1] * (3 * n) + [n] * n
        assert sum(products) == n * n + 3 * n
        _memoised_count.cache_clear()

    def test_table_past_the_cell_cap_is_not_kept(self, monkeypatch):
        # with the cap at the plan's own matrices the cube keeps no product
        # and counts as before
        g = gen_random(20, Fraction(1, 2), 4)
        _memoised_count.cache_clear()
        count = hom_count(gen_hypercube(3), g)
        steps = homcount._plan(gen_hypercube(3), frozenset(range(8)))
        assert homcount._chunk_width(20 ** 6, 20) == 20
        held = homcount._matrices_held(steps, 20)
        monkeypatch.setattr(exact, "_CELL_CAP", held * 20 * 20)
        assert homcount._reused_steps(steps, 20 ** 6, 20, 20) == ({}, held)
        products = self._products(monkeypatch)
        assert hom_count(gen_hypercube(3), g) == count
        assert sorted(products) == [1] * (3 * 20) + [20] * 20
        assert sum(products) == 20 * 20 + 3 * 20
        _memoised_count.cache_clear()


# Two K4 that share vertex 0: the plan conditions on it, and what is left
# falls apart into two triangles, each summed down to one integer per image
K4_BOWTIE = make_graph(7, [(a, b) for side in ([0, 1, 2, 3], [0, 4, 5, 6])
                           for a, b in combinations(side, 2)])


class TestChunkedConditioning:
    """The plan's last conditioned vertex takes its images in chunks of
    consecutive host vertices, one stack of factors per chunk; every chunk
    width gives the naive count on both paths."""

    @pytest.mark.parametrize("pattern, constraint, conditioned", [
        (gen_complete(4), None, 1),
        (K4_BOWTIE, None, 1),
        (gen_hypercube(3), [0, 7], 1),
        (gen_hypercube(3), None, 2),
        (_q4_quotient([0, 1, 2, 3, 4, 5, 6, 2, 7, 2, 5, 6, 5, 1, 2, 0]), None, 2),
        (_q4_quotient([0, 1, 2, 3, 4, 3, 5, 0, 5, 4, 6, 5, 6, 1, 4, 7]), None, 3),
    ], ids=["k4", "k4-bowtie", "q3-constraint", "q3", "q4-quotient-c2", "q4-quotient-c3"])
    def test_every_width_matches_naive_oracle_on_both_paths(self, monkeypatch, pattern,
                                                            constraint, conditioned):
        n = 5
        g = gen_random(n, Fraction(4, 5), 5)
        quotient = quotient_graph(pattern, constraint) if constraint else pattern
        assert _conditioned(quotient) == conditioned
        expected = bf.hom_count_naive(pattern, g, constraint)
        assert expected > 0
        # one image per chunk, a width that does not divide n, every image at once
        for width in (1, n - 1, n):
            monkeypatch.setattr(homcount, "_chunk_width", lambda bound, n, width=width: width)
            for plain_limit in (2 ** 53, 2):
                monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
                _memoised_count.cache_clear()
                assert hom_count(pattern, g, constraint) == expected
        _memoised_count.cache_clear()

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_one_branch_per_chunk(self, monkeypatch, width):
        # K4 conditions on its first step, with weight 1 at every image
        g = gen_random(7, Fraction(1, 2), 2)
        monkeypatch.setattr(homcount, "_chunk_width", lambda bound, n: width)
        branches = TestKeptProducts._branches(monkeypatch)
        _memoised_count.cache_clear()
        assert hom_count(gen_complete(4), g) == bf.hom_count_naive(gen_complete(4), g)
        assert branches == {0: 1, 1: -(-7 // width)}
        _memoised_count.cache_clear()

    @pytest.mark.parametrize("bound, n, width", [
        (64 ** 6, 64, 64),          # 64^3 cells: every image at once
        (131 ** 6, 131, 15),        # 15 stacked matrices of 131^2 cells
        (300 ** 3, 300, 2),
        (600 ** 3, 600, 1),
        (25 ** 12, 25, 25),         # three residue layers
        (2 ** 53, 180, 2),          # three residue layers of 180^2 cells
        (1, 0, 1),
    ])
    def test_width_fills_the_chunk_budget(self, bound, n, width):
        assert homcount._chunk_width(bound, n) == width


class TestProductHost:
    """hom(H, G1 x G2) = hom(H, G1) hom(H, G2) for every pattern H (Lovasz,
    "Large Networks and Graph Limits", AMS 2012, ch. 5), and a constrained
    count is the count of a quotient pattern, so it multiplies too: tensor
    products check counts past brute force, on both Exact paths and at
    chunk widths 1, n - 1 and n.  The factors' counts come from the plain
    path, which the naive oracles check on hosts this small.

    Q3's arrays stay below the primes on these hosts, so there a residue
    only recombines.  The 16-cycle's bound is past 2^53 on the default
    limit, and its steps multiply matrices whose entries pass the primes.
    Q4 runs at one width, every image at once: one image per chunk takes
    it 7 s."""

    @pytest.mark.parametrize("plain_limit", [exact._PLAIN_LIMIT, 2],
                             ids=["float64", "residues"])
    @pytest.mark.parametrize("constraint", [None, {0, 3}], ids=["free", "constraint-0-3"])
    @pytest.mark.parametrize("factors", [[(6, 1), (7, 2)], [(9, 3), (8, 4)]],
                             ids=["6x7", "9x8"])
    def test_q3_counts_multiply(self, monkeypatch, factors, constraint, plain_limit):
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
        layers = self.assert_counts_multiply(monkeypatch, gen_hypercube(3), factors, constraint)
        assert bool(layers) == (plain_limit == 2)

    def test_q4_counts_multiply(self, monkeypatch):
        layers = self.assert_counts_multiply(monkeypatch, gen_hypercube(4), [(4, 5), (5, 6)],
                                             widths=lambda n: [n])
        assert layers == 0

    def test_long_cycle_counts_multiply_past_2_53(self, monkeypatch):
        # no vertex is conditioned, so there is no chunk to size
        layers = self.assert_counts_multiply(monkeypatch, gen_cycle(16), [(9, 3), (8, 4)],
                                             widths=lambda n: [n])
        assert layers == 5

    @staticmethod
    def assert_counts_multiply(monkeypatch, h, factors, constraint=None,
                               widths=lambda n: [1, n - 1, n]) -> int:
        """Check the count on the product of random(n, 1/2, seed) over
        `factors` at each of `widths(n)`; the residue layers it took."""
        hosts = [gen_random(n, Fraction(1, 2), seed) for n, seed in factors]
        with monkeypatch.context() as plain:
            plain.setattr(exact, "_PLAIN_LIMIT", 1 << 53)
            _memoised_count.cache_clear()
            want = math.prod(hom_count(h, f, constraint) for f in hosts)
        assert want > 0
        g, _ = bf.tensor_product(*hosts)
        n = g.n
        quotient = quotient_graph(h, constraint) if constraint else h
        layers = exact._layers(n ** (quotient.n - _conditioned(quotient)))
        taken = []
        real = homcount._chunk_width

        def chunk_width(bound, n):
            taken.append(real(bound, n))
            return taken[-1]

        monkeypatch.setattr(homcount, "_chunk_width", chunk_width)
        for width in widths(n):
            monkeypatch.setattr(homcount, "_CHUNK_CELLS", width * max(layers, 1) * n * n)
            _memoised_count.cache_clear()
            assert hom_count(h, g, constraint) == want, width
            assert taken[-1] == width
        _memoised_count.cache_clear()
        return layers


# Two labellings of one quotient of the Petersen graph
PETERSEN_QUOTIENT = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4),
                     (3, 5), (4, 5)]
PETERSEN_QUOTIENT_RELABELLED = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 5),
                                (3, 4), (3, 5), (4, 5)]


# A sparse bipartite pattern on which the least |C| over the vertices of the
# most neighbours alone is 3, one more than the former smaller-side greedy
SPARSE_15 = [(0, 2), (0, 11), (0, 12), (1, 13), (2, 3), (2, 6), (2, 14), (3, 5), (3, 12), (4, 6),
             (4, 7), (4, 10), (5, 6), (5, 8), (5, 9), (5, 14), (6, 11), (6, 12), (6, 13),
             (7, 11), (7, 12), (9, 11), (9, 13), (11, 14), (12, 14)]


def _conditioned(h):
    """|C| of the plan of a connected pattern."""
    return sum(c for _, _, c, _ in homcount._plan(h, frozenset(range(h.n))))


def _smaller_side_bound(h):
    """max(0, |X| - 2), X the smaller side: README's bound on |C|."""
    return max(0, min(map(len, h.bipartition())) - 2)


def _relabelled(h, rng):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return make_graph(h.n, [(perm[u], perm[v]) for u, v in h.edges()])


def _small_connected_bipartite(rng):
    """Every connected bipartite graph on at most 7 vertices, as an edge
    set of K_{a,n-a} with a <= n - a, each under a seeded relabelling."""
    for n in range(2, 8):
        for a in range(1, n // 2 + 1):
            pairs = [(u, v) for u in range(a) for v in range(a, n)]
            for mask in range(1, 1 << len(pairs)):
                h = make_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                if h.is_connected():
                    yield _relabelled(h, rng)


def _sparse_bipartite(rng, count):
    """Seeded connected bipartite patterns on 10-16 vertices at edge
    probability 2/5 between the sides."""
    while count:
        n = rng.randint(10, 16)
        side = set(rng.sample(range(n), rng.randint(n // 3, n // 2)))
        h = make_graph(n, [(min(u, v), max(u, v)) for u in side for v in range(n)
                           if v not in side and rng.random() < 0.4])
        if h.is_connected():
            count -= 1
            yield h


class TestLabelFreePlans:
    """Every pattern conditions on the fewest vertices over every choice
    among the vertices of most neighbours, and for a bipartite pattern also
    among those of most neighbours on its smaller side, so relabelling it
    changes neither |C| nor whether the work cap refuses it, and a
    bipartite plan is never longer than the former smaller-side greedy."""

    def test_every_relabelling_conditions_on_one_vertex(self):
        h = make_graph(6, PETERSEN_QUOTIENT)
        assert h.bipartition() is None
        for perm in permutations(range(6)):
            q = make_graph(6, [(perm[u], perm[v]) for u, v in h.edges()])
            assert sum(c for _, _, c, _ in homcount._plan(q, frozenset(range(6)))) == 1

    def test_relabellings_count_alike_where_one_was_refused(self):
        # with two conditioned vertices 132^4 > 3*10^8 refused the first
        g = gen_random(132, Fraction(1, 2), 1)
        _memoised_count.cache_clear()
        assert hom_count(make_graph(6, PETERSEN_QUOTIENT), g) == \
            hom_count(make_graph(6, PETERSEN_QUOTIENT_RELABELLED), g) == 3002812616
        _memoised_count.cache_clear()

    def test_q4_conditions_on_four_under_every_labelling(self):
        rng = random.Random(4)
        q4 = gen_hypercube(4)
        patterns = [q4, bf.side_first_q4()] + [_relabelled(q4, rng) for _ in range(50)]
        assert [_conditioned(h) for h in patterns] == [4] * 52

    def test_cycle_blowup_conditions_on_three(self):
        h = gen_cycle_blowup(6)
        assert _conditioned(h) == 3 < bf.smaller_side_greedy_conditioned(h) == 4

    def test_never_more_than_the_smaller_side_greedy(self):
        rng = random.Random(7)
        patterns = list(_small_connected_bipartite(rng))
        assert len(patterns) == 2306
        for h in patterns:
            assert _conditioned(h) <= bf.smaller_side_greedy_conditioned(h)
            assert _conditioned(h) <= _smaller_side_bound(h)

    def test_sparse_patterns_where_the_rules_differ(self):
        patterns = list(_sparse_bipartite(random.Random(2), 150))
        ours = [_conditioned(h) for h in patterns]
        greedy = [bf.smaller_side_greedy_conditioned(h) for h in patterns]
        assert all(c <= g for c, g in zip(ours, greedy))
        assert sum(c < g for c, g in zip(ours, greedy)) >= 5
        assert all(c <= _smaller_side_bound(h) for c, h in zip(ours, patterns))

    def test_smaller_side_candidates_keep_the_greedy_bound(self, monkeypatch):
        h = make_graph(15, SPARSE_15)
        assert _conditioned(h) == bf.smaller_side_greedy_conditioned(h) == 2
        search = homcount._conditioning_order
        monkeypatch.setattr(homcount, "_conditioning_order", lambda nbrs, _: search(nbrs, []))
        assert _conditioned(h) == 3

    # counts at n <= 11 recorded when Q4 conditioned on 6; 12 from a relabelling
    # that conditioned on 4, when the cube's labelling was refused
    @pytest.mark.parametrize("n, count", [(8, 54056410), (10, 1509906630), (11, 148873152),
                                          (12, 2215119002)])
    def test_q4_counts(self, n, count):
        _memoised_count.cache_clear()
        assert hom_count(gen_hypercube(4), gen_random(n, Fraction(1, 2), 1)) == count
        _memoised_count.cache_clear()


class TestInjective:
    def test_edge_into_triangle(self):
        assert injective_hom_count(make_graph(2, [(0, 1)]), gen_complete(3)) == 6

    def test_four_cycle_self(self):
        assert injective_hom_count(gen_cycle(4), gen_cycle(4)) == 8

    def test_cube_self_is_automorphism_count(self):
        q3 = gen_hypercube(3)
        assert injective_hom_count(q3, q3) == 48

    def test_complete_host_closed_form(self):
        q3 = gen_hypercube(3)
        for n in (8, 9, 10):
            assert injective_hom_count(q3, gen_complete(n)) == math.perm(n, 8)
            assert hom_count(q3, gen_complete(n)) == bf.expected_hom_and_injective(q3, n, 1)[0]

    @given(pattern_and_host())
    @settings(max_examples=30, deadline=None)
    def test_matches_partition_moebius_oracle(self, hg):
        h, g = hg
        expect = bf.injective_by_partition_moebius(h, g, bf.hom_count_naive)
        assert injective_hom_count(h, g) == expect

    @given(pattern_and_host())
    @settings(max_examples=30, deadline=None)
    def test_hom_splits_into_injective_quotients(self, hg):
        h, g = hg
        total = 0
        for part in bf._partitions(list(range(h.n))):
            blocks = [sorted(b) for b in part if len(b) > 1]
            try:
                q = h
                mapping = list(range(h.n))
                for block in sorted(blocks):
                    current = sorted({mapping[v] for v in block})
                    q = quotient_graph(q, current)
                    rep = min(current)
                    removed = [v for v in current if v != rep]
                    mapping = [rep if old in current else old - sum(1 for r in removed if r < old)
                               for old in mapping]
            except GraphError:
                continue
            total += bf.injective_count_naive(q, g)
        assert total == hom_count(h, g)

    def test_caps(self):
        with pytest.raises(CapabilityError):
            injective_hom_count(make_graph(11, []), gen_complete(3))

    def test_noninjective_bounded_by_pair_sum(self):
        q3 = gen_hypercube(3)
        for seed in (1, 2, 3):
            g = gen_random(6, Fraction(1, 2), seed)
            total = hom_count(q3, g)
            injective = injective_hom_count(q3, g)
            pair_sum = sum(hom_count(q3, g, {u, v}) for u, v in combinations(range(8), 2)
                           if v not in q3.adj[u])
            assert total - injective <= pair_sum


P5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
K23 = make_graph(5, [(i, 2 + j) for i in range(2) for j in range(3)])
C4_PLUS_EDGE = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
CLASS_PATTERNS = {"q3": gen_hypercube(3), "c6": gen_cycle(6), "k23": K23, "p5": P5,
                  "setgraph-1-4": gen_set_graph(1, 4), "c4-plus-edge": C4_PLUS_EDGE}


class TestQuotientClasses:
    """injective_hom_count runs the kernel once per isomorphism class of
    quotient; the sum must equal the naive count and the Moebius sum over
    every labelled quotient."""

    @pytest.mark.parametrize("name", CLASS_PATTERNS)
    @pytest.mark.parametrize("n, seed", [(6, 1), (7, 2), (8, 3)])
    def test_small_hosts_match_naive_and_labelled_sum(self, name, n, seed):
        h = CLASS_PATTERNS[name]
        g = gen_random(n, Fraction(1, 2), seed)
        expect = bf.injective_count_naive(h, g)
        assert injective_hom_count(h, g) == expect
        assert bf.injective_by_partition_moebius(h, g, hom_count) == expect

    @pytest.mark.parametrize("name", CLASS_PATTERNS)
    @pytest.mark.parametrize("n, seed", [(12, 4), (16, 5), (22, 2)])
    def test_large_hosts_match_labelled_sum(self, name, n, seed):
        h = CLASS_PATTERNS[name]
        g = gen_random(n, Fraction(1, 2), seed)
        assert injective_hom_count(h, g) == bf.injective_by_partition_moebius(h, g, hom_count)

    @pytest.mark.parametrize("name", CLASS_PATTERNS)
    def test_complete_and_empty_hosts(self, name):
        h = CLASS_PATTERNS[name]
        for n in (h.n, h.n + 3):
            assert injective_hom_count(h, gen_complete(n)) == math.perm(n, h.n)
        assert injective_hom_count(h, make_graph(h.n + 2, [])) == 0

    def test_ten_vertex_cycle(self):
        c10 = gen_cycle(10)
        g = gen_random(12, Fraction(1, 2), 6)
        assert injective_hom_count(c10, g) == bf.injective_by_partition_moebius(c10, g, hom_count)
        assert injective_hom_count(c10, gen_complete(11)) == math.perm(11, 10)
        assert injective_hom_count(c10, make_graph(12, [])) == 0

    def test_q3_table(self):
        classes = homcount._quotient_classes(gen_hypercube(3))
        assert len(classes) == 25 and all(weight for _, weight in classes)
        assert sum(1 for _ in homcount._independent_partitions(gen_hypercube(3))) == 354
        # the discrete partition is a class of its own, weight 1
        assert (gen_hypercube(3), 1) in classes

    def test_cold_memo_one_count_per_class_and_table_reused(self):
        q3 = gen_hypercube(3)
        _memoised_count.cache_clear()
        homcount._quotient_classes.cache_clear()
        injective_hom_count(q3, gen_random(8, Fraction(1, 2), 1))
        assert _memoised_count.cache_info().misses == 25
        injective_hom_count(q3, gen_random(9, Fraction(1, 2), 2))
        assert _memoised_count.cache_info().misses == 50
        info = homcount._quotient_classes.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("h", [gen_hypercube(3), gen_cycle(8), gen_set_graph(1, 4), K23],
                             ids=["q3", "c8", "setgraph-1-4", "k23"])
    def test_representatives_plan_like_every_labelled_quotient(self, h):
        # the work cap is decided on the representatives: they condition on
        # as many vertices as the most any labelled quotient would
        def conditioned(q):
            return max((sum(step[2] for step in homcount._plan(q, comp))
                        for comp in q.components()), default=0)
        labelled = {make_graph(*homcount._quotient_key(h.edges(), block_of))
                    for block_of, _ in homcount._independent_partitions(h)}
        assert max(conditioned(rep) for rep, _ in homcount._quotient_classes(h)) == \
            max(conditioned(q) for q in labelled)


class TestCubeKernel:
    def test_complete_host(self):
        hom, inj = count_cube_homomorphisms(gen_complete(9))
        assert inj == math.perm(9, 8)
        assert hom == bf.expected_hom_and_injective(gen_hypercube(3), 9, 1)[0]

    def test_empty_host(self):
        hom, inj = count_cube_homomorphisms(make_graph(10, []))
        assert (hom, inj) == (0, 0)


class TestSidorenko:
    def test_single_edge_equality(self):
        g = gen_random(9, Fraction(1, 2), 6)
        res = sidorenko_check(make_graph(2, [(0, 1)]), g)
        assert res["holds"]
        assert Fraction(res["lhs"]) == res["rhs"]  # 2e == p n^2 exactly

    def test_cube_in_complete(self):
        assert sidorenko_check(gen_hypercube(3), gen_complete(8))["holds"]

    def test_cube_in_random(self):
        g = gen_random(12, Fraction(1, 2), 7)
        res = sidorenko_check(gen_hypercube(3), g)
        assert res["holds"]


class TestReflectionInequality:
    def test_cube_host_worked_triple(self):
        q3 = gen_hypercube(3)
        triples = enumerate_reflection_triples(q3)
        r = frozenset({cube_vertex("000"), cube_vertex("011")})
        t = next(t for t in triples if is_admissible(q3, t, r))
        res = check_reflection_inequality(q3, q3, t, r)
        assert res["holds"]

    def test_degenerate_single_edge_host(self):
        q3 = gen_hypercube(3)
        k2 = make_graph(2, [(0, 1)])
        t = enumerate_reflection_triples(q3)[0]
        for r in _admissible_sets(q3, t):
            assert check_reflection_inequality(q3, k2, t, r)["holds"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exhaustive_sweep_random_host(self, seed):
        q3 = gen_hypercube(3)
        g = gen_random(10, Fraction(1, 2), seed)
        for t in enumerate_reflection_triples(q3):
            for r in _admissible_sets(q3, t):
                res = check_reflection_inequality(q3, g, t, r)
                assert res["holds"], (t, r)

    def test_inadmissible_rejected(self):
        q3 = gen_hypercube(3)
        t = enumerate_reflection_triples(q3)[0]
        bad = frozenset(t.side_a)
        if is_admissible(q3, t, bad):
            bad = frozenset({min(t.side_a)})
        with pytest.raises(GraphError):
            check_reflection_inequality(q3, q3, t, bad)


def _admissible_sets(h, triple):
    from itertools import combinations
    out = []
    for part in h.bipartition():
        part = sorted(part)
        for size in range(1, len(part) + 1):
            for c in combinations(part, size):
                if is_admissible(h, triple, frozenset(c)):
                    out.append(frozenset(c))
    return out


class TestFinalInequality:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_searched_certificate_bounds_hold(self, seed):
        q3 = gen_hypercube(3)
        g = gen_random(9, Fraction(2, 3), seed)
        evens = sorted(v for v in range(8) if bin(v).count("1") % 2 == 0)
        cert = certify_reflective(q3, {evens[0], evens[1]}).certificate
        res = check_final_inequality(q3, g, cert)
        assert res["holds"]

    def test_zero_start_trivial(self):
        q3 = gen_hypercube(3)
        host = make_graph(3, [(0, 1)])  # plus an isolated vertex
        cert = certify_reflective(q3, {0, 3}).certificate
        assert check_final_inequality(q3, host, cert)["holds"]

    def test_invalid_certificate_is_input_error(self):
        from homreflect import ReflectionCertificate
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, {0, 3}).certificate
        bad = ReflectionCertificate(cert.start, cert.side, cert.steps[:-1])
        with pytest.raises(GraphError):
            check_final_inequality(q3, q3, bad)


class TestExponent:
    def test_cube_value(self):
        assert turan_exponent(8, 12, 4) == Fraction(13, 8)

    def test_four_cycle_value(self):
        assert turan_exponent(4, 4, 2) == Fraction(3, 2)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_cube_identity(self, d):
        """At the d-cube's 2^d vertices, d 2^(d-1) edges and 2^(d-1) on a
        side the exponent is 2 - 1/(d-1) + 1/((d-1) 2^(d-1))."""
        half = 1 << (d - 1)
        closed = 2 - Fraction(1, d - 1) + Fraction(1, (d - 1) * half)
        assert turan_exponent(2 * half, d * half, half) == closed

    def test_tree_like_undefined(self):
        with pytest.raises(GraphError):
            turan_exponent(4, 2, 2)


class TestSupersaturation:
    def test_empty_density(self):
        # an empty host has no 3-cube; the experiment refuses p = 0, where
        # its benchmark n^8 p^12 is 0
        for n in (10, 20):
            assert count_cube_homomorphisms(gen_random(n, Fraction(0), 1)) == (0, 0)
            with pytest.raises(GraphError, match="0 < p <= 1"):
                supersaturation_experiment(n, Fraction(0), 1, 1)

    def test_complete_density_closed_form(self):
        rep = supersaturation_experiment(12, Fraction(1), 5, 1)
        assert rep["trials"][0]["injective"] == math.perm(12, 8)

    def test_threshold_fields(self):
        rep = supersaturation_experiment(16, Fraction(7, 10), 2, 2)
        assert len(rep["trials"]) == 2
        for row in rep["trials"]:
            assert row["noninjective"] == row["hom"] - row["injective"]
        assert rep["benchmark"] == Fraction(16) ** 8 * Fraction(7, 10) ** 12
        assert rep["threshold"] == Fraction(1, 10)
        for row in rep["trials"]:
            assert row["meets_threshold"] == (row["injective"] >= rep["benchmark"] / 10)


class TestGnpExpectationOracle:
    """The G(n, p) expectation oracle against the exact average over every
    labelled host on n vertices, weighted by its probability.  Five host
    vertices reach only the 3-cube's partitions into at most five blocks, so
    the smaller patterns cover every partition, parallel edges of the
    quotient included, and the complete host checks the block-count weights
    of all 354 cube partitions."""

    @pytest.mark.parametrize("pattern", [
        gen_hypercube(3),
        gen_cycle(4),
        make_graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
    ], ids=["q3", "c4", "k23"])
    def test_matches_average_over_all_hosts(self, pattern):
        n, p = 5, Fraction(7, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hom_mean = Fraction(0)
        inj_mean = Fraction(0)
        for mask in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
            weight = p ** len(edges) * (1 - p) ** (len(pairs) - len(edges))
            g = make_graph(n, edges)
            hom_mean += weight * hom_count(pattern, g)
            inj_mean += weight * injective_hom_count(pattern, g)
        assert bf.expected_hom_and_injective(pattern, n, p) == (hom_mean, inj_mean)

    def test_complete_density(self):
        q3 = gen_hypercube(3)
        hom, inj = bf.expected_hom_and_injective(q3, 9, 1)
        assert hom == hom_count(q3, gen_complete(9))
        assert inj == math.perm(9, 8)
