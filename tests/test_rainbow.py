import random
from fractions import Fraction
from math import comb

import pytest

import bruteforce as bf
from homreflect import (
    EdgeColouring,
    GraphError,
    check_pattern_chain,
    check_variant_chain,
    coincidence_table,
    cycle_weight_sum,
    cycle_weight_sum_spectral,
    direction_colouring,
    distinct_colour_count,
    find_almost_rainbow,
    find_rainbow_cycle,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random,
    greedy_proper_colouring,
    is_rainbow_cycle,
    make_graph,
    rainbow_colouring,
)
from homreflect import exact, rainbow
from homreflect.rainbow import _WalkEngine


def random_host_with_degrees(n, p_num, p_den, seed):
    g = gen_random(n, Fraction(p_num, p_den), seed)
    bump = seed
    while g.min_degree() == 0:
        bump += 1000
        g = gen_random(n, Fraction(p_num, p_den), bump)
    return g


class TestWeightSums:
    def test_triangle_pairs(self):
        assert cycle_weight_sum(gen_complete(3), 1) == Fraction(3, 2)

    def test_four_cycle_constant(self):
        for k in (1, 2, 3, 4):
            assert cycle_weight_sum(gen_cycle(4), k) == 2

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_complete_closed_form(self, n, k):
        assert cycle_weight_sum(gen_complete(n), k) == 1 + Fraction(1, (n - 1) ** (2 * k - 1))

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cube_spectrum_closed_form(self, d, k):
        want = sum(Fraction(comb(d, i)) * Fraction(d - 2 * i, d) ** (2 * k)
                   for i in range(d + 1))
        assert cycle_weight_sum(gen_hypercube(d), k) == want

    @pytest.mark.parametrize("seed", [2, 9])
    def test_matches_walk_enumeration(self, seed):
        g = random_host_with_degrees(5, 3, 5, seed)
        for k in (1, 2):
            assert cycle_weight_sum(g, k) == bf.closed_walk_weight_sum(g, 2 * k)

    def test_two_step_edge_formula_and_bound(self):
        g = random_host_with_degrees(9, 1, 2, 4)
        want = sum(Fraction(1, g.degree(u) * g.degree(v))
                   for u in range(g.n) for v in g.adj[u])
        h2 = cycle_weight_sum(g, 1)
        assert h2 == want
        assert h2 <= Fraction(g.n, g.min_degree())

    @pytest.mark.parametrize("seed", range(6))
    def test_at_least_one(self, seed):
        g = random_host_with_degrees(8 + seed, 1, 2, seed)
        for k in (1, 2, 3):
            assert cycle_weight_sum(g, k) >= 1

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            cycle_weight_sum(make_graph(3, [(0, 1)]), 1)


class TestWalkEngineDtype:
    """The engine runs in plain float64 exactly when n L^2k / delta < 2^53,
    L the lcm of the degrees and delta the minimum degree, and on float64
    residues otherwise; both sides must give the brute-force sums."""

    # random(8, 3/5, 0): degrees {2, 3, 4, 5, 7}, L = 420, plain up to k = 2.
    # random(9, 3/5, 55): degrees 2..8, L = 840, plain up to k = 2.
    @pytest.mark.parametrize("n, seed, k, path", [
        (8, 0, 2, "float64"), (8, 0, 3, "residues"),
        (9, 55, 2, "float64"), (9, 55, 3, "residues"),
    ])
    def test_both_sides_of_plain_bound(self, n, seed, k, path):
        g = gen_random(n, Fraction(3, 5), seed)
        assert bool(_WalkEngine(g, k).exact.primes) == (path == "residues")
        col = greedy_proper_colouring(g, seed)
        assert cycle_weight_sum(g, k) == bf.closed_walk_weight_sum(g, 2 * k)
        table = coincidence_table(g, col, k)
        # the length-6 oracle is slow; the canonical pairs (i, 2k) stand
        # for the rest through the rotation and reversal invariance
        pairs = [(i, 2 * k) for i in range(1, k + 1)] if k == 3 else sorted(table)
        for i, j in pairs:
            want = bf.closed_walk_weight_sum(g, 2 * k, colour_match=(i, j), colouring=col)
            assert table[(i, j)] == want, (i, j)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_residues_on_every_small_host(self, monkeypatch, seed):
        """With the plain limit lowered to 2 every engine takes residues,
        with one or more primes, including the k = 1 table whose two marked
        steps are adjacent (no matrix power on either side)."""
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", 2)
        rainbow._last_sums.clear()
        g = random_host_with_degrees(6, 1, 2, seed)
        col = greedy_proper_colouring(g, seed)
        for k in (1, 2):
            assert _WalkEngine(g, k).exact.primes
            assert cycle_weight_sum(g, k) == bf.closed_walk_weight_sum(g, 2 * k)
            for (i, j), value in coincidence_table(g, col, k).items():
                assert value == bf.closed_walk_weight_sum(g, 2 * k, colour_match=(i, j),
                                                          colouring=col), (k, i, j)
        rainbow._last_sums.clear()

    @pytest.mark.parametrize("plain_limit", [exact._PLAIN_LIMIT, 2], ids=["float64", "residues"])
    def test_improper_colourings_match_oracle(self, monkeypatch, plain_limit):
        """One colour puts all 2e > n oriented edges in one class, which the
        engine then takes in slices of n^2 / 2e edges; a random two-colouring
        gives two such classes of unequal size."""
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
        rainbow._last_sums.clear()
        g = random_host_with_degrees(7, 3, 5, 3)
        assert 2 * g.edge_count() > g.n
        rng = random.Random(3)
        for col in (EdgeColouring({e: 0 for e in g.edges()}),
                    EdgeColouring({e: rng.randrange(2) for e in g.edges()})):
            for k in (1, 2):
                for (i, j), value in coincidence_table(g, col, k).items():
                    assert value == bf.closed_walk_weight_sum(g, 2 * k, colour_match=(i, j),
                                                              colouring=col), (k, i, j)
        rainbow._last_sums.clear()

    def test_irregular_host_past_64_vertices_matches_integer_oracle(self):
        # the former Python-integer engine refused hosts over 64 vertices
        g = gen_random(65, Fraction(1, 2), 1)
        assert len(set(g.degrees())) > 1
        assert _WalkEngine(g, 2).exact.primes
        assert cycle_weight_sum(g, 2) == bf.walk_weight_by_matrix_power(g, 4)

    def test_large_host_with_small_degree_lcm_runs_plain(self):
        # a 66-cycle with 11 chords: degrees {2, 3}, L = 6
        edges = [(v, (v + 1) % 66) for v in range(66)] + [(v, v + 33) for v in range(0, 33, 3)]
        g = make_graph(66, edges)
        assert set(g.degrees()) == {2, 3}
        for k in (1, 2, 3, 4):
            assert not _WalkEngine(g, k).exact.primes
            spectral = cycle_weight_sum_spectral(g, k)
            assert abs(float(cycle_weight_sum(g, k)) - spectral.value) <= spectral.error_bound

    @pytest.mark.parametrize("k, products", [(1, 0), (2, 1), (3, 3), (4, 5)])
    def test_powers_stored(self, k, products):
        # B^1 .. B^max(k, 2k - 2) for colour weights, B^1 .. B^k without;
        # B^0 is never built
        for coloured, made in ((True, products), (False, k - 1)):
            engine = _WalkEngine(gen_hypercube(3), k, coloured)
            assert engine.powers[0] is None
            assert len(engine.powers) - 2 == made

    @pytest.mark.parametrize("build, size, ks", [
        (gen_complete, 1024, [6]), (gen_complete, 600, [10, 11, 12]),
        (gen_hypercube, 10, [9, 10, 11]),
    ], ids=["clique-1024", "clique-600", "hypercube-10"])
    def test_engine_without_colouring_declares_fewer_matrices(self, monkeypatch, build, size,
                                                              ks):
        """An engine without colour weights declares k + 3 matrices to the
        cell cap, not max(k, 2k - 2) + 3, so these sums are admitted where
        the table of the same host and k is refused.  The declaration is
        checked without forming any power."""
        class Declared(Exception):
            pass

        def declare(bound, n, matrices):
            raise Declared(exact.admits(bound, n, matrices))

        monkeypatch.setattr(rainbow, "Exact", declare)
        g = build(size)
        for k in ks:
            admitted = []
            for coloured in (False, True):
                with pytest.raises(Declared) as got:
                    _WalkEngine(g, k, coloured)
                admitted.append(got.value.args[0])
            assert admitted == [True, False], k


class TestSpectral:
    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_agrees_with_exact(self, seed):
        g = random_host_with_degrees(12, 1, 2, seed)
        for k in (1, 2, 4):
            exact = float(cycle_weight_sum(g, k))
            spectral = cycle_weight_sum_spectral(g, k)
            assert abs(spectral.value - exact) <= 1e-9 * max(1.0, exact)

    def test_lower_bound(self):
        g = random_host_with_degrees(30, 1, 3, 3)
        assert cycle_weight_sum_spectral(g, 6).value >= 1 - 1e-9

    def test_large_regular_host(self):
        val = cycle_weight_sum_spectral(gen_hypercube(8), 4)
        exact = float(cycle_weight_sum(gen_hypercube(8), 4))
        assert abs(val.value - exact) <= 1e-9 * exact


class TestCoincidenceWeights:
    def test_four_cycle_pinned_values(self):
        c4 = gen_cycle(4)
        col = rainbow_colouring(c4)
        table = coincidence_table(c4, col, 2)
        assert table[(1, 4)] == 1
        assert table[(2, 4)] == Fraction(1, 2)

    def test_length_two_always_coincides(self):
        g = random_host_with_degrees(6, 1, 2, 2)
        col = greedy_proper_colouring(g, 1)
        assert coincidence_table(g, col, 1)[(1, 2)] == cycle_weight_sum(g, 1)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_all_patterns_match_walk_enumeration(self, seed):
        g = random_host_with_degrees(5, 3, 5, seed)
        col = greedy_proper_colouring(g, seed)
        k = 2
        table = coincidence_table(g, col, k)
        for i in range(1, 2 * k + 1):
            for j in range(i + 1, 2 * k + 1):
                want = bf.closed_walk_weight_sum(g, 2 * k, colour_match=(i, j),
                                                 colouring=col)
                assert table[(i, j)] == want, (i, j)

    def test_rotation_invariance_through_oracle(self):
        g, col = direction_colouring(3)
        k = 2
        table = coincidence_table(g, col, k)
        for (i, j), value in table.items():
            shifted = ((i % (2 * k)) + 1, (j % (2 * k)) + 1)
            lo, hi = min(shifted), max(shifted)
            assert table[(lo, hi)] == value

    def test_patterns_bounded_by_total(self):
        g = random_host_with_degrees(8, 1, 2, 5)
        col = greedy_proper_colouring(g, 2)
        total = cycle_weight_sum(g, 2)
        for value in coincidence_table(g, col, 2).values():
            assert value <= total


class TestPatternChain:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_direction_cube_holds(self, k):
        g, col = direction_colouring(3)
        rep = check_pattern_chain(g, col, k)
        assert rep["unconditional_ok"]
        assert rep["conditional_ok"]  # no rainbow cycle exists here

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_hosts_unconditional(self, seed):
        g = random_host_with_degrees(10, 3, 5, seed)
        col = greedy_proper_colouring(g, seed)
        for k in (2, 3):
            rep = check_pattern_chain(g, col, k)
            assert rep["unconditional_ok"]

    def test_half_density_twelve_vertex_host(self):
        g = random_host_with_degrees(12, 1, 2, 5)
        col = greedy_proper_colouring(g, 5)
        for k in (2, 3):
            assert check_pattern_chain(g, col, k)["unconditional_ok"]

    def test_improper_colouring_rejected(self):
        g = gen_cycle(4)
        col = EdgeColouring({e: 0 for e in g.edges()})
        with pytest.raises(GraphError):
            check_pattern_chain(g, col, 2)

    def test_large_clique_violates_no_rainbow_bound(self):
        g = gen_complete(66)
        col = greedy_proper_colouring(g, 5)
        rep = check_pattern_chain(g, col, 2)
        assert rep["unconditional_ok"]
        assert not rep["conditional_ok"]
        found = find_rainbow_cycle(g, col)
        assert found.cycle is not None
        assert is_rainbow_cycle(g, col, found.cycle)

    def test_small_triangle_bounds_hold(self):
        # the no-rainbow bounds are far from tight at this scale: they hold
        # even though the host is itself a rainbow triangle
        g = gen_complete(3)
        col = rainbow_colouring(g)
        rep = check_pattern_chain(g, col, 2)
        assert rep["conditional_ok"]


class TestVariantChain:
    def test_epsilon_range(self):
        g, col = direction_colouring(3)
        for bad in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
            with pytest.raises(GraphError):
                check_variant_chain(g, col, 2, bad)

    def test_direction_cube_holds(self):
        g, col = direction_colouring(4)
        rep = check_variant_chain(g, col, 2, Fraction(1, 4))
        assert rep["conditional_ok"]

    def test_clique_violation_certifies_almost_rainbow(self):
        g = gen_complete(27)
        col = greedy_proper_colouring(g, 2)
        rep = check_variant_chain(g, col, 2, Fraction(2, 5))
        assert not rep["conditional_ok"]
        found = find_almost_rainbow(g, col, Fraction(2, 5))
        assert found.cycle is not None

    def test_counting_cross_check_on_no_rainbow_host(self):
        g, col = direction_colouring(3)
        rep = check_variant_chain(g, col, 2, Fraction(1, 4))
        counting = next(c for c in rep["checks"] if c["name"] == "coincidence_counting")
        assert counting["holds"]


class TestRainbowSearch:
    def test_triangle_found(self):
        g = gen_complete(3)
        col = greedy_proper_colouring(g, 1)
        res = find_rainbow_cycle(g, col)
        assert res.cycle is not None and len(res.cycle) == 3

    def test_properly_coloured_triangle_host_always_yields(self):
        g = gen_random(10, Fraction(4, 5), 3)
        col = greedy_proper_colouring(g, 1)
        res = find_rainbow_cycle(g, col)
        assert res.cycle is not None
        assert is_rainbow_cycle(g, col, res.cycle)

    def test_alternating_four_cycle_none(self):
        c4 = gen_cycle(4)
        col = EdgeColouring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        res = find_rainbow_cycle(c4, col)
        assert res.cycle is None and res.exhaustive

    @pytest.mark.parametrize("d", [3, 4])
    def test_direction_cube_none_exhaustive(self, d):
        g, col = direction_colouring(d)
        res = find_rainbow_cycle(g, col)
        assert res.cycle is None
        assert res.exhaustive

    def test_budget_reported_honestly(self, monkeypatch):
        g, col = direction_colouring(4)
        monkeypatch.setattr(rainbow, "_NODE_BUDGET", 5)
        res = find_rainbow_cycle(g, col)
        assert res.cycle is None and not res.exhaustive


class TestAlmostRainbowSearch:
    def test_triangle(self):
        g = gen_complete(3)
        col = rainbow_colouring(g)
        res = find_almost_rainbow(g, col, Fraction(1, 10))
        assert res.cycle is not None

    def test_alternating_four_cycle_none(self):
        c4 = gen_cycle(4)
        col = EdgeColouring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
        res = find_almost_rainbow(c4, col, Fraction(2, 5))
        assert res.cycle is None and res.exhaustive

    def test_direction_cube_parity_blocks(self):
        g, col = direction_colouring(4)
        res = find_almost_rainbow(g, col, Fraction(1, 4))
        assert res.cycle is None
        assert res.exhaustive

    def test_epsilon_range(self):
        g = gen_complete(3)
        with pytest.raises(GraphError):
            find_almost_rainbow(g, rainbow_colouring(g), Fraction(1, 2))

    def test_found_cycle_meets_quota(self):
        g = gen_random(9, Fraction(3, 4), 6)
        col = greedy_proper_colouring(g, 2)
        eps = Fraction(1, 5)
        res = find_almost_rainbow(g, col, eps)
        if res.cycle:
            k = len(res.cycle)
            assert distinct_colour_count(g, col, res.cycle) > (1 - eps) * k


class TestCycleSearchOracle:
    """Both searches against every simple cycle listed by the brute-force
    oracle.  A cycle qualifies when fewer than eps L of its L edges repeat
    a colour (none for a rainbow cycle).  With the default budget a search
    finishes and returns the least qualifying cycle, written from its
    smallest vertex in either direction: depth-first order over sorted
    neighbours meets it first."""

    @pytest.mark.parametrize("seed", range(12))
    def test_first_qualifying_cycle(self, seed):
        n = 5 + seed % 5
        g = gen_random(n, Fraction(1, 2) if seed % 2 else Fraction(3, 4), seed)
        rng = random.Random(seed)
        colourings = [greedy_proper_colouring(g, seed),
                      EdgeColouring({e: rng.randrange(3) for e in g.edges()})]
        for col in colourings:
            cycles = [c for cyc in bf.simple_cycles(g)
                      for c in (cyc, cyc[:1] + cyc[:0:-1])]
            for eps in (None, Fraction(1, 10), Fraction(1, 4), Fraction(2, 5),
                        Fraction(49, 100)):
                def qualifies(cyc):
                    repeats = len(cyc) - distinct_colour_count(g, col, cyc)
                    return repeats == 0 if eps is None else repeats < eps * len(cyc)

                res = (find_rainbow_cycle(g, col) if eps is None
                       else find_almost_rainbow(g, col, eps))
                want = min(filter(qualifies, cycles), default=None)
                assert (res.cycle, res.exhaustive) == (want, True), eps


class TestCycleSearchDepth:
    """The search keeps its path on an explicit stack, so a path as long as
    the vertex cap allows does not run into the interpreter's recursion
    limit."""

    def test_rainbow_cycle_1000(self):
        g = gen_cycle(1000)
        res = find_rainbow_cycle(g, rainbow_colouring(g))
        assert res.cycle == tuple(range(1000)) and res.exhaustive

    def test_almost_rainbow_cycle_1024(self):
        g = gen_cycle(1024)
        # every eighth edge repeats the colour of the next one
        col = EdgeColouring({e: min(e) + (min(e) % 8 == 0) for e in g.edges()})
        res = find_almost_rainbow(g, col, Fraction(1, 4))
        assert len(res.cycle) == 1024 and res.exhaustive


class TestCoincidenceTableKept:
    """The walk layer keeps the values of its last call, matched by host
    object, half-length and colouring object."""

    def test_pattern_and_variant_chains_share_one_table(self, monkeypatch):
        calls = []
        matched = _WalkEngine.matched_trace

        def counted(self, classes, a, b):
            calls.append((a, b))
            return matched(self, classes, a, b)

        monkeypatch.setattr(_WalkEngine, "matched_trace", counted)
        rainbow._last_sums.clear()
        g = gen_complete(6)
        col = greedy_proper_colouring(g, 1)
        pattern = check_pattern_chain(g, col, 2)
        variant = check_variant_chain(g, col, 2, Fraction(2, 5))
        assert calls == [(0, 2), (1, 1)]
        assert variant["patterns"] == pattern["patterns"]
        # a colouring with the same colours is another object: its table
        # is evaluated afresh
        same = EdgeColouring(dict(col.colours))
        assert same != col
        assert check_pattern_chain(g, same, 2)["patterns"] == pattern["patterns"]
        assert calls == [(0, 2), (1, 1)] * 2

    def test_sum_without_colouring_served_by_kept_table(self, monkeypatch):
        built = []
        engine = _WalkEngine

        def counted(g, k, *rest):
            built.append(k)
            return engine(g, k, *rest)

        monkeypatch.setattr(rainbow, "_WalkEngine", counted)
        rainbow._last_sums.clear()
        g = gen_complete(7)
        col = greedy_proper_colouring(g, 2)
        coincidence_table(g, col, 3)
        assert cycle_weight_sum(g, 3) == 1 + Fraction(1, 6 ** 5)
        assert built == [3]
        # another half-length, or an equal host that is another object,
        # builds an engine of its own
        cycle_weight_sum(g, 2)
        cycle_weight_sum(gen_complete(7), 2)
        assert built == [3, 2, 2]

    def test_colouring_must_cover_the_edges(self):
        g = gen_cycle(4)
        col = EdgeColouring({(0, 1): 0, (1, 2): 1, (2, 3): 0})
        with pytest.raises(GraphError, match="cover exactly"):
            coincidence_table(g, col, 2)
