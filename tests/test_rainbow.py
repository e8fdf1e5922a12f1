import random
import tracemalloc
from fractions import Fraction
from math import comb, isqrt

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
        engine takes as a matrix; a random two-colouring gives two classes of
        unequal size."""
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
        rainbow._last_sums.clear()
        g = random_host_with_degrees(7, 3, 5, 3)
        assert 2 * g.edge_count() > g.n
        rng = random.Random(3)
        for col in (EdgeColouring(g, {e: 0 for e in g.edges()}),
                    EdgeColouring(g, {e: rng.randrange(2) for e in g.edges()})):
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
            assert_enclosed(g, k, cycle_weight_sum(g, k))

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


class TestColourWeightsAgainstWalks:
    """Every canonical coincidence offset at k = 1, 2 and 3 equals the
    closed-walk enumeration, on the plain path and on residues: for a
    proper colouring, whose offset 1 comes from a diagonal; for one with two
    same-colour edges at a vertex, where that shortcut would miss walks and
    every class, of at most n oriented edges, is gathered, B^0 included;
    and for one colour, a class of more than n oriented edges."""

    @pytest.fixture(scope="class")
    def cases(self):
        g = random_host_with_degrees(6, 3, 5, 1)
        proper = greedy_proper_colouring(g, 1)
        e, f = next((e, f) for e in g.edges() for f in g.edges()
                    if e < f and set(e) & set(f))
        colourings = {"proper": proper,
                      "defect": EdgeColouring(g, {**proper.colours, e: proper.colours[f]}),
                      "one": EdgeColouring(g, {e: 0 for e in g.edges()})}
        sizes = {name: [len(xs) for xs, _ in rainbow._colour_classes(g, col)[1]]
                 for name, col in colourings.items()}
        assert not colourings["defect"].proper and max(sizes["defect"]) <= g.n
        assert sizes["one"] == [2 * g.edge_count()] and 2 * g.edge_count() > g.n
        want = {(name, k): [bf.closed_walk_weight_sum(g, 2 * k, colour_match=(i, 2 * k),
                                                      colouring=col)
                            for i in range(1, k + 1)]
                for name, col in colourings.items() for k in (1, 2, 3)}
        return g, colourings, want

    @pytest.mark.parametrize("plain_limit", [exact._PLAIN_LIMIT, 2], ids=["float64", "residues"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", ["proper", "defect", "one"])
    def test_every_offset(self, monkeypatch, cases, plain_limit, k, name):
        g, colourings, want = cases
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
        assert bool(_WalkEngine(g, k, True).exact.primes) == (plain_limit == 2)
        rainbow._last_sums.clear()
        table = coincidence_table(g, colourings[name], k)
        rainbow._last_sums.clear()
        assert [table[(i, 2 * k)] for i in range(1, k + 1)] == want[(name, k)]


class TestProductHost:
    """A closed walk of a tensor product is a pair of closed walks of its
    factors, so on random(9) x random(8), 72 vertices on the residue path,
    every h_2j and every coincidence offset at k = 3 is the product of the
    factors' values, under the product of proper colourings (offset 1 from
    a diagonal, classes gathered) and of one-colourings (one class taken as
    a matrix)."""

    @pytest.mark.parametrize("proper", [True, False], ids=["greedy", "one-colour"])
    def test_values_multiply(self, proper):
        factors = [random_host_with_degrees(9, 1, 2, 1), random_host_with_degrees(8, 1, 2, 2)]
        cols = [greedy_proper_colouring(f, 1) if proper else
                EdgeColouring(f, {e: 0 for e in f.edges()}) for f in factors]
        g, col = bf.tensor_product(*factors, *cols)
        assert g.n == 72 and col.proper == proper
        assert _WalkEngine(g, 3, True).exact.primes
        rainbow._last_sums.clear()
        tables = [coincidence_table(h, c, 3) for h, c in zip(factors + [g], cols + [col])]
        for i in range(1, 4):
            assert tables[2][(i, 6)] == tables[0][(i, 6)] * tables[1][(i, 6)], i
        for k in (1, 2, 3):
            assert cycle_weight_sum(g, k) == cycle_weight_sum(factors[0], k) * \
                cycle_weight_sum(factors[1], k), k
        rainbow._last_sums.clear()


def assert_enclosed(g, k, exact):
    """The spectral radius of h_2k contains the exact value, and is below
    10^-11 of it."""
    spectral = cycle_weight_sum_spectral(g, k)
    assert abs(Fraction(spectral.value) - exact) <= Fraction(spectral.error_bound), k
    assert spectral.error_bound <= 1e-11 * exact, k


def proven_radius(g, j, value) -> Fraction:
    """The radius rainbow._spectral_sums proves for the float h_2j, (G - 1)
    value + G A, evaluated in exact rationals from its docstring."""
    n, low, high = g.n, g.min_degree(), g.max_degree()
    unit, tiny = Fraction(1, 2 ** 53), Fraction(1, 2 ** 1074)
    gamma, eps = n * unit / (1 - n * unit), 5 * unit / (1 - 5 * unit)
    root = isqrt(low * high)
    rho = Fraction(root + (root * root < low * high), low)
    beta = n * tiny * (1 + gamma) / 2
    lost = Fraction(0)
    for _ in range(j - 1):
        lost = (1 + gamma) * (1 + eps) * rho * lost + beta
    factor = (1 + eps) ** j * (1 + gamma) ** (j - 1)
    spread = factor ** 2 * (1 + gamma) ** 2
    floor = (1 + gamma) ** 2 * (2 * factor * lost * n * rho + (n * lost) ** 2) + (1 + gamma) * n * beta
    return (spread - 1) * Fraction(value) + spread * floor


class TestSpectral:
    def test_radius_is_the_proven_bound(self):
        """The radius, evaluated in floats rounded up, is at least the
        proven bound evaluated exactly and within 10^-9 of it."""
        for g in (random_host_with_degrees(12, 1, 2, 1), gen_hypercube(8),
                  random_host_with_degrees(120, 1, 3, 2), gen_cycle(7)):
            for j, spectral in enumerate(rainbow._spectral_sums(g, 4), 1):
                want = proven_radius(g, j, spectral.value)
                assert want <= Fraction(spectral.error_bound) <= want * (1 + Fraction(1, 10 ** 9))

    @pytest.mark.parametrize("seed", [1, 5, 8])
    def test_agrees_with_exact(self, seed):
        g = random_host_with_degrees(12, 1, 2, seed)
        for k in (1, 2, 4):
            assert_enclosed(g, k, cycle_weight_sum(g, k))

    def test_lower_bound(self):
        g = random_host_with_degrees(30, 1, 3, 3)
        assert cycle_weight_sum_spectral(g, 6).value >= 1 - 1e-9

    def test_large_regular_host(self):
        assert_enclosed(gen_hypercube(8), 4, cycle_weight_sum(gen_hypercube(8), 4))

    def test_encloses_product_of_factors_at_1024_vertices(self):
        """h_2k of a tensor product is the product of the factors' values,
        which gives the exact h_2k of a 1024-vertex host from two 32-vertex
        ones.  One pass at k = 3 serves k = 2 and 1."""
        factors = [random_host_with_degrees(32, 1, 2, seed) for seed in (1, 2)]
        g, _ = bf.tensor_product(*factors)
        assert g.n == 1024
        rainbow._last_spectral.clear()
        for k in (3, 2, 1):
            assert_enclosed(g, k, cycle_weight_sum(factors[0], k) * cycle_weight_sum(factors[1], k))
        rainbow._last_sums.clear()
        rainbow._last_spectral.clear()

    def test_pass_holds_two_matrices(self):
        """A pass holds S and one power, n x n each, and one row block of
        n/8 rows: k = 4 on 400 vertices allocates less than two matrices and
        two blocks at once, where a third matrix would pass it."""
        g = random_host_with_degrees(400, 1, 2, 3)
        tracemalloc.start()
        try:
            rainbow._spectral_sums(g, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 400 * 400 * 8 + 2 * 50 * 400 * 8


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
        col = EdgeColouring(g, {e: 0 for e in g.edges()})
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

    def test_conditional_bounds_as_stated(self):
        """no_rainbow_step_k{j} bounds h_2j by (2j^2/delta) h_2j-2 and
        no_rainbow_total bounds h_2k by (2k^2/delta)^k n; the variant's
        checks take j/(eps delta) in place of 2j^2/delta."""
        g = random_host_with_degrees(10, 3, 5, 1)
        col = greedy_proper_colouring(g, 1)
        delta, k, eps = g.min_degree(), 4, Fraction(1, 3)
        pattern, variant = check_pattern_chain(g, col, k), check_variant_chain(g, col, k, eps)
        for prefix, rep, ratio in (("no_rainbow", pattern, lambda j: Fraction(2 * j * j, delta)),
                                   ("variant", variant, lambda j: j / (eps * delta))):
            rhs = {c["name"]: c["rhs"] for c in rep["checks"]}
            h = rep["weights"]
            for j in range(2, k + 1):
                assert rhs[f"{prefix}_step_k{j}"] == ratio(j) * h[2 * j - 2]
            assert rhs[f"{prefix}_total"] == ratio(k) ** k * g.n


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
        col = EdgeColouring(c4, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
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
        col = EdgeColouring(c4, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2})
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
                      EdgeColouring(g, {e: rng.randrange(3) for e in g.edges()})]
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
        col = EdgeColouring(g, {e: min(e) + (min(e) % 8 == 0) for e in g.edges()})
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
        same = EdgeColouring(g, dict(col.colours))
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
        """A colouring that misses an edge is refused when it is built; one
        made for another graph is refused where it is used."""
        g = gen_cycle(4)
        with pytest.raises(GraphError, match="cover exactly"):
            EdgeColouring(g, {(0, 1): 0, (1, 2): 1, (2, 3): 0})
        path = make_graph(4, g.edges()[:3])
        with pytest.raises(GraphError, match="cover exactly"):
            coincidence_table(g, rainbow_colouring(path), 2)
