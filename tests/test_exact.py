import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import bruteforce as bf
from homreflect import (CapabilityError, EdgeColouring, coincidence_table, cycle_weight_sum,
                        direction_colouring, exact, gen_clique_union, gen_complete, gen_cycle,
                        gen_cycle_blowup, gen_hypercube, gen_random, gen_set_graph,
                        greedy_proper_colouring, hom_count, homcount, make_graph, rainbow)
from homreflect.exact import Exact

# what the kernels below hold besides their matrices: edge lists, vectors,
# index arrays and bookkeeping
SLACK = 1 << 20


def as_array(ex, rows):
    """A matrix of Python integers in the layout of ex."""
    flat = ex.from_ints([v for row in rows for v in row])
    return flat.reshape(flat.shape[:-1] + (len(rows), len(rows[0])))


def random_matrix(rng, n, top):
    return [[rng.randrange(top) for _ in range(n)] for _ in range(n)]


class TestAdjacency:
    """The matrix filled from the neighbour sets equals the one filled from
    the edge list, on every generator and on a graph read from edges."""

    @pytest.mark.parametrize("g", [
        gen_random(0, Fraction(1, 2), 1),
        gen_random(1, Fraction(1, 2), 1),
        gen_random(60, Fraction(3, 7), 2),
        gen_random(200, Fraction(1, 2), 3),
        gen_complete(1),
        gen_complete(50),
        gen_cycle(9),
        gen_hypercube(5),
        gen_set_graph(2, 6),
        gen_clique_union(4, 3),
        gen_cycle_blowup(5),
        direction_colouring(4)[0],
        make_graph(7, [(5, 1), (0, 6), (3, 2), (6, 5)]),
    ], ids=["random-0", "random-1", "random-60", "random-200", "clique-1", "clique-50",
            "cycle", "hypercube", "setgraph", "clique-union", "cycle-blowup",
            "direction-cube", "edge-list"])
    def test_matches_edge_list_build(self, g):
        got = exact.adjacency(g)
        assert got.dtype == np.float64 and got.shape == (g.n, g.n)
        assert np.array_equal(got, bf.adjacency_from_edges(g))


def _window_by_full_sieve() -> list[int]:
    """The primes p with 2^21 <= p and 1024 p^2 < 2^53, largest first, by a
    sieve of every number up to the window's top."""
    top = 1 << 22  # past the window: 1024 (2^22)^2 = 2^54
    sieve = np.ones(top, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(top ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return [p for p in np.flatnonzero(sieve)[::-1].tolist()
            if 1 << 21 <= p and 1024 * p * p < 1 << 53]


class TestPrimeWindow:
    """The residue path's primes are sieved from the top of the window down,
    only as far as a run needs them; they and their order are those of a
    full sieve, so every residue is unchanged."""

    @pytest.fixture(scope="class")
    def window(self):
        return _window_by_full_sieve()

    def test_count_pinned_by_a_full_sieve(self, window):
        assert len(window) == exact._WINDOW_PRIMES == 58905

    @pytest.mark.parametrize("count", [0, 1, 10, 2000, 58905])
    def test_largest_first_as_the_full_sieve(self, window, count):
        assert list(islice(exact._descending_primes(), count)) == window[:count]
        assert exact._primes(count) == window[:count]

    def test_across_a_segment_boundary(self, window):
        first = sum(p > exact._TOP - exact._SEGMENT for p in window)  # in the top segment
        for count in (first, first + 1):
            assert list(islice(exact._descending_primes(), count)) == window[:count]
        assert Exact(1 << 53, 1, 1).primes == tuple(window[:3])

    def test_whole_window_and_no_more(self, window):
        assert list(exact._descending_primes()) == window
        assert exact._primes(exact._WINDOW_PRIMES + 5) == window

    def test_admits_no_bound_needing_more_primes_than_the_window(self):
        most = exact._WINDOW_PRIMES
        assert exact._layers((1 << 21 * most) - 1) == most
        assert exact.admits((1 << 21 * most) - 1, 1, 1)
        assert exact._layers(1 << 21 * most) == most + 1
        assert not exact.admits(1 << 21 * most, 1, 1)
        with pytest.raises(CapabilityError, match=f"{most + 1} residue layers"):
            Exact(1 << 21 * most, 1, 1)


class TestAgainstPythonIntegers:
    """Products, elementwise products, sums and conversions agree with
    Python integers on random n-by-n matrices with entries below
    `top`; n^3 top^2 bounds every value formed."""

    @pytest.mark.parametrize("top, plain_limit, layers", [
        (2 ** 19, 2 ** 53, 0),       # below 2^53: plain float64
        (2 ** 20, 2 ** 53, 3),       # just past 2^53: the fewest primes it takes
        (2 ** 40, 2 ** 53, 5),       # several primes
        (9, 2, 1),                   # limit lowered: one prime
        (2 ** 12, 2, 2),             # limit lowered: two primes
    ])
    def test_products_and_sums(self, monkeypatch, top, plain_limit, layers):
        monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
        rng = random.Random(top)
        n = 30
        a, b = random_matrix(rng, n, top), random_matrix(rng, n, top)
        ex = Exact(n ** 3 * (top - 1) ** 2, n, 3)
        assert len(ex.primes) == layers
        left, right = as_array(ex, a), as_array(ex, b)
        want = bf.int_matmul(a, b)
        got = ex.matmul(left, right)
        assert [[ex.to_int(got[..., i, j]) for j in range(n)] for i in range(n)] == want
        assert ex.to_int(ex.total(got, (-2, -1))) == sum(map(sum, want))
        elementwise = ex.mul(left, right)
        assert [ex.to_int(ex.total(elementwise[..., i, :], -1)) for i in range(n)] \
            == [sum(x * y for x, y in zip(a[i], b[i])) for i in range(n)]
        row = ex.matvec(left[..., 0, :], right)
        assert [ex.to_int(row[..., j]) for j in range(n)] == want[0]
        assert ex.to_ints(ex.from_ints([0, top - 1, 0, 1])) == [0, top - 1, 0, 1]

    # a stack of vectors against a stack of matrices, either of them a stack of one
    @pytest.mark.parametrize("vectors, matrices", [(4, 4), (1, 4), (4, 1)])
    def test_matvec_on_stacks_alike_on_both_paths(self, monkeypatch, vectors, matrices):
        rng = random.Random(vectors * 10 + matrices)
        n, top = 6, 2 ** 12
        vecs = [[rng.randrange(top) for _ in range(n)] for _ in range(vectors)]
        mats = [random_matrix(rng, n, top) for _ in range(matrices)]
        want = [[sum(vecs[k % vectors][i] * mats[k % matrices][i][j] for i in range(n))
                 for j in range(n)] for k in range(max(vectors, matrices))]
        shapes = []
        for plain_limit in (2 ** 53, 2):
            monkeypatch.setattr(exact, "_PLAIN_LIMIT", plain_limit)
            ex = Exact(n * top ** 2, n, max(vectors, matrices))
            assert bool(ex.primes) == (plain_limit == 2)
            vec = ex.from_ints([x for row in vecs for x in row])
            vec = vec.reshape(vec.shape[:-1] + (vectors, n))
            flat = ex.from_ints([x for m in mats for row in m for x in row])
            got = ex.matvec(vec, flat.reshape(flat.shape[:-1] + (matrices, n, n)))
            shapes.append(got.shape[-2:])
            assert got.ndim == 2 + bool(ex.primes)
            assert [[ex.to_int(got[..., k, j]) for j in range(n)]
                    for k in range(len(want))] == want
        assert shapes == [(len(want), n)] * 2


class TestCellCap:
    def test_refused_before_allocation(self):
        # 1024^2 cells per matrix: 64 plain matrices fit, 65 do not
        Exact(2 ** 52, 1024, 64)
        with pytest.raises(CapabilityError, match="over the cap"):
            Exact(2 ** 52, 1024, 65)
        # past 2^53 every prime is one more layer of cells
        with pytest.raises(CapabilityError, match="3 residue layers"):
            Exact(2 ** 53, 1024, 22)

    @staticmethod
    def _declared_and_peak(monkeypatch, module, run):
        """The cells a kernel declares to Exact, and the peak bytes it
        allocates while it runs."""
        declared = []

        def spy(bound, n, matrices):
            ex = Exact(bound, n, matrices)
            declared.append(max(len(ex.primes), 1) * matrices * n * n)
            return ex

        monkeypatch.setattr(module, "Exact", spy)
        exact._primes(exact._WINDOW_PRIMES)  # the process-wide prime table is no kernel's working memory
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return max(declared), peak

    # the 3-cube keeps n products of n^2 cells, which outweigh the rest at n = 100
    # at n = 64 the cube's last conditioned vertex takes all 64 images at
    # once; K4 into 300 takes 2, the cube into 100 and 131 take 26 and 15
    @pytest.mark.parametrize("pattern, n", [(gen_cycle(16), 120), (gen_complete(4), 300),
                                            (gen_hypercube(3), 100), (gen_hypercube(3), 64),
                                            (gen_hypercube(3), 131)],
                             ids=["cycle-16-residues", "clique-4-conditioned",
                                  "cube-kept-products", "cube-full-chunk", "cube-chunked"])
    def test_elimination_holds_what_it_declares(self, monkeypatch, pattern, n):
        g = gen_random(n, Fraction(1, 2), 1)
        homcount._memoised_count.cache_clear()
        cells, peak = self._declared_and_peak(monkeypatch, homcount,
                                              lambda: hom_count(pattern, g))
        homcount._memoised_count.cache_clear()
        assert peak <= 8 * cells + SLACK

    def test_walk_engine_holds_what_it_declares(self, monkeypatch):
        g = gen_random(80, Fraction(1, 2), 1)
        col = greedy_proper_colouring(g, 1)

        def run():
            rainbow._last_sums.clear()
            cycle_weight_sum(g, 3)
            coincidence_table(g, col, 3)
            rainbow._last_sums.clear()

        cells, peak = self._declared_and_peak(monkeypatch, rainbow, run)
        assert peak <= 8 * cells + SLACK

    def test_walk_engine_one_colour_holds_what_it_declares(self, monkeypatch):
        # one colour class of K40 has 1560 oriented edges, more than the
        # 40 rows of the matrices the engine declares
        g = gen_complete(40)
        col = EdgeColouring({e: 0 for e in g.edges()})

        def run():
            rainbow._last_sums.clear()
            coincidence_table(g, col, 2)
            rainbow._last_sums.clear()

        cells, peak = self._declared_and_peak(monkeypatch, rainbow, run)
        assert peak <= 8 * cells + SLACK
