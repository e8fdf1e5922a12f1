import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from homreflect import (
    CapabilityError,
    EdgeColouring,
    GraphError,
    direction_colouring,
    edge_density,
    gen_clique_union,
    gen_complete,
    gen_cycle,
    gen_cycle_blowup,
    gen_hypercube,
    gen_random,
    gen_set_graph,
    greedy_proper_colouring,
    make_graph,
    rainbow_colouring,
    read_colouring,
    read_edge_list,
    validate_colouring,
    write_colouring,
    write_edge_list,
)
from homreflect.graphs import VERTEX_CAP

# Frozen by the naive generators/oracles before the build.
GOLDEN_RANDOM_30_HALF_42_EDGES = 235
H13_TO_C6_ISO = (0, 2, 4, 1, 5, 3)


def random_graph_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        return make_graph(n, picks)
    return build()


@st.composite
def permuted_edge_lists(draw):
    """A vertex count, an edge list, and the same edges in another order
    with some ends swapped.  Ids reach 63, so ids that share a hash slot
    in a small neighbour set occur."""
    n = draw(st.integers(min_value=2, max_value=64))
    ids = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: frozenset(e), max_size=80))
    shuffled = draw(st.permutations(edges))
    swaps = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, edges, [(v, u) if swap else (u, v) for (u, v), swap in zip(shuffled, swaps)]


class TestMakeGraph:
    def test_path_degrees(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert g.degrees() == [1, 2, 1]

    def test_duplicate_edge_collapsed(self):
        g = make_graph(2, [(0, 1), (1, 0)])
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            make_graph(4, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            make_graph(3, [(0, 3)])

    @pytest.mark.parametrize("build", [
        lambda: make_graph(VERTEX_CAP + 1, []),
        lambda: gen_complete(VERTEX_CAP + 1),
        lambda: gen_random(VERTEX_CAP + 1, Fraction(1, 2), 1),
        lambda: gen_cycle(VERTEX_CAP + 1),
        lambda: gen_clique_union(VERTEX_CAP // 2 + 1, 2),
        lambda: gen_cycle_blowup(VERTEX_CAP // 2 + 1),
        lambda: gen_hypercube(11),
        lambda: gen_set_graph(1, VERTEX_CAP // 2 + 1),
    ], ids=["make-graph", "clique", "random", "cycle", "clique-union", "cycle-blowup",
            "hypercube", "setgraph"])
    def test_vertex_cap(self, build):
        with pytest.raises(CapabilityError, match=f"capped at {VERTEX_CAP} vertices"):
            build()

    def test_vertex_cap_admits_its_own_size(self):
        assert gen_cycle(VERTEX_CAP).n == VERTEX_CAP

    @given(permuted_edge_lists(), st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_edge_order_ignores_input_order(self, tmp_path_factory, case, seed):
        """edges() is sorted whatever order make_graph read the edges in,
        and so are edge-list files and seeded colourings."""
        n, edges, permuted = case
        a, b = make_graph(n, edges), make_graph(n, permuted)
        assert list(a.edges()) == sorted(a.edges())
        assert a.edges() == b.edges()
        files = [tmp_path_factory.getbasetemp() / name for name in ("a.edges", "b.edges")]
        write_edge_list(a, files[0])
        write_edge_list(b, files[1])
        assert files[0].read_bytes() == files[1].read_bytes()
        assert greedy_proper_colouring(a, seed).colours == greedy_proper_colouring(b, seed).colours

    @given(random_graph_strategy())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_symmetric_loop_free(self, g):
        for u in range(g.n):
            assert u not in g.adj[u]
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestHypercube:
    def test_q3_shape(self):
        g = gen_hypercube(3)
        assert g.n == 8
        assert g.edge_count() == 12
        assert set(g.degrees()) == {3}

    def test_q1_is_single_edge(self):
        g = gen_hypercube(1)
        assert (g.n, g.edge_count()) == (2, 1)

    def test_q4_bipartition_halves(self):
        g = gen_hypercube(4)
        assert g.n == 16 and g.edge_count() == 32
        parts = g.bipartition()
        assert {len(parts[0]), len(parts[1])} == {8}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_regular_bipartite(self, d):
        g = gen_hypercube(d)
        assert set(g.degrees()) == {d}
        assert g.bipartition() is not None

    def test_dimension_range(self):
        with pytest.raises(GraphError):
            gen_hypercube(0)
        with pytest.raises(GraphError):
            gen_hypercube(21)


class TestSetGraph:
    def test_1_3_is_c6(self):
        g = gen_set_graph(1, 3)
        assert (g.n, g.edge_count()) == (6, 6)
        assert set(g.degrees()) == {2}
        assert bf.graphs_isomorphic(g, gen_cycle(6)) == H13_TO_C6_ISO

    def test_1_4(self):
        g = gen_set_graph(1, 4)
        parts = g.bipartition()
        assert {len(parts[0]), len(parts[1])} == {4}
        assert set(g.degrees()) == {3}
        assert g.edge_count() == 12

    def test_2_5(self):
        g = gen_set_graph(2, 5)
        parts = g.bipartition()
        assert {len(parts[0]), len(parts[1])} == {10}
        assert set(g.degrees()) == {3}
        # oracle recount of containment pairs
        count = sum(1 for i, s in enumerate(g.labels) if len(s) == 2
                    for t in g.labels if len(t) == 3 and s <= t)
        assert g.edge_count() == count

    def test_small_side_bound(self):
        with pytest.raises(GraphError):
            gen_set_graph(2, 4)


class TestRandom:
    def test_extreme_probabilities(self):
        assert gen_random(10, Fraction(0), 1).edge_count() == 0
        assert gen_random(10, Fraction(1), 1).edge_count() == 45

    def test_golden_edge_count(self):
        assert gen_random(30, Fraction(1, 2), 42).edge_count() == GOLDEN_RANDOM_30_HALF_42_EDGES

    def test_determinism_bit_for_bit(self):
        a = gen_random(25, Fraction(3, 7), 9)
        b = gen_random(25, Fraction(3, 7), 9)
        assert a.adj == b.adj

    def test_probability_range(self):
        with pytest.raises(GraphError):
            gen_random(5, Fraction(3, 2), 1)


def assert_same_graph(got, want):
    """Equal neighbour sets and equal edge lists."""
    assert got.n == want.n
    assert got.edges() == want.edges()
    assert got.adj == want.adj


class TestRandomMatchesPerPairDraws:
    """The bulk draws rebuild the graphs of one randrange(den) call per pair."""

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1)], ids=["p=0", "p=1"])
    def test_extreme_probabilities(self, p):
        assert_same_graph(gen_random(60, p, 7), bf.gen_random_per_pair(60, p, 7))

    @pytest.mark.parametrize("den", [
        3, 10, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 15, 10 ** 12, 2 ** 64 + 13,
    ], ids=["3", "10", "2^32-1", "2^32", "2^32+15", "10^12", "2^64+13"])
    def test_denominators(self, den):
        # num near den/2 makes about half the pairs edges, so that the
        # comparison with num reads every digit of a draw
        for num in (1, den // 2 + 1, den - 1):
            p = Fraction(num, den)
            for seed in (1, 2):
                assert_same_graph(gen_random(45, p, seed), bf.gen_random_per_pair(45, p, seed))

    @pytest.mark.parametrize("n", [0, 1, 2, 400, VERTEX_CAP])
    def test_vertex_counts(self, n):
        p = Fraction(1, 2)
        assert_same_graph(gen_random(n, p, 3), bf.gen_random_per_pair(n, p, 3))

    def test_cap_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError, match=f"capped at {VERTEX_CAP} vertices"):
                gen_random(VERTEX_CAP + 1, Fraction(1, 2), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one row of pair draws or of the n-by-n matrix would take 1025 bytes,
        # all of them over half a megabyte
        assert peak < 1 << 16

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 200, VERTEX_CAP])
    def test_complete_matches_make_graph(self, n):
        want = make_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))
        assert_same_graph(gen_complete(n), want)


class TestDensityAndPeel:
    def test_density_examples(self):
        assert edge_density(gen_complete(4)) == Fraction(3, 4)
        assert edge_density(make_graph(5, [])) == 0
        assert edge_density(gen_hypercube(3)) == Fraction(3, 8)

    def test_density_empty_graph_error(self):
        with pytest.raises(GraphError):
            edge_density(make_graph(0, []))


class TestColourings:
    def test_triangle_needs_three(self):
        col = greedy_proper_colouring(gen_complete(3), 1)
        assert len(set(col.colours.values())) == 3

    def test_star_needs_degree(self):
        star = make_graph(5, [(0, i) for i in range(1, 5)])
        col = greedy_proper_colouring(star, 3)
        assert len(set(col.colours.values())) == 4

    @given(random_graph_strategy(), st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=40, deadline=None)
    def test_greedy_proper_and_bounded(self, g, seed):
        col = greedy_proper_colouring(g, seed)
        validate_colouring(g, col)
        assert col.proper
        if g.edge_count():
            assert len(set(col.colours.values())) <= 2 * g.max_degree() - 1

    @pytest.mark.parametrize("spec", [(40, Fraction(1, 2), 1), (60, Fraction(1, 5), 2),
                                      (25, Fraction(9, 10), 3)])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_greedy_matches_set_reference(self, spec, seed):
        g = gen_random(*spec)
        assert greedy_proper_colouring(g, seed).colours == bf.greedy_colouring_by_sets(g, seed)

    def test_validated_once_per_graph_object(self, proper_checks):
        """A colouring passes for the graph it was made for and for any
        graph with the same edges; whether it is proper is worked out once
        per colouring object."""
        g = gen_complete(5)
        col = greedy_proper_colouring(g, 1)
        validate_colouring(g, col)
        assert proper_checks == []
        assert col.proper and col.proper
        validate_colouring(g, col)
        assert proper_checks == [10]
        # an equal graph object passes; another edge set fails
        validate_colouring(make_graph(5, g.edges()), col)
        with pytest.raises(GraphError, match="cover exactly"):
            validate_colouring(make_graph(5, g.edges()[1:]), col)
        # a colouring with the same colours is another object
        assert EdgeColouring(g, dict(col.colours)).proper
        assert proper_checks == [10, 10]

    def test_coverage_checked_in_full_once_per_host_object(self, coverage_checks, tmp_path):
        """Each colouring checks that it covers its graph when it is built,
        once; no use of it checks again, whatever graph it is used with."""
        g = gen_complete(6)
        col = greedy_proper_colouring(g, 1)
        assert coverage_checks == [6]
        twin = make_graph(6, g.edges())
        short = make_graph(6, g.edges()[1:])
        for _ in range(3):
            validate_colouring(g, col)
            validate_colouring(twin, col)
            with pytest.raises(GraphError, match="cover exactly"):
                validate_colouring(short, col)
        assert col.proper
        assert coverage_checks == [6]
        # each maker checks the colouring it makes, once
        path = tmp_path / "k6.colours"
        write_colouring(g, col, path)
        read = read_colouring(g, path)
        rainbow = rainbow_colouring(g)
        cube, direction = direction_colouring(3)
        assert coverage_checks == [6, 6, 6, 8]
        for h, made in ((g, read), (g, rainbow), (cube, direction)):
            validate_colouring(h, made)
        assert coverage_checks == [6, 6, 6, 8]

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_cover_refused_when_built(self, tmp_path, change):
        """A colouring that misses an edge of its graph, or colours a pair
        that is no edge, is refused when it is built; read from a file, the
        refusal names the file."""
        g = gen_cycle(5)
        colours = {e: i % 2 for i, e in enumerate(g.edges())}
        if change == "missing":
            del colours[(0, 1)]
        else:
            colours[(0, 2)] = 2
        with pytest.raises(GraphError, match="^colouring does not cover exactly the edge set$"):
            EdgeColouring(g, colours)
        path = tmp_path / "c.colours"
        path.write_text("".join(f"{u} {v} {c}\n" for (u, v), c in colours.items()))
        with pytest.raises(GraphError) as refused:
            read_colouring(g, path)
        assert str(refused.value) == f"{path}: colouring does not cover exactly the edge set"

    @pytest.mark.parametrize("seed", range(20))
    def test_proper_matches_adjacent_edge_oracle(self, seed):
        """On random hosts: a greedy colouring (proper), the same with one
        edge given the colour of an edge it meets (one conflict, at either
        end), and a random colouring with 2 to 6 colours."""
        rng = random.Random(seed)
        g = gen_random(4 + seed % 7, Fraction(rng.randrange(1, 5), 5), seed)
        greedy = greedy_proper_colouring(g, seed)
        colourings = [greedy,
                      EdgeColouring(g, {e: rng.randrange(2 + seed % 5) for e in g.edges()})]
        meeting = [(e, f) for e in g.edges() for f in g.edges() if e != f and set(e) & set(f)]
        if meeting:
            e, f = rng.choice(meeting)
            colourings.append(EdgeColouring(g, {**greedy.colours, e: greedy.colours[f]}))
            assert not colourings[-1].proper
        for col in colourings:
            assert col.proper == bf.colouring_is_proper(g, col)
        assert greedy.proper

    def test_equal_only_by_identity(self):
        g, col = direction_colouring(2)
        same = EdgeColouring(g, dict(col.colours))
        assert col == col and same != col
        assert len({col, same, col}) == 2

    def test_direction_colour_classes(self):
        g, col = direction_colouring(3)
        classes = {}
        for e, c in col.colours.items():
            classes.setdefault(c, []).append(e)
        assert sorted(len(v) for v in classes.values()) == [4, 4, 4]
        assert col.proper

    def test_direction_single_edge(self):
        g, col = direction_colouring(1)
        assert len(set(col.colours.values())) == 1

    @pytest.mark.parametrize("d", range(1, 11))
    def test_direction_valid(self, d):
        g, col = direction_colouring(d)
        validate_colouring(g, col)
        assert len(set(col.colours.values())) == d

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_direction_every_cycle_colour_doubled(self, d):
        g, col = direction_colouring(d)
        for cyc in bf.simple_cycles(g):
            counts = {}
            for t in range(len(cyc)):
                c = col.of(cyc[t], cyc[(t + 1) % len(cyc)])
                counts[c] = counts.get(c, 0) + 1
            assert all(v >= 2 for v in counts.values())
            if len(cyc) == 4:
                assert sorted(counts.values()) == [2, 2]


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path):
        g = gen_random(12, Fraction(2, 5), 4)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        again = read_edge_list(path)
        assert again.n == g.n and again.adj == g.adj

    def test_edge_list_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    @pytest.mark.parametrize("lines", ["0 1\n0 1\n", "0 1\n1 0\n"], ids=["same", "reversed"])
    def test_edge_listed_twice_refused(self, tmp_path, lines):
        """A repeated edge line, in either orientation, would make a graph
        of fewer edges than the header promises."""
        path = tmp_path / "dup.edges"
        path.write_text("2 2\n" + lines)
        with pytest.raises(GraphError, match=r"dup.edges: edge \(0, 1\) listed twice"):
            read_edge_list(path)

    def test_colouring_round_trip(self, tmp_path):
        g, col = direction_colouring(3)
        path = tmp_path / "c.colours"
        write_colouring(g, col, path)
        again = read_colouring(g, path)
        assert again.colours == col.colours
        assert again.proper

    def test_colouring_must_cover_edges(self, tmp_path):
        g = gen_cycle(4)
        path = tmp_path / "c.colours"
        path.write_text("0 1 0\n1 2 1\n")
        with pytest.raises(GraphError):
            read_colouring(g, path)
