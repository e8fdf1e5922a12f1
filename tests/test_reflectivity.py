import functools
import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from bruteforce import cube_vertex, set_graph_vertex
from test_automorphisms import decorated_c12, triples_over
from homreflect import (
    Automorphism,
    CapabilityError,
    CertificateStep,
    GraphError,
    ReflectionCertificate,
    ReflectionTriple,
    certificate_from_json,
    certificate_to_json,
    certify_pairs,
    certify_reflective,
    conjugate_certificate,
    enumerate_reflection_triples,
    gen_cycle,
    gen_cycle_blowup,
    gen_hypercube,
    gen_set_graph,
    hypercube_reflection_chain,
    is_admissible,
    make_graph,
    reflect_set,
    reflectivity_report,
    set_graph_reflection_chain,
    verify_certificate,
    verify_reflection_triple,
)
from homreflect import enumerate_automorphisms
from homreflect import reflectivity
from homreflect.cli import main
from homreflect.homcount import check_reflection_inequality
from homreflect.reflectivity import (
    _even_prefix_set,
    _even_prefix_trimmed,
    hypercube_growth_step,
)


def coord_swap_12(d):
    return Automorphism(tuple((v & ~3) | ((v & 1) << 1) | ((v >> 1) & 1)
                              for v in range(1 << d)))


def cube_set(*bits):
    return frozenset(cube_vertex(b) for b in bits)


class TestTripleValidation:
    def test_worked_cube_triple(self):
        q3 = gen_hypercube(3)
        ok, why = verify_reflection_triple(q3, cube_set("100", "101"),
                                           cube_set("010", "011"), coord_swap_12(3))
        assert ok and why is None

    def test_swapped_orientation_also_valid(self):
        q3 = gen_hypercube(3)
        ok, _ = verify_reflection_triple(q3, cube_set("010", "011"),
                                         cube_set("100", "101"), coord_swap_12(3))
        assert ok

    def test_mismatched_sides_rejected(self):
        q3 = gen_hypercube(3)
        ok, why = verify_reflection_triple(q3, cube_set("100", "101"),
                                           cube_set("010", "110"), coord_swap_12(3))
        assert not ok and why

    def test_non_automorphism_is_input_error(self):
        q3 = gen_hypercube(3)
        with pytest.raises(GraphError):
            verify_reflection_triple(q3, frozenset(), frozenset(),
                                     Automorphism(tuple([0] * 8)))


class TestTripleEnumeration:
    def test_single_edge_has_no_triple(self):
        # The swap of the two endpoints fixes nothing, so A and B would be
        # the two endpoints of an edge: the separation requirement fails and
        # no valid triple exists on a single edge.
        k2 = make_graph(2, [(0, 1)])
        assert enumerate_reflection_triples(k2) == []
        swap = Automorphism((1, 0))
        ok, why = verify_reflection_triple(k2, frozenset({0}), frozenset({1}), swap)
        assert not ok and "edge joins" in why

    def test_q3_coordinate_swap_orientations(self):
        q3 = gen_hypercube(3)
        swap = coord_swap_12(3)
        mine = [t for t in enumerate_reflection_triples(q3) if t.swap.perm == swap.perm]
        assert {(t.side_a, t.side_b) for t in mine} == {
            (cube_set("100", "101"), cube_set("010", "011")),
            (cube_set("010", "011"), cube_set("100", "101"))}

    def test_c6_reflection_components(self):
        c6 = gen_cycle(6)
        mirror = Automorphism((0, 5, 4, 3, 2, 1))
        mine = [t for t in enumerate_reflection_triples(c6) if t.swap.perm == mirror.perm]
        assert {(t.side_a, t.side_b) for t in mine} == {
            (frozenset({1, 2}), frozenset({4, 5})),
            (frozenset({4, 5}), frozenset({1, 2}))}

    def test_every_emitted_triple_valid(self):
        for g in (gen_hypercube(4), gen_set_graph(1, 4)):
            for t in enumerate_reflection_triples(g):
                ok, _ = verify_reflection_triple(g, t.side_a, t.side_b, t.swap)
                assert ok


class TestSelfCheck:
    """Each certificate the module makes is verified before it is returned;
    one that fails is a bug of its maker and raises AssertionError."""

    def test_search_and_chain(self, monkeypatch):
        monkeypatch.setattr(reflectivity, "verify_certificate", lambda h, cert: (False, ["x"]))
        with pytest.raises(AssertionError,
                           match=r"^search produced an invalid certificate: \['x'\]$"):
            certify_reflective(gen_hypercube(3), (0, 3))
        with pytest.raises(AssertionError, match=r"^explicit chain failed validation: \['x'\]$"):
            hypercube_reflection_chain(3, (0, 3))

    def test_mapped_certificate_from_the_wrong_start(self, monkeypatch):
        monkeypatch.setattr(reflectivity, "conjugate_certificate", lambda cert, sigma: cert)
        with pytest.raises(AssertionError, match=r"^mapped certificate for \(0, 5\) is invalid"):
            certify_pairs(gen_hypercube(3), [frozenset({0, 3, 5, 6})])


class TestChecksOnce:
    """The automorphism, involution and fixed-set checks run once per swap
    map, the side checks once per triple."""

    def test_each_involution_checked_once(self, monkeypatch):
        g = star(6)  # 75 involutions carry 330 triples
        checked = record_calls(monkeypatch, "is_automorphism", lambda h, perm: perm)
        triples = enumerate_reflection_triples(g)
        assert len(triples) == 330
        assert sorted(checked) == [a.perm for a in bf.involutions_unanchored(g)]

    def test_certify_pairs_checks_each_distinct_triple_once(self, monkeypatch):
        # the enumeration checks each triple; verifying the certificates'
        # steps, which repeat those triples, adds no check
        g = gen_cycle(24)
        swaps = record_calls(monkeypatch, "is_automorphism", lambda h, perm: perm)
        triples = enumerate_reflection_triples(g)
        assert reflectivity._triple_failure.cache_info().misses == len(triples) == 24
        results = certify_pairs(g, g.bipartition(), triples=triples)
        assert all(res.known_reflective for _, res in results)
        steps = [st.triple for _, res in results for st in res.certificate.steps]
        assert set(steps) <= set(triples) and len(set(steps)) < len(steps)
        assert reflectivity._triple_failure.cache_info().misses == len(triples)
        assert len(set(swaps)) == len(swaps) == len({t.swap for t in triples})


    def test_flipped_triple_built_once(self, monkeypatch):
        # the flip shares the swap map, which keeps the one fixed set
        t = enumerate_reflection_triples(gen_hypercube(3))[0]
        t = ReflectionTriple(t.side_a, t.side_b, Automorphism(t.swap.perm))  # a new swap map
        calls = count_fixed_sets(monkeypatch)
        flip = t.flipped()
        assert (flip.side_a, flip.side_b) == (t.side_b, t.side_a) and flip.swap is t.swap
        assert flip.flipped() == t and flip.flipped().swap is t.swap
        assert flip.fixed is t.fixed is t.swap.fixed
        assert t.fixed == frozenset(v for v, w in enumerate(t.swap.perm) if v == w)
        assert calls == [1]

    def test_section2_sweep_computes_fixed_sets_once_per_triple(self, monkeypatch, tmp_path):
        # the 200 swept sets flip triples; a swap map keeps its fixed set,
        # so each map object works it out once, however many triples and
        # flips share it
        reflectivity._swap_fixed_set.cache_clear()
        reflectivity._triple_failure.cache_clear()
        calls = count_fixed_sets(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["verify", "section2", "--pattern", "q3", "--host", "random(10,1/2,3)",
                     "--out", str(out)]) == 0
        assert calls == [23]


def count_fixed_sets(monkeypatch) -> list[int]:
    """Count the fixed sets Automorphism.fixed works out, in the
    one-element list returned: calls of its function, not reads."""
    calls = [0]
    real = Automorphism.fixed.func

    def wrapper(self):
        calls[0] += 1
        return real(self)

    counted = functools.cached_property(wrapper)
    counted.__set_name__(Automorphism, "fixed")
    monkeypatch.setattr(Automorphism, "fixed", counted)
    return calls


def record_calls(monkeypatch, name, key):
    """Wrap reflectivity.<name> to record key(*args) per call, with the
    memos of the triple checks emptied first."""
    reflectivity._swap_fixed_set.cache_clear()
    reflectivity._triple_failure.cache_clear()
    calls = []
    real = getattr(reflectivity, name)

    def wrapper(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(reflectivity, name, wrapper)
    return calls


class TestAdmissibilityAndReflection:
    def setup_method(self):
        self.q3 = gen_hypercube(3)
        self.worked = ReflectionTriple(cube_set("100", "101"),
                                       cube_set("010", "011"), coord_swap_12(3))

    def test_worked_example_admissible(self):
        assert is_admissible(self.q3, self.worked, cube_set("000", "011"))

    def test_subset_of_a_without_mirror_contact(self):
        t = self.worked
        assert not is_admissible(self.q3, t, cube_set("100"))

    def test_mixed_parity_not_admissible(self):
        assert not is_admissible(self.q3, self.worked, cube_set("000", "001"))

    def test_reflection_pinned_examples(self):
        flipped = self.worked.flipped()  # A = {010,011}
        got = reflect_set(self.q3, flipped, cube_set("000", "011"))
        assert got == cube_set("000", "011", "101")
        perm2 = []
        for v in range(8):
            x1, x2, x3 = v & 1, (v >> 1) & 1, (v >> 2) & 1
            perm2.append((1 - x2) | ((1 - x1) << 1) | (x3 << 2))
        second = ReflectionTriple(cube_set("000", "001"), cube_set("110", "111"),
                                  Automorphism(tuple(perm2)))
        got = reflect_set(self.q3, second, cube_set("000", "011", "101"))
        assert got == cube_set("000", "011", "101", "110")

    def test_fixed_sets_unchanged(self):
        got = reflect_set(self.q3, self.worked, cube_set("000", "110"))
        assert got == cube_set("000", "110")

    def test_inadmissible_raises(self):
        with pytest.raises(GraphError):
            reflect_set(self.q3, self.worked, cube_set("100"))

    def test_side_exchanging_triple_on_disconnected_pattern(self):
        # two disjoint edges: the swap map fixes no vertex and carries side
        # 0 = {0, 2} onto side 1 = {1, 3}, so a reflection leaves R's side
        h = make_graph(4, [(0, 1), (2, 3)])
        t = ReflectionTriple(frozenset({0, 1}), frozenset({2, 3}), Automorphism((3, 2, 1, 0)))
        assert verify_reflection_triple(h, t.side_a, t.side_b, t.swap) == (True, None)
        assert h.bipartition() == (frozenset({0, 2}), frozenset({1, 3}))
        assert reflect_set(h, t, {0, 2}) == frozenset({0, 3})
        assert reflect_set(h, t.flipped(), {0, 2}) == frozenset({1, 2})
        res = check_reflection_inequality(h, gen_cycle_blowup(3), t, {0, 2})
        assert res["holds"]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_side_preserving(self, data):
        g = data.draw(st.sampled_from([gen_hypercube(3), gen_hypercube(4), gen_cycle(6)]))
        triples = enumerate_reflection_triples(g)
        t = data.draw(st.sampled_from(triples))
        part = data.draw(st.sampled_from(g.bipartition()))
        small = data.draw(st.sets(st.sampled_from(sorted(part)), min_size=1))
        extra = data.draw(st.sets(st.sampled_from(sorted(part))))
        big = frozenset(small) | frozenset(extra)
        if not (is_admissible(g, t, small) and is_admissible(g, t, big)):
            return
        lo = reflect_set(g, t, small)
        hi = reflect_set(g, t, big)
        assert lo <= hi
        assert lo and lo <= part and hi <= part


class TestCertificateSearch:
    def test_q3_pair_reaches_side(self):
        q3 = gen_hypercube(3)
        res = certify_reflective(q3, cube_set("000", "011"))
        assert res.known_reflective
        assert res.certificate.side == frozenset(
            v for v in range(8) if bin(v).count("1") % 2 == 0)

    def test_full_part_needs_no_steps(self):
        k22 = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        res = certify_reflective(k22, {0, 1})
        assert res.certificate.num_steps == 0
        assert res.certificate.amplification_exponent == 1

    def test_c6_one_step(self):
        res = certify_reflective(gen_cycle(6), {0, 2})
        cert = res.certificate
        assert cert.num_steps == 1
        assert cert.start == frozenset({0, 2})
        assert cert.steps[0].r_next == frozenset({0, 2, 4})

    def test_mixed_parity_rejected(self):
        with pytest.raises(GraphError):
            certify_reflective(gen_hypercube(3), cube_set("000", "001", "110"))

    def test_budget_exhaustion_is_unknown(self):
        res = certify_reflective(gen_hypercube(4), frozenset({0, 3}), budget=1)
        assert res.certificate is None
        assert res.budget_exhausted

    def test_blowup_twin_pair_is_stuck(self):
        # The two copies of a blown-up vertex admit no growing reflection:
        # the search exhausts its whole state space and reports unknown.
        blow = gen_cycle_blowup(8)
        res = certify_reflective(blow, {0, 1})
        assert res.certificate is None
        assert not res.budget_exhausted

    def test_blowup_far_pair_certifies(self):
        # Same-side pairs from different blowup classes do certify (twin
        # swaps grow them), so the per-pair picture is mixed...
        blow = gen_cycle_blowup(8)
        res = certify_reflective(blow, {0, 4})
        assert res.known_reflective
        assert verify_certificate(blow, res.certificate)[0]

    def test_blowup_all_pairs_verdict_unknown(self):
        # ...and the whole-graph verdict therefore stays unknown.
        rep = reflectivity_report(gen_cycle_blowup(8))
        assert rep["verdict"] == "unknown"
        assert not rep["budget_exhausted"]

    def test_path_without_triples_is_unknown(self):
        # the 6-path's only involution reverses it and fixes nothing, so
        # there are no triples at all and the search exhausts immediately
        p6 = make_graph(6, [(i, i + 1) for i in range(5)])
        assert enumerate_reflection_triples(p6) == []
        res = certify_reflective(p6, {0, 2})
        assert res.certificate is None
        assert not res.budget_exhausted

    @pytest.mark.parametrize("d", [3, 4])
    def test_all_pairs_both_sides(self, d):
        rep = reflectivity_report(gen_hypercube(d))
        assert rep["verdict"] == "yes"
        assert rep["side_swap_symmetry"]

    def test_q5_sample_pairs(self):
        q5 = gen_hypercube(5)
        triples = enumerate_reflection_triples(q5)
        even = sorted(v for v in range(32) if bin(v).count("1") % 2 == 0)
        rng = random.Random(7)
        picks = [tuple(rng.sample(even, 2)) for _ in range(3)]
        picks.append((0, 30))  # a distance-4 pair
        for pair in picks:
            res = certify_reflective(q5, pair, triples=triples)
            assert res.known_reflective, pair

    def test_q5_every_pair_both_sides(self):
        q5 = gen_hypercube(5)
        rep = reflectivity_report(q5)
        assert rep["verdict"] == "yes"
        assert (rep["sides_checked"], len(rep["pairs"])) == (1, 120)
        for p in rep["pairs"]:
            cert = p["certificate"]
            assert sorted(cert.start) == p["start"]
            assert verify_certificate(q5, cert)[0], p["start"]

    def test_frozen_chain_lengths(self):
        # Shortest chain lengths recorded from the antichain-pruned search
        # that the plain breadth-first search replaced.
        q4 = reflectivity_report(gen_hypercube(4))
        assert Counter(p["steps"] for p in q4["pairs"]) == {4: 24, 5: 4}
        sg = reflectivity_report(gen_set_graph(1, 7))
        assert {p["steps"] for p in sg["pairs"]} == {5}
        q5 = gen_hypercube(5)
        triples = enumerate_reflection_triples(q5)
        for pair, steps in [((8, 25), 6), ((16, 31), 7)]:
            assert certify_reflective(q5, pair, triples=triples).certificate.num_steps == steps

    @pytest.mark.parametrize("h", [make_graph(3, [(0, 1), (1, 2), (0, 2)]),
                                   make_graph(4, [(0, 1), (2, 3)])],
                             ids=["triangle", "two-edges"])
    def test_one_gate_for_the_pattern(self, h):
        gate = "^the pattern must be a connected bipartite graph$"
        with pytest.raises(GraphError, match=gate):
            certify_reflective(h, {0})
        with pytest.raises(GraphError, match=gate):
            reflectivity_report(h)

    def test_empty_start_and_budget_below_one_are_input_errors(self):
        q3 = gen_hypercube(3)
        with pytest.raises(GraphError):
            certify_reflective(q3, set())
        for budget in (0, -5):
            with pytest.raises(GraphError):
                certify_reflective(q3, {0, 3}, budget=budget)


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("g,certified", [
        (gen_hypercube(3), 6),
        (gen_hypercube(4), 28),
        (gen_set_graph(1, 4), 6),
        (gen_cycle(8), 6),
        (gen_cycle_blowup(6), 12),
    ], ids=["q3", "q4", "setgraph-1-4", "cycle-8", "cycle-blowup-6"])
    def test_every_pair_matches_exhaustive_bfs(self, g, certified):
        # `certified` is the number of pairs per side that have a chain.
        triples = enumerate_reflection_triples(g)
        for side in g.bipartition():
            found = 0
            for r0 in combinations(sorted(side), 2):
                res = certify_reflective(g, r0, triples=triples)
                assert not res.budget_exhausted
                steps = res.certificate.num_steps if res.certificate else None
                assert steps == bf.shortest_chain_length(g, r0), r0
                found += res.known_reflective
            assert found == certified


ORACLE_GRAPHS = [gen_hypercube(3), gen_hypercube(4), gen_set_graph(1, 4), gen_cycle(8),
                 gen_cycle_blowup(6)]
ORACLE_IDS = ["q3", "q4", "setgraph-1-4", "cycle-8", "cycle-blowup-6"]


# Its one involution, (0 1)(4 5)(6 10)(8 9), carries no triple: under the
# triples' swap maps each start pair is an orbit of its own, while the
# involution joins pairs into 9 and 6 orbits on the two sides.
SPLIT_ORBITS = make_graph(11, [
    (0, 6), (0, 7), (0, 8), (0, 9), (1, 7), (1, 8), (1, 9), (1, 10), (2, 7), (2, 8), (2, 9),
    (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (4, 6), (4, 7), (4, 8), (5, 7), (5, 9), (5, 10)])


def pair_orbits(side, generators):
    """Number of orbits of the pairs of `side` under the group that
    `generators` generate."""
    seen, orbits = set(), 0
    for pair in combinations(sorted(side), 2):
        if frozenset(pair) not in seen:
            orbits += 1
            queue = [frozenset(pair)]
            seen.add(queue[0])
            for current in queue:
                for phi in generators:
                    image = phi.apply_set(current)
                    if image not in seen:
                        seen.add(image)
                        queue.append(image)
    return orbits


class TestOrbitReduction:
    """One search per orbit of start pairs, its certificate conjugated to
    the rest of the orbit."""

    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=ORACLE_IDS)
    def test_every_pair_matches_exhaustive_bfs(self, g):
        parts = g.bipartition()
        results = certify_pairs(g, parts)
        assert [r0 for r0, _ in results] == [
            r0 for side in parts for r0 in combinations(sorted(side), 2)]
        for r0, res in results:
            assert not res.budget_exhausted
            steps = res.certificate.num_steps if res.certificate else None
            assert steps == bf.shortest_chain_length(g, r0), r0
            if res.certificate:
                assert sorted(res.certificate.start) == list(r0)
                assert verify_certificate(g, res.certificate)[0]

    @pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=ORACLE_IDS)
    def test_report_steps_match_exhaustive_bfs(self, g):
        for p in reflectivity_report(g)["pairs"]:
            assert p["steps"] == bf.shortest_chain_length(g, p["start"]), p["start"]

    @pytest.mark.parametrize("g,pairs,orbits", [
        (gen_hypercube(4), 28, 2),
        (gen_cycle(24), 66, 6),
        (gen_set_graph(1, 7), 21, 1),
        (gen_hypercube(5), 120, 2),
    ], ids=["q4", "cycle-24", "setgraph-1-7", "q5"])
    def test_one_search_per_orbit(self, monkeypatch, g, pairs, orbits):
        calls = []
        search = reflectivity.certify_reflective

        def counted(h, r0, **kwargs):
            calls.append(tuple(r0))
            return search(h, r0, **kwargs)

        monkeypatch.setattr(reflectivity, "certify_reflective", counted)
        rep = reflectivity_report(g)
        assert (len(rep["pairs"]), len(calls)) == (pairs, orbits)
        if g.n <= 16:
            assert orbits == pair_orbits(g.bipartition()[0], enumerate_automorphisms(g))

    @pytest.mark.parametrize("g", ORACLE_GRAPHS + [SPLIT_ORBITS],
                             ids=ORACLE_IDS + ["split-orbits-11"])
    def test_every_pair_matches_a_direct_search(self, g):
        parts = g.bipartition()
        triples = enumerate_reflection_triples(g)
        for r0, res in certify_pairs(g, parts, triples=triples):
            direct = certify_reflective(g, r0, triples=triples)
            assert (res.known_reflective, res.certificate and res.certificate.num_steps) == \
                (direct.known_reflective, direct.certificate and direct.certificate.num_steps), r0

    def test_swap_maps_give_smaller_orbits_than_the_involutions(self, monkeypatch):
        g = SPLIT_ORBITS
        parts = g.bipartition()
        swaps = {t.swap for t in enumerate_reflection_triples(g)}
        involutions = bf.involutions_unanchored(g)
        assert [pair_orbits(side, involutions) for side in parts] == [9, 6]
        assert [pair_orbits(side, swaps) for side in parts] == [15, 10]
        calls = []
        search = reflectivity.certify_reflective

        def counted(h, r0, **kwargs):
            calls.append(tuple(r0))
            return search(h, r0, **kwargs)

        monkeypatch.setattr(reflectivity, "certify_reflective", counted)
        results = certify_pairs(g, parts)
        assert len(calls) == len(results) == 25

    def test_exhausted_budget_marks_the_whole_orbit(self):
        rep = reflectivity_report(gen_hypercube(4), budget=1)
        assert rep["verdict"] == "unknown" and rep["budget_exhausted"]
        assert not any(p["certified"] for p in rep["pairs"])
        assert len({p["states"] for p in rep["pairs"]}) == 1

    def test_side_swap_needs_more_than_involutions(self):
        # The only involution keeps the sides; the rotation by 3 swaps them.
        g = decorated_c12()
        sides = g.bipartition()
        assert all(a.apply_set(sides[0]) == sides[0] for a in bf.involutions_unanchored(g))
        rep = reflectivity_report(g)
        assert rep["side_swap_symmetry"] and rep["sides_checked"] == 1
        assert len(rep["pairs"]) == 66

    def test_no_side_swap_checks_both_sides(self):
        # A 6-cycle with one pendant vertex: the sides have 4 and 3 vertices.
        g = make_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
        rep = reflectivity_report(g)
        assert not rep["side_swap_symmetry"] and rep["sides_checked"] == 2


class TestCertificateVerification:
    def test_search_output_verifies(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        ok, report = verify_certificate(q3, cert)
        assert ok
        assert "exponent" in report[-1]

    def test_step_off_the_side_is_reported_not_raised(self):
        # Two disjoint edges: the swap of the edges exchanges the sides, so
        # the one step leaves the side of its start.
        g = make_graph(4, [(0, 1), (2, 3)])
        step = CertificateStep(ReflectionTriple(frozenset({0, 1}), frozenset({2, 3}),
                                                Automorphism((3, 2, 1, 0))), frozenset({0, 3}))
        ok, report = verify_certificate(
            g, ReflectionCertificate(frozenset({0, 2}), frozenset({0, 2}), (step,)))
        assert not ok and report[-1] == "final set is not the full side"

    def test_wrong_final_side_detected(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        truncated = ReflectionCertificate(cert.start, cert.side, cert.steps[:-1])
        ok, report = verify_certificate(q3, truncated)
        assert not ok
        assert "full side" in report[-1]

    def test_tampered_step_detected_with_index(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        bad_step = CertificateStep(cert.steps[0].triple,
                                   cert.steps[0].r_next | cube_set("110"))
        bad = ReflectionCertificate(cert.start, cert.side,
                                    (bad_step,) + cert.steps[1:])
        ok, report = verify_certificate(q3, bad)
        assert not ok
        assert "step 0" in report[-1]

    def test_json_round_trip(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        text = certificate_to_json(cert)
        data = json.loads(text)
        assert set(data) == {"start", "side", "steps"}
        assert set(data["steps"][0]) == {"A", "B", "phi", "R_next"}
        again = certificate_from_json(q3, text)
        assert again == cert

    def test_compact_layout_one_step_per_line(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        lines = certificate_to_json(cert).splitlines()
        assert len(lines) == cert.num_steps + 2
        assert lines[0] == '{"start": [0, 6], "side": [0, 3, 5, 6], "steps": ['
        assert lines[-1] == "]}"
        assert json.loads(lines[1].rstrip(","))["R_next"] == sorted(cert.steps[0].r_next)

    def test_zero_steps_round_trip(self):
        k22 = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        cert = certify_reflective(k22, {0, 1}).certificate
        text = certificate_to_json(cert)
        assert text == '{"start": [0, 1], "side": [0, 1], "steps": []}'
        assert certificate_from_json(k22, text) == cert

    def test_indented_file_still_read(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        indented = json.dumps(json.loads(certificate_to_json(cert)), indent=2, sort_keys=True)
        assert certificate_from_json(q3, indented) == cert

    def test_malformed_json_rejected(self):
        with pytest.raises(GraphError):
            certificate_from_json(gen_hypercube(3), "{\"start\": [0]}")

    @pytest.mark.parametrize("field,value", [
        ("start", [0, 8]), ("side", [0, "3"]), ("A", [True]), ("R_next", 5),
        ("phi", [0, 1, 2]), ("phi", [0, 1, 2, 3, 4, 5, 6, 9]),
    ])
    def test_values_outside_the_graph_rejected(self, field, value):
        q3 = gen_hypercube(3)
        data = json.loads(certificate_to_json(
            certify_reflective(q3, cube_set("000", "011")).certificate))
        (data if field in data else data["steps"][0])[field] = value
        with pytest.raises(GraphError, match="malformed certificate"):
            certificate_from_json(q3, json.dumps(data))

    def test_non_automorphism_step_named_in_error(self):
        q3 = gen_hypercube(3)
        cert = certify_reflective(q3, cube_set("000", "011")).certificate
        mangled = Automorphism((1, 0, 2, 3, 4, 5, 6, 7))  # not adjacency-preserving
        bad = ReflectionCertificate(
            cert.start, cert.side,
            (CertificateStep(ReflectionTriple(cert.steps[0].triple.side_a,
                                              cert.steps[0].triple.side_b, mangled),
                             cert.steps[0].r_next),) + cert.steps[1:])
        with pytest.raises(GraphError, match="step 0"):
            verify_certificate(q3, bad)


class TestHypercubeChain:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_growth_identities_recomputed(self, d):
        g = gen_hypercube(d)
        for k in range(2, d):
            grow, finish = hypercube_growth_step(d, k)
            s_k = _even_prefix_set(d, k)
            t_k = _even_prefix_trimmed(d, k)
            assert reflect_set(g, grow, s_k) == t_k
            assert reflect_set(g, finish, t_k) == _even_prefix_set(d, k + 1)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_canonical_pair_chain(self, d):
        g = gen_hypercube(d)
        cert = hypercube_reflection_chain(d, frozenset({0, 3}))
        assert verify_certificate(g, cert)[0]
        assert cert.num_steps == 2 * (d - 2)

    def test_distance_two_relabelled(self):
        cert = hypercube_reflection_chain(3, cube_set("000", "011"))
        assert verify_certificate(gen_hypercube(3), cert)[0]

    def test_far_pair_gets_normalisation_step(self):
        # distance-4 but not antipodal, so the coordinate-swap normalisation
        # runs first; only possible from dimension 5 up
        cert = hypercube_reflection_chain(5, cube_set("00000", "11110"))
        assert cert.num_steps == 2 * 3 + 1
        assert verify_certificate(gen_hypercube(5), cert)[0]

    @pytest.mark.parametrize("d", [4, 6])
    def test_antipodal_pair(self, d):
        cert = hypercube_reflection_chain(d, frozenset({0, (1 << d) - 1}))
        assert verify_certificate(gen_hypercube(d), cert)[0]

    def test_odd_side_pairs(self):
        cert = hypercube_reflection_chain(3, cube_set("100", "111"))
        assert verify_certificate(gen_hypercube(3), cert)[0]
        assert cert.side == frozenset(v for v in range(8) if bin(v).count("1") % 2 == 1)

    def test_mixed_parity_error(self):
        with pytest.raises(GraphError):
            hypercube_reflection_chain(3, cube_set("000", "111"))

    def test_every_even_pair_q4(self):
        g = gen_hypercube(4)
        evens = sorted(v for v in range(16) if bin(v).count("1") % 2 == 0)
        for pair in combinations(evens, 2):
            cert = hypercube_reflection_chain(4, frozenset(pair))
            assert verify_certificate(g, cert)[0], pair


class TestSetGraphChain:
    @pytest.mark.parametrize("ell,k", [(1, 3), (1, 4), (1, 5), (2, 5)])
    def test_adjacent_pair_chain(self, ell, k):
        g = gen_set_graph(ell, k)
        if ell == 1:
            r0 = {set_graph_vertex(g, {1}), set_graph_vertex(g, {2})}
        else:
            r0 = {set_graph_vertex(g, {1, 2}), set_graph_vertex(g, {1, 3})}
        cert = set_graph_reflection_chain(ell, k, r0)
        assert verify_certificate(g, cert)[0]

    def test_expected_length_1_4(self):
        g = gen_set_graph(1, 4)
        r0 = {set_graph_vertex(g, {2}), set_graph_vertex(g, {4})}
        cert = set_graph_reflection_chain(1, 4, r0)
        assert cert.num_steps == 2  # swaps (1 3), (1 4); (1 2) fixes the canonical pair

    def test_far_pair_normalised_2_5(self):
        g = gen_set_graph(2, 5)
        r0 = {set_graph_vertex(g, {1, 2}), set_graph_vertex(g, {3, 4})}
        cert = set_graph_reflection_chain(2, 5, r0)
        assert cert.num_steps == 6  # one normalisation + 7 scheduled swaps, 2 of them no-ops
        assert verify_certificate(g, cert)[0]

    def test_every_pair_2_5(self):
        g = gen_set_graph(2, 5)
        small = [v for v, lab in enumerate(g.labels) if len(lab) == 2]
        for pair in combinations(small, 2):
            cert = set_graph_reflection_chain(2, 5, frozenset(pair))
            assert verify_certificate(g, cert)[0], pair

    def test_1_3_cross_checked_against_c6(self):
        g = gen_set_graph(1, 3)
        c6 = gen_cycle(6)
        iso = bf.graphs_isomorphic(g, c6)
        assert iso is not None
        r0 = {set_graph_vertex(g, {1}), set_graph_vertex(g, {2})}
        cert = set_graph_reflection_chain(1, 3, r0)
        moved = conjugate_certificate(cert, Automorphism(iso))
        # the transported certificate must verify on the 6-cycle itself
        assert verify_certificate(c6, moved)[0]

    def test_invalid_shape_refused(self):
        # the builder takes every shape gen_set_graph takes, which needs 2*ell < k
        with pytest.raises(GraphError, match="ell < k/2"):
            set_graph_reflection_chain(2, 4, {0, 1})

    def test_search_agrees_these_graphs_are_reflective(self):
        for ell, k in [(1, 3), (1, 4)]:
            rep = reflectivity_report(gen_set_graph(ell, k))
            assert rep["verdict"] == "yes"


class TestExplicitReach:
    """Both builders run for every cube and set graph under the vertex cap;
    each certificate is verified inside the builder and again here."""

    def test_q2_every_pair(self):
        g = gen_hypercube(2)
        for side in g.bipartition():
            cert = hypercube_reflection_chain(2, side)
            assert cert.num_steps == 0 and verify_certificate(g, cert)[0]

    @pytest.mark.parametrize("d", [7, 8])
    def test_every_distance(self, d):
        g = gen_hypercube(d)
        for dist in range(2, d + 1, 2):
            for u in (0, 1 << (d - 1)):  # one start on each side
                cert = hypercube_reflection_chain(d, {u, u ^ ((1 << dist) - 1)})
                assert verify_certificate(g, cert)[0], (dist, u)
                assert cert.num_steps == 2 * (d - 2) + (dist > 2)

    @pytest.mark.parametrize("ell,k", [(1, 6), (2, 7), (3, 7), (2, 9)])
    def test_set_graph_shapes(self, ell, k):
        # the schedule's sum(k - i, i = 1..ell) swaps less those that leave
        # the set unchanged, plus one normalisation step for a far pair
        near_steps, far_steps = {(1, 6): (4, 4), (2, 7): (9, 10), (3, 7): (11, 12),
                                 (2, 9): (13, 14)}[ell, k]
        g = gen_set_graph(ell, k)
        near = {set_graph_vertex(g, range(1, ell + 1)),
                set_graph_vertex(g, list(range(1, ell)) + [k])}
        far = {set_graph_vertex(g, range(1, ell + 1)),
               set_graph_vertex(g, range(k - ell + 1, k + 1))}
        for r0, steps in ((near, near_steps), (far, far_steps)):
            cert = set_graph_reflection_chain(ell, k, r0)
            assert verify_certificate(g, cert)[0]
            assert cert.num_steps == steps

    def test_chains_frozen(self):
        # sha256 of certificate_to_json over every pair, one chain per line:
        # Q4's recorded before the builders were rebuilt on one skeleton,
        # H_{2,5}'s once the steps that change nothing were left out
        q4 = gen_hypercube(4)
        text = "\n".join(certificate_to_json(hypercube_reflection_chain(4, pair))
                         for side in q4.bipartition()
                         for pair in combinations(sorted(side), 2))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "508a717b677952a848ac126c7c26563440d52b9a1c7eb53f972de142f2958298"
        g = gen_set_graph(2, 5)
        small = [v for v, lab in enumerate(g.labels) if len(lab) == 2]
        text = "\n".join(certificate_to_json(set_graph_reflection_chain(2, 5, pair))
                         for pair in combinations(small, 2))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "607317b7aea729282f1ac39bddff7caae65cffd3a09c97ca4eb928b20c4e9710"

    def test_no_step_leaves_its_set_unchanged(self):
        # every pair of Q3-Q5 and of the set graphs with at most 10 small
        # vertices; on Q6 and the larger set graphs every pair through one
        # vertex (for the cube, one per side), which meets every case of
        # the builders' normalisation
        def pairs(side, through=None):
            return [p for p in combinations(sorted(side), 2) if through in (None, p[0])]

        chains = [hypercube_reflection_chain(d, pair) for d in (3, 4, 5, 6)
                  for side in gen_hypercube(d).bipartition()
                  for pair in pairs(side, min(side) if d == 6 else None)]
        for ell, k in [(1, 4), (2, 5), (1, 6), (2, 7), (3, 7), (2, 9)]:
            g = gen_set_graph(ell, k)
            small = [v for v, lab in enumerate(g.labels) if len(lab) == ell]
            chains += [set_graph_reflection_chain(ell, k, pair)
                       for pair in pairs(small, small[0] if len(small) > 10 else None)]
        for cert in chains:
            sets = [cert.start] + [step.r_next for step in cert.steps]
            assert all(a != b for a, b in zip(sets, sets[1:])), certificate_to_json(cert)

    @pytest.mark.parametrize("build,r0", [
        (lambda r0: hypercube_reflection_chain(3, r0), {0, 99}),
        (lambda r0: hypercube_reflection_chain(3, r0), {0, -3}),
        (lambda r0: set_graph_reflection_chain(1, 3, r0), {0, 99}),
        (lambda r0: set_graph_reflection_chain(1, 3, r0), {0, 1, 2}),
    ])
    def test_start_not_a_pair_of_vertices(self, build, r0):
        with pytest.raises(GraphError, match="two vertices of the graph"):
            build(r0)


def comb_graph():
    """Path b0-a0-b1-...-a9-b10 with one leaf on each b_i: a_i = i, the leaf
    of b_i is 10 + i, b_i = 21 + i.  Sides of 21 and 11 vertices."""
    edges = ([(i, 21 + i) for i in range(10)] + [(i, 22 + i) for i in range(10)]
             + [(10 + i, 21 + i) for i in range(11)])
    return make_graph(32, edges)


class TestLargeSides:
    def test_side_over_twenty_searched(self):
        g = comb_graph()
        assert sorted(len(p) for p in g.bipartition()) == [11, 21]
        res = certify_reflective(g, {11, 12})
        assert (res.certificate, res.states_visited, res.budget_exhausted) == (None, 1, False)


def star(k):
    return make_graph(k + 1, [(0, leaf) for leaf in range(1, k + 1)])


def search_outcome(res):
    return (res.states_visited, res.budget_exhausted,
            certificate_to_json(res.certificate) if res.certificate else None)


def loop_at_budget(full, budget):
    """The per-state loop's outcome under `budget`, from its unbudgeted one:
    the loop takes states off the queue in an order that does not depend on
    the budget, and stops when it takes the (budget + 1)-th."""
    return full if full[0] <= budget else (budget + 1, True, None)


LOOP_GRAPHS = {
    "q3": gen_hypercube(3), "q4": gen_hypercube(4), "setgraph-1-4": gen_set_graph(1, 4),
    "setgraph-1-7": gen_set_graph(1, 7), "setgraph-2-5": gen_set_graph(2, 5),
    "cycle-8": gen_cycle(8), "cycle-24": gen_cycle(24), "cycle-blowup-6": gen_cycle_blowup(6),
    "cycle-blowup-8": gen_cycle_blowup(8), "star-6": star(6),
}
BUDGETS = (reflectivity.DEFAULT_BUDGET, 1, 2, 3, 5, 8, 13, 50, 200)


@functools.cache
def loop_triples(name):
    return enumerate_reflection_triples(LOOP_GRAPHS[name])


def assert_matches_loop(g, pairs, triples=None):
    if triples is None:
        triples = enumerate_reflection_triples(g)
    for pair in pairs:
        full = search_outcome(bf.certify_reflective_loop(g, pair, triples=triples))
        for budget in BUDGETS:
            res = certify_reflective(g, pair, budget, triples)
            assert search_outcome(res) == loop_at_budget(full, budget), (pair, budget)


class TestLayeredSearch:
    """The layer-at-a-time search against the per-state loop it replaced
    (`bruteforce.certify_reflective_loop`): equal states_visited, budget
    exhaustion and certificate text."""

    @pytest.mark.parametrize("name", LOOP_GRAPHS)
    def test_every_pair_matches_loop(self, name):
        g = LOOP_GRAPHS[name]
        assert_matches_loop(g, [pair for side in g.bipartition()
                                for pair in combinations(sorted(side), 2)], loop_triples(name))

    def test_q5_pairs_match_loop(self):
        assert_matches_loop(gen_hypercube(5), [(8, 25), (16, 31), (0, 3), (0, 15), (0, 30)])

    def test_side_of_64_matches_loop(self):
        # a side of 64 vertices fills the state word; the involutions are
        # the 64 reflections of the cycle through vertices
        assert_matches_loop(gen_cycle(128), [(0, 2)], cycle_reflection_triples(128))

    def test_q7_side_matches_loop(self):
        # Q7's sides have 64 vertices; its explicit chain's triples suffice
        triples = sorted({st.triple for st in hypercube_reflection_chain(7, (0, 3)).steps},
                         key=ReflectionTriple.sort_key)
        res = certify_reflective(gen_hypercube(7), (0, 3), triples=triples)
        assert (res.states_visited, res.certificate.num_steps) == (11138, 10)
        assert_matches_loop(gen_hypercube(7), [(0, 3)], triples)

    def test_side_over_64_is_refused(self):
        with pytest.raises(CapabilityError, match="65 vertices, over the limit of 64"):
            certify_reflective(gen_cycle(130), (0, 2), triples=cycle_reflection_triples(130))

    @given(name=st.sampled_from(sorted(LOOP_GRAPHS)), budget=st.integers(1, 50),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_budgets_match_loop(self, name, budget, data):
        g = LOOP_GRAPHS[name]
        side = sorted(data.draw(st.sampled_from([s for s in g.bipartition() if len(s) > 1])))
        pair = data.draw(st.lists(st.sampled_from(side), min_size=2, max_size=2, unique=True))
        triples = loop_triples(name)
        assert search_outcome(certify_reflective(g, pair, budget, triples)) == \
            search_outcome(bf.certify_reflective_loop(g, pair, budget, triples))

    @pytest.mark.parametrize("cells", [
        lambda triples: triples,           # one state per chunk
        lambda triples: 3 * triples,       # layers split into chunks of three states
    ], ids=["one-state", "three-states"])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, cells):
        q4, q5 = gen_hypercube(4), gen_hypercube(5)
        cases = [(q4, pair) for side in q4.bipartition()
                 for pair in combinations(sorted(side), 2)] + [(q5, (8, 25))]
        assert_cap_changes_nothing(monkeypatch, cells, cases)

    def test_triple_slices_change_nothing(self, monkeypatch):
        # a row of triples over the cap is taken whole, as on K_{1,9}
        q4 = gen_hypercube(4)
        cases = [(q4, pair) for side in q4.bipartition() for pair in combinations(sorted(side), 2)
                 if min(side) in pair]
        assert_cap_changes_nothing(monkeypatch, lambda triples: triples // 3, cases)


def cycle_reflection_triples(n):
    """The triples of the n/2 reflections of the n-cycle through vertices."""
    reflections = [Automorphism(tuple((2 * a - v) % n for v in range(n))) for a in range(n // 2)]
    return triples_over(gen_cycle(n), reflections)


def assert_cap_changes_nothing(monkeypatch, cells, cases):
    """Outcomes under the cap `cells(number of triples)` equal those under
    the default cap; each search builds its arrays, so their digit tables
    follow the cap too."""
    triples = {g.n: enumerate_reflection_triples(g) for g, _ in cases}
    expected = [search_outcome(certify_reflective(g, pair, triples=triples[g.n]))
                for g, pair in cases]
    got = []
    for g, pair in cases:
        monkeypatch.setattr(reflectivity, "_CHUNK_WORDS", cells(len(triples[g.n])))
        got.append(search_outcome(certify_reflective(g, pair, triples=triples[g.n])))
    assert got == expected
