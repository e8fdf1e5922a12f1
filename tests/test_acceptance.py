"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 checks 3-cube supersaturation at density 7/10.  At host size 40
it asserts the 0.1-benchmark threshold and that every trial's non-injective
share lies within 0.03 of its exact G(n, p) expectation (0.534, from the
partition oracle in ``bruteforce``).  The sub-50% clause is asserted at host
size 64 on the same seeds, where the expectation is 0.372, together with
the fall of every share from n=40 to n=64; notes/decisions.md explains why
the clause cannot hold at n=40 and why 64 was chosen.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import bruteforce as bf
from bruteforce import set_graph_vertex
from homreflect import (
    Automorphism,
    certify_reflective,
    check_final_inequality,
    check_pattern_chain,
    check_variant_chain,
    coincidence_table,
    conjugate_certificate,
    count_cube_homomorphisms,
    cycle_weight_sum,
    cycle_weight_sum_spectral,
    direction_colouring,
    enumerate_reflection_triples,
    find_almost_rainbow,
    find_rainbow_cycle,
    gen_clique_union,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random,
    gen_set_graph,
    greedy_proper_colouring,
    hom_count,
    hypercube_reflection_chain,
    is_admissible,
    is_rainbow_cycle,
    rainbow_colouring,
    reflect_set,
    reflectivity_report,
    set_graph_reflection_chain,
    sidorenko_check,
    supersaturation_experiment,
    turan_exponent,
    verify_certificate,
)
from homreflect.cli import main as cli_main
from homreflect.reflectivity import (_even_prefix_set, _even_prefix_trimmed,
                                     hypercube_growth_step)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {state}{suffix}")


def host_with_min_degree(n, p, seed):
    g = gen_random(n, p, seed)
    bump = seed
    while g.min_degree() == 0:
        bump += 10 ** 6
        g = gen_random(n, p, bump)
    return g


def test_criterion_1_exponent_arithmetic():
    started = time.monotonic()
    ok = turan_exponent(8, 12, 4) == Fraction(13, 8)
    for d in range(3, 11):
        half = 1 << (d - 1)   # the d-cube: 2^d vertices, d 2^(d-1) edges, 2^(d-1) a side
        closed = 2 - Fraction(1, d - 1) + Fraction(1, (d - 1) * half)
        ok &= turan_exponent(2 * half, d * half, half) == closed
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    report(1, "exponent arithmetic", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_2_reflectivity():
    started = time.monotonic()
    ok = True
    for d in (3, 4):
        ok &= reflectivity_report(gen_hypercube(d))["verdict"] == "yes"
    search_elapsed = time.monotonic() - started
    ok &= search_elapsed < 60.0

    # explicit growth identities, recomputed through the reflection map
    for d in range(3, 7):
        g = gen_hypercube(d)
        for k in range(2, d):
            grow, finish = hypercube_growth_step(d, k)
            ok &= reflect_set(g, grow, _even_prefix_set(d, k)) == _even_prefix_trimmed(d, k)
            ok &= reflect_set(g, finish, _even_prefix_trimmed(d, k)) == _even_prefix_set(d, k + 1)
        cert = hypercube_reflection_chain(d, frozenset({0, 3}))
        ok &= verify_certificate(g, cert)[0]

    for ell, k in ((1, 3), (1, 4), (2, 5)):
        g = gen_set_graph(ell, k)
        first = {set_graph_vertex(g, {1}), set_graph_vertex(g, {2})} if ell == 1 \
            else {set_graph_vertex(g, {1, 2}), set_graph_vertex(g, {1, 3})}
        cert = set_graph_reflection_chain(ell, k, first)
        ok &= verify_certificate(g, cert)[0]

    g13 = gen_set_graph(1, 3)
    c6 = gen_cycle(6)
    iso = bf.graphs_isomorphic(g13, c6)
    cert = set_graph_reflection_chain(
        1, 3, {set_graph_vertex(g13, {1}), set_graph_vertex(g13, {2})})
    ok &= verify_certificate(c6, conjugate_certificate(cert, Automorphism(iso)))[0]
    report(2, "reflectivity certificates", ok,
           f"searches {search_elapsed:.1f}s")
    assert ok


def test_criterion_3_reflection_inequality_suite():
    started = time.monotonic()
    q3 = gen_hypercube(3)
    triples = enumerate_reflection_triples(q3)
    parts = q3.bipartition()
    candidates = [frozenset(c) for part in parts
                  for size in range(1, 5)
                  for c in combinations(sorted(part), size)]
    admissible = {t: [r for r in candidates if is_admissible(q3, t, r)]
                  for t in triples}
    rng = random.Random(20240)
    instances = 0
    violations = 0
    hosts = 50
    per_host = 20
    for hi in range(hosts):
        n = 8 + (hi % 5)
        g = gen_random(n, Fraction(1, 2), 3000 + hi)
        for _ in range(per_host):
            t = rng.choice(triples)
            r = rng.choice(admissible[t])
            r_ab = reflect_set(q3, t, r)
            r_ba = reflect_set(q3, t.flipped(), r)
            c_r, c_ab, c_ba, c_all = (hom_count(q3, g, r), hom_count(q3, g, r_ab),
                                      hom_count(q3, g, r_ba), hom_count(q3, g))
            instances += 1
            if c_r * c_r > c_ab * c_ba or c_r * c_r > c_ab * c_all:
                violations += 1

    cert_hosts = 0
    cert_violations = 0
    evens = sorted(v for v in range(8) if bin(v).count("1") % 2 == 0)
    pair_cycle = list(combinations(evens, 2))
    for hi in range(100):
        n = 8 + (hi % 3)
        g = gen_random(n, Fraction(1, 2), 7000 + hi)
        r0 = pair_cycle[hi % len(pair_cycle)]
        cert = certify_reflective(q3, r0).certificate
        res = check_final_inequality(q3, g, cert)
        cert_hosts += 1
        if not res["holds"]:
            cert_violations += 1
    elapsed = time.monotonic() - started
    ok = (instances >= 1000 and violations == 0
          and cert_hosts >= 100 and cert_violations == 0 and elapsed < 600)
    report(3, "reflection inequality suite", ok,
           f"{instances} step instances, {cert_hosts} amplified hosts, "
           f"{violations + cert_violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_4_density_lower_bound():
    started = time.monotonic()
    q3 = gen_hypercube(3)
    violations = 0
    for i in range(100):
        n = 20 + (i % 21)
        p = Fraction(3 + (i % 5), 10)
        g = gen_random(n, p, 11000 + i)
        if not sidorenko_check(q3, g)["holds"]:
            violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 300
    report(4, "homomorphism density lower bound", ok,
           f"100 hosts, {violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_5_supersaturation_desk_check():
    started = time.monotonic()
    p = Fraction(7, 10)
    rep = supersaturation_experiment(40, p, seed=1, trials=5)
    elapsed = time.monotonic() - started
    threshold_ok = rep["all_meet_threshold"]
    fractions = [row["noninjective_fraction"] for row in rep["trials"]]
    q3 = gen_hypercube(3)
    hom_mean, inj_mean = bf.expected_hom_and_injective(q3, 40, p)
    expected = float(1 - inj_mean / hom_mean)
    expected_ok = all(abs(f - expected) <= 0.03 for f in fractions)

    large = []
    for row in rep["trials"]:
        hom, inj = count_cube_homomorphisms(gen_random(64, p, row["seed"]))
        large.append((hom - inj) / hom)
    large_ok = all(f < 0.5 for f in large)
    decline_ok = max(large) < min(fractions)
    ok = threshold_ok and expected_ok and large_ok and decline_ok and elapsed < 600
    report(5, "supersaturation desk check", ok,
           f"min ratio {rep['min_ratio']:.3f}, noninjective fractions "
           f"{min(fractions):.3f}..{max(fractions):.3f} at n=40 "
           f"(expected {expected:.3f}), {min(large):.3f}..{max(large):.3f} "
           f"at n=64, {elapsed:.1f}s")
    assert threshold_ok, "injective counts fell below the 0.1 benchmark share"
    assert expected_ok, (
        f"non-injective shares {fractions} at n=40, p=7/10 stray more than "
        f"0.03 from the exact G(n,p) expectation {expected:.4f} "
        "(see notes/decisions.md)")
    assert large_ok, (
        f"non-injective shares {large} at n=64, p=7/10 are not all below "
        "one half; the expectation there is 0.372 (see notes/decisions.md)")
    assert decline_ok, (
        f"non-injective shares did not fall from n=40 {fractions} to n=64 "
        f"{large} (see notes/decisions.md)")
    assert elapsed < 600


def test_criterion_6_weighted_cycle_ground_truths():
    started = time.monotonic()
    ok = True
    for n in range(3, 13):
        for k in range(1, 6):
            ok &= cycle_weight_sum(gen_complete(n), k) == 1 + Fraction(1, (n - 1) ** (2 * k - 1))
    for d in range(2, 9):
        g = gen_hypercube(d)
        for k in range(1, 6):
            closed = sum(Fraction(math.comb(d, i)) * Fraction(d - 2 * i, d) ** (2 * k)
                         for i in range(d + 1))
            ok &= cycle_weight_sum(g, k) == closed

    agreement_bad = 0
    below_one = 0
    for i in range(200):
        n = 5 + (i % 14)
        g = host_with_min_degree(n, Fraction(1, 2), 17000 + i)
        k = 1 + (i % 3)
        exact = cycle_weight_sum(g, k)
        spectral = cycle_weight_sum_spectral(g, k)
        if abs(spectral.value - float(exact)) > 1e-9 * max(1.0, float(exact)):
            agreement_bad += 1
        if exact < 1:
            below_one += 1
    elapsed = time.monotonic() - started
    ok &= agreement_bad == 0 and below_one == 0
    report(6, "weighted cycle ground truths", ok,
           f"200 hosts, {agreement_bad} spectral mismatches, "
           f"{below_one} below one, {elapsed:.1f}s")
    assert ok


def test_criterion_7_cycle_inequality_suite():
    started = time.monotonic()
    c4 = gen_cycle(4)
    col4 = rainbow_colouring(c4)
    table = coincidence_table(c4, col4, 2)
    ok = table[(1, 4)] == 1
    ok &= table[(2, 4)] == Fraction(1, 2)

    instances = 0
    violations = 0
    for hi in range(170):
        if hi % 17 == 0:
            g, col = direction_colouring(3)
        else:
            n = 7 + (hi % 6)
            g = host_with_min_degree(n, Fraction(3, 5), 23000 + hi)
            col = greedy_proper_colouring(g, hi)
        for k in (2, 3, 4):
            rep = check_pattern_chain(g, col, k)
            instances += 1
            if not rep["unconditional_ok"]:
                violations += 1
    elapsed = time.monotonic() - started
    ok &= instances >= 500 and violations == 0
    report(7, "cycle inequality suite", ok,
           f"{instances} instances, {violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_8_rainbow_pipeline():
    started = time.monotonic()
    g3, col3 = direction_colouring(3)
    res = find_rainbow_cycle(g3, col3)
    ok = res.cycle is None and res.exhaustive
    for k in (2, 3, 4):
        rep = check_pattern_chain(g3, col3, k)
        ok &= rep["unconditional_ok"] and rep["conditional_ok"]

    # spectral form of the no-rainbow bound for all direction-coloured cubes
    for d in range(2, 9):
        g = gen_hypercube(d)
        for k in (2, 3, 4):
            sp = cycle_weight_sum_spectral(g, k)
            bound = (2.0 * k * k / d) ** k * g.n
            ok &= sp.value <= bound + sp.error_bound

    pipeline_failures = 0
    checked = 0
    witnesses = 0
    rng = random.Random(555)
    engineered = []
    for n in (66, 70, 75, 80, 85, 90):
        engineered.append(("clique", gen_complete(n), 2, None))
    for size, count in ((66, 2), (70, 2), (80, 2)):
        engineered.append(("clique-union", gen_clique_union(size, count), 2, None))
    for n in (27, 30, 35, 40, 45):
        engineered.append(("variant-clique", gen_complete(n), 2, Fraction(2, 5)))
    random_cases = []
    for i in range(36):
        n = 8 + (i % 7)
        g = host_with_min_degree(n, Fraction(3, 5), 31000 + i)
        random_cases.append(("random", g, 2, Fraction(1, 3) if i % 2 else None))

    for label, g, k, eps in engineered + random_cases:
        col = greedy_proper_colouring(g, rng.randrange(10 ** 6))
        checked += 1
        if eps is None:
            rep = check_pattern_chain(g, col, k)
            if not rep["unconditional_ok"]:
                pipeline_failures += 1
                continue
            if not rep["conditional_ok"]:
                found = find_rainbow_cycle(g, col)
                if found.cycle is None or not is_rainbow_cycle(g, col, found.cycle):
                    pipeline_failures += 1
                else:
                    witnesses += 1
        else:
            rep = check_variant_chain(g, col, k, eps)
            if not rep["conditional_ok"]:
                found = find_almost_rainbow(g, col, eps)
                if found.cycle is None:
                    pipeline_failures += 1
                else:
                    witnesses += 1
    elapsed = time.monotonic() - started
    ok &= checked >= 50 and pipeline_failures == 0 and witnesses >= 10 and elapsed < 600
    report(8, "rainbow pipeline end-to-end", ok,
           f"{checked} instances, {witnesses} witnesses, "
           f"{pipeline_failures} pipeline failures, {elapsed:.1f}s")
    assert ok


def test_criterion_9_determinism(tmp_path):
    commands = [
        ["gen", "--graph", "random(14,2/5,6)"],
        ["certify", "--graph", "q3", "--all-pairs", "--format", "json"],
        ["verify", "section3", "--host", "direction-cube(3)", "--k", "2",
         "--format", "json"],
        ["experiment", "supersaturation", "--n", "14", "--p",
         "7/10", "--trials", "2", "--seed", "3", "--format", "json"],
        ["h2k", "--host", "hypercube(5)", "--k", "3"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"cmd{idx}_{rep}.out"
            code = cli_main(argv + ["--out", str(out)])
            ok &= code in (0,)
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
    report(9, "byte-identical reports", ok, f"{len(commands)} commands")
    assert ok
