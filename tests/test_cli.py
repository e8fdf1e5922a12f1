import json
import platform
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from test_reflectivity import comb_graph
import homreflect
from homreflect import cli, homcount, rainbow, read_colouring, read_edge_list, write_edge_list
from homreflect.cli import main, parse_graph_spec
from homreflect.graphs import VERTEX_CAP, gen_random
from homreflect.reflectivity import certify_pairs, certify_reflective, reflectivity_report


PINS = Path(__file__).parent / "pins"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(tmp_path, *argv, out_name="report.txt"):
    out = tmp_path / out_name
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


class TestGen:
    def test_hypercube_file(self, tmp_path):
        path = tmp_path / "q3.edges"
        assert main(["gen", "--graph", "hypercube(3)", "--out", str(path)]) == 0
        g = read_edge_list(path)
        assert (g.n, g.edge_count()) == (8, 12)

    def test_setgraph_file(self, tmp_path):
        path = tmp_path / "sg.edges"
        assert main(["gen", "--graph", "setgraph(1,3)", "--out", str(path)]) == 0
        g = read_edge_list(path)
        assert (g.n, g.edge_count()) == (6, 6)

    def test_random_repeat_identical(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for path in (a, b):
            assert main(["gen", "--graph", "random(10,1/2,1)", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n, p, seed", [(10, "1/2", 1), (57, "3/10", 4), (300, "1/2", 2)])
    def test_random_file_matches_per_pair_draws(self, tmp_path, n, p, seed):
        got, want = tmp_path / "got.edges", tmp_path / "want.edges"
        assert main(["gen", "--graph", f"random({n},{p},{seed})", "--out", str(got)]) == 0
        write_edge_list(bf.gen_random_per_pair(n, Fraction(p), seed), want)
        assert got.read_bytes() == want.read_bytes()

    def test_direction_cube_writes_colouring(self, tmp_path):
        path = tmp_path / "cube.edges"
        cpath = tmp_path / "cube.colours"
        assert main(["gen", "--graph", "direction-cube(3)",
                     "--out", str(path), "--colour-out", str(cpath)]) == 0
        g = read_edge_list(path)
        col = read_colouring(g, cpath)
        assert col.proper and len(set(col.colours.values())) == 3

    @pytest.mark.parametrize("spec", ["direction-cube(4)", "triangle-rainbow"])
    def test_builtin_colouring_written_by_default(self, tmp_path, spec):
        """A spec with a built-in colouring writes it to OUT.colours, the
        colouring the spec itself gives."""
        path = tmp_path / "g.edges"
        assert main(["gen", "--graph", spec, "--out", str(path)]) == 0
        g = read_edge_list(path)
        want_graph, want = parse_graph_spec(spec)
        assert g.edges() == want_graph.edges()
        assert read_colouring(g, tmp_path / "g.edges.colours").colours == want.colours

    def test_bad_parameters_exit_one(self, tmp_path):
        assert main(["gen", "--graph", "hypercube(0)",
                     "--out", str(tmp_path / "x.edges")]) == 1

    @pytest.mark.parametrize("spec", ["hypercube(3)", "setgraph(1,3)", "random(6,1/2,0)"],
                             ids=["hypercube", "setgraph", "random"])
    def test_colour_out_refused_before_writing(self, tmp_path, spec):
        """Only a spec with a built-in colouring has one to write; any other
        spec exits 1 before it writes its edge list."""
        assert main(["gen", "--graph", spec, "--out", str(tmp_path / "x.edges"),
                     "--colour-out", str(tmp_path / "y.col")]) == 1
        assert list(tmp_path.iterdir()) == []


class TestCertify:
    def test_cube_all_pairs_yes(self, tmp_path):
        code, body = run(tmp_path, "certify", "--graph", "q3", "--all-pairs",
                         "--cert-dir", str(tmp_path / "certs"))
        assert code == 0
        assert b"reflective: yes" in body
        assert (tmp_path / "certs" / "cert_0_3.json").exists()

    def test_complete_bipartite_trivial(self, tmp_path):
        path = tmp_path / "k22.edges"
        path.write_text("4 4\n0 2\n0 3\n1 2\n1 3\n")
        code, body = run(tmp_path, "certify", "--graph", str(path), "--all-pairs")
        assert code == 0
        assert b"reflective: yes" in body

    def test_blowup_all_pairs_unknown_exit_budget(self, tmp_path):
        code, body = run(tmp_path, "certify", "--graph", "cycle-blowup(8)",
                         "--all-pairs", "--budget", "500")
        assert code == 3
        assert b"reflective: unknown" in body
        assert b"reflective: no" not in body

    def test_single_pair_certificate_file(self, tmp_path):
        cert = tmp_path / "cert.json"
        code, body = run(tmp_path, "certify", "--graph", "q3", "--r0", "0,3",
                         "--cert-out", str(cert))
        assert code == 0
        data = json.loads(cert.read_text())
        assert data["start"] == [0, 3]

    def test_non_bipartite_input_error(self, tmp_path):
        assert main(["certify", "--graph", "clique(3)", "--all-pairs"]) == 1

    def test_empty_start_exit_one(self, tmp_path):
        code, body = run(tmp_path, "certify", "--graph", "q3", "--r0", ",")
        assert (code, body) == (1, b"")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exit_one(self, tmp_path, budget):
        code, body = run(tmp_path, "certify", "--graph", "q3", "--r0", "0,3",
                         "--budget", budget)
        assert (code, body) == (1, b"")

    def test_duplicate_start_vertex_exit_one(self, tmp_path):
        code, body = run(tmp_path, "certify", "--graph", "q3", "--r0", "0,0")
        assert (code, body) == (1, b"")

    def test_involution_cap_exit_one_quickly(self, tmp_path, capsys):
        # K_{1,13} has 568503 involutions, all of them twin-leaf swaps
        path = tmp_path / "star.edges"
        path.write_text("14 13\n" + "".join(f"0 {v}\n" for v in range(1, 14)))
        start = time.perf_counter()
        code, body = run(tmp_path, "certify", "--graph", str(path), "--r0", "1,2")
        assert time.perf_counter() - start < 5
        assert (code, body) == (1, b"")
        assert "involution enumeration capped at 4096 involutions" in capsys.readouterr().err

    def test_carrying_involutions_under_the_cap_certify(self, tmp_path):
        # setgraph(1,10) has 18991 involutions, over the cap; 46 can carry a
        # triple, and the searches and the orbits of --all-pairs need no more.
        code, body = run(tmp_path, "certify", "--graph", "setgraph(1,10)", "--r0", "0,1",
                         "--format", "json")
        report = json.loads(body)
        assert (code, report["certified"], report["steps"]) == (0, True, 8)
        certs = tmp_path / "certs"
        code, body = run(tmp_path, "certify", "--graph", "setgraph(1,10)", "--all-pairs",
                         "--cert-dir", str(certs), "--format", "json", out_name="all.json")
        pairs = json.loads(body)["pairs"]
        assert (code, len(pairs), all(p["certified"] for p in pairs)) == (0, 45, True)
        assert len(list(certs.iterdir())) == 45
        for p in pairs:
            u, v = p["start"]
            code, body = run(tmp_path, "check-cert", "--graph", "setgraph(1,10)", "--cert",
                             str(certs / f"cert_{u}_{v}.json"), "--format", "json",
                             out_name="check.json")
            assert (code, json.loads(body)["steps"]) == (0, p["steps"]), p["start"]

    def test_search_without_a_chain_exits_three_within_budget(self, tmp_path):
        # No triple moves a single vertex: the search ends after one state.
        code, body = run(tmp_path, "certify", "--graph", "q3", "--r0", "0", "--format", "json")
        report = json.loads(body)
        assert (code, report["certified"], report["states_visited"]) == (3, False, 1)
        code, body = run(tmp_path, "certify", "--graph", "cycle-blowup(8)", "--all-pairs",
                         out_name="all.txt")
        assert code == 3 and b"reflective: unknown" in body
        rep = reflectivity_report(parse_graph_spec("cycle-blowup(8)")[0])
        assert rep["budget_exhausted"] is False
        assert [p["start"] for p in rep["pairs"] if not p["certified"]] == \
            [[0, 1], [4, 5], [8, 9], [12, 13]]
        assert all(p["states"] == 1 for p in rep["pairs"] if not p["certified"])

    @pytest.mark.parametrize("flags,named", [
        (("--r0", "0,3", "--all-pairs"), ("--r0", "--all-pairs")),
        (("--r0", "0,3", "--cert-dir", "certs"), ("--r0", "--cert-dir")),
        (("--all-pairs", "--cert-out", "cert.json"), ("--r0", "--cert-out")),
        ((), ("--r0", "--all-pairs")),
    ])
    def test_conflicting_flags_exit_one(self, tmp_path, capsys, flags, named):
        code, body = run(tmp_path, "certify", "--graph", "q3", *flags)
        assert (code, body) == (1, b"")
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err
        assert not (tmp_path / "certs").exists() and not (tmp_path / "cert.json").exists()

    def test_side_over_twenty_vertices(self, tmp_path):
        path = tmp_path / "comb.edges"
        write_edge_list(comb_graph(), path)
        code, body = run(tmp_path, "certify", "--graph", str(path), "--r0", "11,12",
                         "--format", "json")
        report = json.loads(body)
        assert (code, report["certified"], report["states_visited"]) == (3, False, 1)
        code, body = run(tmp_path, "certify", "--graph", str(path), "--all-pairs")
        assert code == 3 and b"reflective: unknown" in body


BUDGET_PATTERNS = ["q3", "q4", "cycle(8)", "cycle-blowup(6)"]
WALL_BOUND_S = 10


def run_json(tmp_dir, *argv):
    """Exit code, JSON report and wall time of one in-process CLI run."""
    out = tmp_dir / "report.json"
    start = time.perf_counter()
    code = main(list(argv) + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text()), time.perf_counter() - start


class TestSearchImports:
    def test_certify_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique and its kin import numpy.ma, 15-40 ms in every fresh process
        argv = ["certify", "--graph", "q5", "--r0", "8,25", "--out", str(tmp_path / "r.txt")]
        script = ("import sys; from homreflect.cli import main; "
                  f"code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)")
        src = str(Path(homreflect.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=60, env={"PYTHONPATH": src, "PATH": ""})
        assert out.stdout.split() == ["0", "False"], out.stderr


class TestBudgetExit:
    """A search that runs out of budget exits 3, never crashes and never
    hangs.  Exit 3 also reports a pair whose search ended without a chain
    (the twin pair of cycle-blowup(6)), so the property is: exit 3 exactly
    when the search ran out of budget or the unbudgeted search finds no
    chain either."""

    @given(spec=st.sampled_from(BUDGET_PATTERNS), budget=st.integers(1, 50), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_certify_start_pair(self, tmp_path_factory, spec, budget, data):
        g, _ = parse_graph_spec(spec)
        side = sorted(data.draw(st.sampled_from(g.bipartition())))
        r0 = data.draw(st.lists(st.sampled_from(side), min_size=2, max_size=2, unique=True))
        code, report, wall = run_json(tmp_path_factory.mktemp("certify"), "certify",
                                      "--graph", spec, "--r0", f"{r0[0]},{r0[1]}",
                                      "--budget", str(budget))
        limited = certify_reflective(g, r0, budget=budget)
        full = certify_reflective(g, r0)
        assert not full.budget_exhausted
        assert code == (3 if limited.budget_exhausted or not full.known_reflective else 0)
        assert report["certified"] == (code == 0)
        assert wall < WALL_BOUND_S

    @given(spec=st.sampled_from(BUDGET_PATTERNS), budget=st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_certify_all_pairs(self, tmp_path_factory, spec, budget):
        g, _ = parse_graph_spec(spec)
        code, report, wall = run_json(tmp_path_factory.mktemp("certify"), "certify",
                                      "--graph", spec, "--all-pairs", "--budget", str(budget))
        limited = reflectivity_report(g, budget)
        full = reflectivity_report(g)
        assert not full["budget_exhausted"]
        assert code == (3 if limited["budget_exhausted"] or full["verdict"] != "yes" else 0)
        assert report["summary"] == ("reflective: yes" if code == 0 else "reflective: unknown")
        assert wall < WALL_BOUND_S

    @given(spec=st.sampled_from(BUDGET_PATTERNS), budget=st.integers(1, 50),
           seed=st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_verify_section2(self, tmp_path_factory, spec, budget, seed):
        g, _ = parse_graph_spec(spec)
        code, report, wall = run_json(tmp_path_factory.mktemp("section2"), "verify",
                                      "section2", "--pattern", spec,
                                      "--host", f"random(5,1/2,{seed})", "--budget", str(budget))
        exhausted = [list(r0) for r0, res in certify_pairs(g, [g.bipartition()[0]], budget)
                     if res.budget_exhausted]
        assert report["all_hold"] is True
        assert code == (3 if exhausted else 0)
        assert report.get("budget_exhausted_pairs", []) == exhausted
        assert wall < WALL_BOUND_S


class TestCheckCert:
    def certificate(self, tmp_path):
        path = tmp_path / "cert.json"
        assert main(["certify", "--graph", "q3", "--r0", "0,6", "--cert-out", str(path),
                     "--out", str(tmp_path / "certify.txt")]) == 0
        return path

    def check(self, tmp_path, cert_path, graph="q3"):
        code, body = run(tmp_path, "check-cert", "--graph", graph, "--cert", str(cert_path),
                         "--format", "json")
        return code, json.loads(body) if body else None

    def test_valid_certificate_exit_zero(self, tmp_path):
        code, report = self.check(tmp_path, self.certificate(tmp_path))
        assert code == 0
        assert report["valid"] is True and report["steps"] == 2
        assert "exponent 4" in report["log"][-1]

    def test_indented_file_accepted(self, tmp_path):
        path = self.certificate(tmp_path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True))
        assert self.check(tmp_path, path)[0] == 0

    def test_invalid_certificate_exit_two(self, tmp_path):
        path = self.certificate(tmp_path)
        data = json.loads(path.read_text())
        data["steps"] = data["steps"][:-1]
        path.write_text(json.dumps(data))
        code, report = self.check(tmp_path, path)
        assert code == 2
        assert report["valid"] is False and "full side" in report["log"][-1]

    def test_swap_map_not_an_automorphism_is_invalid(self, tmp_path):
        path = self.certificate(tmp_path)
        data = json.loads(path.read_text())
        data["steps"][0]["phi"] = [1, 0, 2, 3, 4, 5, 6, 7]
        path.write_text(json.dumps(data))
        code, report = self.check(tmp_path, path)
        assert code == 2
        assert "step 0" in report["log"][-1]

    def test_swap_maps_of_another_graph_are_malformed(self, tmp_path, capsys):
        assert self.check(tmp_path, self.certificate(tmp_path), graph="q4") == (1, None)
        assert "8 images for 16 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "{", "[1, 2]", '{"start": [0, 6]}',
                                      '{"start": [0, 99], "side": [0], "steps": []}'])
    def test_malformed_file_exit_one(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert self.check(tmp_path, path) == (1, None)

    def test_missing_file_exit_one(self, tmp_path):
        assert self.check(tmp_path, tmp_path / "absent.json") == (1, None)


class TestVerify:
    def test_reflection_suite_random_host(self, tmp_path):
        code, body = run(tmp_path, "verify", "section2", "--pattern", "q3",
                         "--host", "random(10,1/2,3)", "--max-sets", "30")
        assert code == 0
        assert b"all_hold: True" in body

    def test_reflection_suite_budget_exhausted_exit_budget(self, tmp_path):
        argv = ("verify", "section2", "--pattern", "q3", "--host", "random(10,1/2,3)",
                "--format", "json")
        code, body = run(tmp_path, *argv, "--budget", "1")
        report = json.loads(body)
        assert code == 3
        assert report["all_hold"] is True
        assert report["budget_exhausted_pairs"] == [[0, 3], [0, 5], [0, 6],
                                                     [3, 5], [3, 6], [5, 6]]
        assert not any(c["name"].startswith("amplified_bound") for c in report["checks"])
        code, body = run(tmp_path, *argv)
        report = json.loads(body)
        assert code == 0
        assert "budget_exhausted_pairs" not in report
        assert sum(c["name"].startswith("amplified_bound") for c in report["checks"]) == 6

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_readme_section2_report_pinned(self, tmp_path, fmt):
        """README's section-2 command gives this report, byte for byte."""
        code, body = run(tmp_path, "verify", "section2", "--pattern", "q3",
                         "--host", "random(10,1/2,3)", "--format", fmt)
        assert code == 0
        assert body == (PINS / f"verify_section2_q3.{fmt}").read_bytes()

    def test_inflated_constrained_count_fails_its_steps(self, tmp_path, monkeypatch):
        """With hom(Q3, G | {0, 3, 5}) inflated tenfold, every step that
        constrains {0, 3, 5} is reported and the run exits 2.  Where both
        reflections give the set back, lhs equals rhs: the step fails on the
        weak inequality, hom(R)^2 <= hom(R_AB) hom(H, G)."""
        count = homcount.hom_count

        def inflated(h, g, constraint=None):
            c = count(h, g, constraint)
            return 10 * c if constraint is not None and set(constraint) == {0, 3, 5} else c

        monkeypatch.setattr(homcount, "hom_count", inflated)
        code, body = run(tmp_path, "verify", "section2", "--pattern", "q3",
                         "--host", "random(10,1/2,3)", "--format", "json")
        report = json.loads(body)
        assert (code, report["all_hold"]) == (2, False)
        rhs = [7807489600, 7807489600] + [89147856] * 4 + [7807489600, 7807489600]
        assert [c for c in report["checks"] if not c["holds"]] == [
            {"name": f"reflection_step_t{ti}_[0, 3, 5]", "lhs": 7807489600, "rhs": r,
             "holds": False} for ti, r in enumerate(rhs)
        ] + [{"name": "reflection_steps_swept", "count": 200, "holds": False}]

    def test_cycle_suite_direction_cube(self, tmp_path):
        code, body = run(tmp_path, "verify", "section3",
                         "--host", "direction-cube(3)", "--k", "2")
        assert code == 0
        assert b"unconditional_ok: True" in body

    def test_cycle_suite_attaches_witness_on_violation(self, tmp_path):
        code, body = run(tmp_path, "verify", "section3", "--host", "clique(66)",
                         "--k", "2", "--colouring", "greedy(5)")
        assert code == 0  # conditional violations are findings, not errors
        assert b"conditional_ok: False" in body
        assert b"kind: rainbow" in body

    def test_triangle_rainbow_bounds_hold_at_desk_scale(self, tmp_path):
        code, body = run(tmp_path, "verify", "section3", "--host",
                         "triangle-rainbow", "--k", "2")
        assert code == 0
        assert b"conditional_ok: True" in body

    def test_variant_suite(self, tmp_path):
        code, body = run(tmp_path, "verify", "section3", "--host", "clique(27)",
                         "--k", "2", "--epsilon", "2/5", "--colouring", "greedy(2)")
        assert code == 0
        assert b"variant_conditional_ok: False" in body
        assert b"kind: almost-rainbow" in body

    def test_colouring_checked_once_where_both_chains_fail(self, tmp_path, coverage_checks):
        """Both chains and both cycle searches take the colouring; its edge
        set is checked against the host once."""
        code, body = run(tmp_path, "verify", "section3", "--host", "clique(27)",
                         "--k", "2", "--epsilon", "2/5", "--colouring", "greedy(2)")
        assert code == 0
        assert b"kind: rainbow" in body and b"kind: almost-rainbow" in body
        assert coverage_checks == [27]

    def test_malformed_host_error(self, tmp_path):
        assert main(["verify", "section3", "--host", "nonsense(1)", "--k", "2"]) == 1

    @pytest.mark.parametrize("epsilon, message", [
        ("junk", "cannot parse fraction 'junk'"),
        ("3/4", "strictly between 0 and 1/2"),
    ], ids=["malformed", "out-of-range"])
    def test_epsilon_refused_before_any_walk_sum(self, tmp_path, capsys, monkeypatch,
                                                 epsilon, message):
        built = []
        engine = rainbow._WalkEngine

        def counted(g, k, *rest):
            built.append(k)
            return engine(g, k, *rest)

        monkeypatch.setattr(rainbow, "_WalkEngine", counted)
        rainbow._last_sums.clear()
        code, body = run(tmp_path, "verify", "section3", "--host", "clique(30)", "--k", "3",
                         "--epsilon", epsilon)
        assert (code, body) == (1, b"")
        assert message in capsys.readouterr().err
        assert built == []

    def test_default_colouring_is_greedy_zero(self, tmp_path):
        """With no --colouring on a host without a built-in one, the chain
        runs on greedy(0); only the report's colouring field tells them
        apart."""
        argv = ("verify", "section3", "--host", "clique(12)", "--k", "2", "--format", "json")
        reports = []
        for extra in ((), ("--colouring", "greedy(0)")):
            code, body = run(tmp_path, *argv, *extra, out_name="r.json")
            assert code == 0
            reports.append(json.loads(body))
        assert reports[0]["parameters"].pop("colouring") == "auto"
        assert reports[1]["parameters"].pop("colouring") == "greedy(0)"
        assert reports[0] == reports[1]

    def test_colouring_checked_where_used(self, tmp_path, proper_checks):
        """The chain works out that the greedy colouring is proper, once;
        the rainbow-cycle search uses it without asking again."""
        code, body = run(tmp_path, "verify", "section3", "--host", "clique(66)", "--k", "2")
        assert code == 0
        assert b"kind: rainbow" in body
        assert proper_checks == [66 * 65 // 2]


class TestExperiment:
    def test_supersaturation_report(self, tmp_path):
        code, body = run(tmp_path, "experiment", "supersaturation", "--n", "16", "--p", "7/10",
                         "--trials", "2", "--seed", "9", "--format", "json", out_name="r.json")
        assert code == 0
        data = json.loads(body)
        assert len(data["trials"]) == 2
        assert data["parameters"]["p"] == "7/10"

    def test_rainbow_bounds_direction_cube(self, tmp_path):
        code, body = run(tmp_path, "experiment", "rainbow-bounds",
                         "--host", "direction-cube(6)", "--colouring", "direction",
                         "--k-max", "4")
        assert code == 0
        assert b"unconditional_ok: True" in body
        assert body.count(b"  conditional_ok: True") == 3  # k = 2, 3, 4

    def test_rainbow_bounds_violation_attaches_cycle(self, tmp_path):
        code, body = run(tmp_path, "experiment", "rainbow-bounds",
                         "--host", "clique(70)", "--k-max", "2", "--colouring", "greedy(4)")
        assert code == 0
        assert b"cycles_found" in body and b"cycle:" in body

    def test_spectral_mode_large_cube(self, tmp_path):
        code, body = run(tmp_path, "experiment", "rainbow-bounds",
                         "--host", "hypercube(8)", "--k-max", "4", "--spectral")
        assert code == 0
        assert body.count(b"holds: True") == 3

    def test_spectral_almost_rainbow_checks_variant_total(self, tmp_path):
        """The spectral rounds of almost-rainbow-bounds check the bound of
        variant_total, (k / (eps delta))^k n, as the exact rounds do."""
        argv = ("experiment", "almost-rainbow-bounds", "--host", "clique(30)",
                "--epsilon", "2/5", "--k-max", "3", "--format", "json")
        code, body = run(tmp_path, *argv, out_name="exact.json")
        assert code == 0
        exact_rounds = json.loads(body)["rounds"]
        code, body = run(tmp_path, *argv, "--spectral", out_name="spectral.json")
        assert code == 0
        rounds = json.loads(body)["rounds"]
        # reports give floats to 12 significant digits
        assert rounds[0]["bound_float"] == pytest.approx(750 / 841, rel=1e-11)
        assert [row["k"] for row in rounds] == [2, 3]
        for exact_row, row in zip(exact_rounds, rounds):
            total, = (c for c in exact_row["checks"] if c["name"] == "variant_total")
            assert row["bound_float"] == pytest.approx(float(Fraction(total["rhs"])), rel=1e-11)
            assert row["holds"] is total["holds"] is False

    def test_spectral_almost_rainbow_refuses_deficiency_range(self, tmp_path, capsys):
        code, body = run(tmp_path, "experiment", "almost-rainbow-bounds", "--host", "clique(30)",
                         "--epsilon", "1/2", "--spectral")
        assert (code, body) == (1, b"")
        assert "strictly between 0 and 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, search", [
        (("rainbow-bounds", "--host", "clique(66)", "--k-max", "4"), "find_rainbow_cycle"),
        (("almost-rainbow-bounds", "--host", "clique(30)", "--epsilon", "2/5",
          "--k-max", "3"), "find_almost_rainbow"),
    ], ids=["rainbow", "almost-rainbow"])
    def test_witness_searched_once(self, tmp_path, monkeypatch, argv, search):
        """The cycle search does not depend on k: it runs at the first round
        whose bound fails, and every failing round reports its result."""
        calls = []
        found = getattr(cli, search)
        monkeypatch.setattr(cli, search, lambda *a: calls.append(a) or found(*a))
        code, body = run(tmp_path, "experiment", *argv, "--format", "json", out_name="r.json")
        assert code == 0
        cycles = json.loads(body)["cycles_found"]
        assert [c["k"] for c in cycles] == list(range(2, int(argv[-1]) + 1))
        assert all(c == {**cycles[0], "k": c["k"]} for c in cycles)
        assert len(calls) == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])

    @pytest.mark.parametrize("name, first_past", [
        ("rainbow-bounds", 84), ("almost-rainbow-bounds", 137),
    ])
    def test_spectral_bound_past_float_range_refused(self, tmp_path, capsys, monkeypatch,
                                                     name, first_past):
        """A round whose bound is past the float range exits 1 before any
        round runs; one round fewer runs to the end."""
        rounds = []
        spectral = cli.cycle_weight_sum_spectral
        monkeypatch.setattr(cli, "cycle_weight_sum_spectral",
                            lambda g, k: rounds.append(k) or spectral(g, k))
        argv = ("experiment", name, "--host", "q3", "--spectral", "--format", "json")
        code, body = run(tmp_path, *argv, "--k-max", str(first_past))
        assert (code, body, rounds) == (1, b"", [])
        err = capsys.readouterr().err
        assert err.startswith(f"error: the total bound at k = {first_past} is past the float")
        assert "Traceback" not in err
        code, body = run(tmp_path, *argv, "--k-max", str(first_past - 1))
        assert code == 0
        assert len(json.loads(body)["rounds"]) == first_past - 2

    @pytest.mark.parametrize("argv, message", [
        (("rainbow-bounds", "--host", "q3", "--k-max", "1"), "--k-max must be at least 2"),
        (("almost-rainbow-bounds", "--host", "clique(8)", "--k-max", "1", "--epsilon", "junk"),
         "--k-max must be at least 2"),
        (("almost-rainbow-bounds", "--host", "nonsense(1)", "--epsilon", "junk"),
         "cannot parse fraction 'junk'"),
        (("almost-rainbow-bounds", "--host", "nonsense(1)", "--epsilon", "1/2"),
         "strictly between 0 and 1/2"),
    ], ids=["k-max-1", "k-max-1-epsilon", "epsilon-malformed", "epsilon-out-of-range"])
    def test_round_inputs_refused_before_the_host(self, tmp_path, capsys, argv, message):
        """A run that would do no round, or whose deficiency cannot be read,
        exits 1 before its host is built."""
        code, body = run(tmp_path, "experiment", *argv)
        assert (code, body) == (1, b"")
        assert message in capsys.readouterr().err


class TestCountsAndWeights:
    def test_homcount_output(self, tmp_path):
        code, body = run(tmp_path, "homcount", "--pattern", "q3", "--host",
                         "clique(4)", "--format", "json", out_name="hc.json")
        assert code == 0
        assert json.loads(body)["count"] == 2652

    def test_homcount_constraint_and_injective(self, tmp_path, capsys, monkeypatch):
        """The injective count has no constraint to take: no injective map
        sends two vertices to one image.  The pair exits 1 before any graph
        is built or counted."""
        def never(spec):
            raise AssertionError("a graph was built before the options were checked")

        monkeypatch.setattr(cli, "parse_graph_spec", never)
        code, body = run(tmp_path, "homcount", "--pattern", "q3", "--host",
                         "clique(10)", "--constraint", "0,3", "--injective",
                         "--format", "json", out_name="hc.json")
        assert (code, body) == (1, b"")
        assert capsys.readouterr().err == (
            "error: --constraint sends its vertices to one image, which no injective map "
            "does; drop --constraint or --injective\n")

    def test_h2k_report(self, tmp_path):
        code, body = run(tmp_path, "h2k", "--host", "hypercube(4)", "--k", "3",
                         "--format", "json", out_name="h.json")
        assert code == 0
        data = json.loads(body)
        assert data["h2k"] == "17/8"
        assert data["at_least_one"] is True

    def test_h2k_outside_the_radius_exits_two(self, tmp_path, capsys, monkeypatch):
        """h2k checks its exact value against the float value's proven
        radius: a float value moved by twice the radius exits 2."""
        spectral = cli.cycle_weight_sum_spectral

        def shifted(g, k):
            value = spectral(g, k)
            return rainbow.SpectralValue(value.value + 2 * value.error_bound, value.error_bound)

        monkeypatch.setattr(cli, "cycle_weight_sum_spectral", shifted)
        code, body = run(tmp_path, "h2k", "--host", "hypercube(4)", "--k", "3",
                         "--format", "json", out_name="h.json")
        assert code == 2
        assert json.loads(body)["h2k"] == "17/8"
        assert capsys.readouterr().err.splitlines()[0] == (
            "h2k: the exact value lies outside h2k_float +/- spectral_error_bound")

    def test_h2k_patterns_with_colouring(self, tmp_path):
        code, body = run(tmp_path, "h2k", "--host", "cycle(4)", "--k", "2",
                         "--colouring", "rainbow", "--patterns",
                         "--format", "json", out_name="h.json")
        assert code == 0
        data = json.loads(body)
        values = {(row["i"], row["j"]): row["value"] for row in data["pattern_weights"]}
        assert values[(1, 4)] == "1/1"
        assert values[(2, 4)] == "1/2"

    def test_h2k_irregular_host_past_64_vertices_runs(self, tmp_path):
        # the former Python-integer walk engine refused hosts over 64 vertices
        code, body = run(tmp_path, "h2k", "--host", "random(65,1/2,1)", "--k", "2",
                         "--format", "json", out_name="h.json")
        assert code == 0
        want = bf.walk_weight_by_matrix_power(gen_random(65, Fraction(1, 2), 1), 4)
        assert json.loads(body)["h2k"] == f"{want.numerator}/{want.denominator}"


class TestSizeCaps:
    """Every graph is capped at VERTEX_CAP vertices, checked before any edge
    is built."""

    @pytest.mark.parametrize("spec", [f"clique({VERTEX_CAP + 1})",
                                      f"random({VERTEX_CAP + 1},1/2,1)"])
    def test_oversized_generator_exit_one(self, tmp_path, capsys, spec):
        code, body = run(tmp_path, "homcount", "--pattern", "q3", "--host", spec)
        assert (code, body) == (1, b"")
        assert f"capped at {VERTEX_CAP} vertices" in capsys.readouterr().err

    def test_oversized_edge_list_header_exit_one(self, tmp_path, capsys):
        path = tmp_path / "big.edges"
        path.write_text(f"{VERTEX_CAP + 1} 1\n0 1\n")
        code, body = run(tmp_path, "homcount", "--pattern", "q3", "--host", str(path))
        assert (code, body) == (1, b"")
        assert f"capped at {VERTEX_CAP} vertices" in capsys.readouterr().err


class TestSpecErrors:
    @pytest.mark.parametrize("argv", [
        ["homcount", "--pattern", "q3", "--host", "random(x,1/2,1)"],
        ["homcount", "--pattern", "q3", "--host", "random(5,x,1)"],
        ["certify", "--graph", "setgraph(1,)", "--all-pairs"],
        ["h2k", "--host", "hypercube(3)", "--k", "1", "--patterns", "--colouring", "greedy(x)"],
    ], ids=["random-size", "random-density", "setgraph-empty", "greedy-seed"])
    def test_malformed_argument_exit_one(self, tmp_path, argv):
        src = str(Path(homreflect.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "homreflect.cli", *argv], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60,
                             env={"PYTHONPATH": src, "PATH": ""})
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("error: spec ") and "Traceback" not in out.stderr


def readme_constructors() -> list[str]:
    """The constructors the README's "Graph specs are ..." paragraph names."""
    readme = README.read_text()
    paragraph = readme.split("Graph specs are", 1)[1].split("Every graph", 1)[0]
    return [name for item in re.findall(r"`([^`]+)`", paragraph) for name in item.split(" / ")]


def readme_commands() -> list[list[str]]:
    """The command lines of the README's command block, in order, as words."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line, comments=True) for line in block.split("```", 1)[0].splitlines()]
    return [words for words in lines if words]


def test_readme_commands_run(tmp_path, monkeypatch):
    """Every line of the README's command block exits 0, run in order in
    one directory, so each reads the files the earlier ones wrote."""
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands and all(words[0] == "homreflect" for words in commands)
    for words in commands:
        assert main(words[1:]) == 0, words


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_readme_json_reports_are_json(tmp_path, monkeypatch):
    """Every README command that writes a report writes, with --format
    json, a report that strict JSON reads."""
    monkeypatch.chdir(tmp_path)
    reports = 0
    for i, words in enumerate(readme_commands()):
        if words[1] == "gen":
            assert main(words[1:]) == 0, words
            continue
        out = tmp_path / f"report{i}.json"
        assert main(words[1:] + ["--format", "json", "--out", str(out)]) == 0, words
        assert strict_json(out.read_text())["command"].startswith(words[1]), words
        reports += 1
    assert reports


def test_strict_json_refuses_infinity():
    with pytest.raises(ValueError, match="Infinity is not JSON"):
        strict_json('{"min_ratio": Infinity}')


class TestSpecTable:
    """The README names every graph constructor there is, and the spellings
    it does not name are refused."""

    # a small value for each argument name the README uses
    VALUES = {"d": "3", "l": "1", "k": "3", "n": "6", "p": "1/2", "seed": "1", "size": "3",
              "count": "2", "len": "4"}

    def test_readme_names_the_table(self):
        names = {spec.split("(")[0] for spec in readme_constructors()}
        assert names == set(cli._GRAPH_SPECS) | {"qD"}

    @pytest.mark.parametrize("spec", readme_constructors())
    def test_readme_constructor_parses(self, spec):
        concrete = re.sub(r"\w+", lambda m: self.VALUES.get(m.group(), m.group()),
                          spec.replace("qD", "q3"))
        g, _ = parse_graph_spec(concrete)
        assert g.n > 0

    @pytest.mark.parametrize("argv", [
        ["--host", "cube(3)"],
        ["--host", "complete(4)"],
        ["--host", "cliqueunion(2,3)"],
        ["--host", "blowup(4)"],
        ["--host", "direction-coloured-cube(3)"],
        ["--host", "rainbow-triangle"],
        ["--host", "cycle:6"],
        ["--host", "hypercube(3)", "--patterns", "--colouring", "greedy:7"],
    ], ids=["cube", "complete", "cliqueunion", "blowup", "direction-coloured-cube",
            "rainbow-triangle", "colon-graph", "colon-colouring"])
    def test_retired_spelling_exit_one(self, tmp_path, capsys, argv):
        code, body = run(tmp_path, "h2k", "--k", "1", *argv)
        assert (code, body) == (1, b"")
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognised ") and "Traceback" not in err


class TestVertexLists:
    @pytest.mark.parametrize("argv", [
        ["certify", "--graph", "q3", "--r0", "3,,5"],
        ["certify", "--graph", "q3", "--r0", ",3"],
        ["certify", "--graph", "q3", "--r0", "3,"],
        ["homcount", "--pattern", "q3", "--host", "clique(4)", "--constraint", "0,,3"],
        ["homcount", "--pattern", "q3", "--host", "clique(4)", "--constraint", ""],
    ], ids=["inner", "leading", "trailing", "constraint", "empty-constraint"])
    def test_empty_item_exit_one(self, tmp_path, argv):
        src = str(Path(homreflect.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "homreflect.cli", *argv], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60,
                             env={"PYTHONPATH": src, "PATH": ""})
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("error: bad vertex list ") and "Traceback" not in out.stderr
        assert out.stdout == ""


class TestInputsCheckedFirst:
    """A bad input exits 1 before the command does any counting."""

    @pytest.mark.parametrize("argv", [
        ["verify", "section2", "--host", "random(6,1/2,1)", "--max-sets", "-1"],
        ["homcount", "--pattern", "q3", "--host", "random(8,1/2,1)", "--constraint", "0,x"],
    ], ids=["negative-max-sets", "unreadable-constraint"])
    def test_exit_one_without_traceback(self, tmp_path, argv):
        src = str(Path(homreflect.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-m", "homreflect.cli", *argv], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60,
                             env={"PYTHONPATH": src, "PATH": ""})
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("constraint", ["0,x", "0,1"], ids=["unreadable", "dependent"])
    def test_bad_constraint_skips_injective_count(self, tmp_path, capsys, monkeypatch,
                                                  constraint):
        def never(h, g):
            raise AssertionError("injective count run before the constraint was checked")

        monkeypatch.setattr(cli, "injective_hom_count", never)
        code, body = run(tmp_path, "homcount", "--pattern", "q3", "--host", "random(8,1/2,1)",
                         "--injective", "--constraint", constraint)
        assert (code, body) == (1, b"")
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["certify", "--graph", "clique(3)", "--all-pairs"],
        ["certify", "--graph", "clique-union(2,2)", "--r0", "0,1"],
        ["verify", "section2", "--pattern", "clique(3)", "--host", "q3"],
    ], ids=["certify-triangle", "certify-two-edges", "section2-triangle"])
    def test_pattern_gate_has_one_message(self, tmp_path, capsys, argv):
        code, body = run(tmp_path, *argv)
        assert (code, body) == (1, b"")
        assert capsys.readouterr().err == "error: the pattern must be a connected bipartite graph\n"

    @pytest.mark.parametrize("argv", [
        ["certify", "--graph", "q3", "--all-pairs"],
        ["certify", "--graph", "q3", "--r0", "0,3"],
        ["verify", "section2", "--pattern", "q4", "--host", "random(12,1/2,1)"],
    ], ids=["certify-all-pairs", "certify-r0", "section2"])
    def test_budget_below_one_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        work = []
        monkeypatch.setattr(cli, "parse_graph_spec", lambda spec: work.append(spec))
        monkeypatch.setattr(homcount, "hom_count", lambda *a: work.append(a))
        code, body = run(tmp_path, *argv, "--budget", "0")
        assert (code, body, work) == (1, b"", [])
        assert capsys.readouterr().err == "error: budget must be at least 1, got 0\n"

    @pytest.mark.parametrize("argv", [
        ["--n", "8", "--p", "0", "--trials", "1"],
        ["--n", "8", "--p", "3/2", "--trials", "1"],
        ["--n", "0", "--p", "1/2", "--trials", "1"],
        ["--n", "8", "--p", "1/2", "--trials", "0"],
    ], ids=["p-zero", "p-over-one", "n-zero", "trials-zero"])
    def test_supersaturation_without_hosts_or_benchmark(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        # each used to exit 0; p = 0 and n = 0 reported an infinite ratio,
        # which is not JSON, and trials = 0 an empty list that met the threshold
        drawn = []
        monkeypatch.setattr(homcount, "gen_random", lambda *a: drawn.append(a))
        code, body = run(tmp_path, "experiment", "supersaturation", *argv, "--format", "json")
        assert (code, body, drawn) == (1, b"", [])
        assert capsys.readouterr().err.startswith("error: supersaturation needs n >= 1")


class TestWorkCap:
    """hom_count plans its elimination from the pattern alone and refuses,
    before any array is built, when n^(|C| + 2) > 3*10^8 for the |C|
    vertices the plan conditions on; the supersaturation experiment has no
    cap of its own."""

    @pytest.mark.parametrize("argv, conditioned, admitted", [
        (("homcount", "--pattern", "q4", "--host", "random(40,1/2,1)", "--constraint", "0,7"),
         5, 16),
        (("homcount", "--pattern", "q4", "--host", "random(26,1/2,1)"), 4, 25),
        (("experiment", "supersaturation", "--n", "132", "--trials", "1"), 2, 131),
    ], ids=["cross-side-quotient", "q4", "supersaturation-132"])
    def test_refused_exit_one(self, tmp_path, capsys, argv, conditioned, admitted):
        code, body = run(tmp_path, *argv)
        assert (code, body) == (1, b"")
        assert admitted ** (conditioned + 2) <= 3 * 10 ** 8 < (admitted + 1) ** (conditioned + 2)
        assert capsys.readouterr().err == (
            "error: assignment enumeration exceeds the budget cap: the plan conditions on "
            f"{conditioned} vertices; hosts of at most {admitted} vertices are admitted\n")

    def test_supersaturation_at_64(self, tmp_path):
        code, body = run(tmp_path, "experiment", "supersaturation", "--n", "64", "--trials", "1",
                         "--seed", "1", "--format", "json", out_name="r.json")
        assert code == 0
        row = json.loads(body)["trials"][0]
        # frozen from the former hand-derived 3-cube kernel
        assert (row["hom"], row["injective"]) == (3182087063814, 1970095429776)


class TestOneWalkEngine:
    """A command builds one walk engine per half-length, and no engine
    outlives the call that built it: a later call for the same host and
    half-length is served from the kept values.  The spectral rounds of one
    host share one pass of matrix powers."""

    @pytest.mark.parametrize("argv, lengths", [
        (["h2k", "--host", "direction-cube(4)", "--k", "2", "--patterns"], [2]),
        (["verify", "section3", "--host", "clique(6)", "--k", "2", "--epsilon", "2/5"], [2]),
        # the rounds run from k-max down
        (["experiment", "rainbow-bounds", "--host", "direction-cube(4)", "--k-max", "3"], [3, 2]),
    ], ids=["h2k-patterns", "section3-epsilon", "rainbow-bounds"])
    def test_engines_built(self, tmp_path, monkeypatch, argv, lengths):
        built, alive = [], []
        engine = rainbow._WalkEngine

        def counted(g, k, *rest):
            built.append((k, sum(ref() is not None for ref in alive)))
            made = engine(g, k, *rest)
            alive.append(weakref.ref(made))
            return made

        monkeypatch.setattr(rainbow, "_WalkEngine", counted)
        rainbow._last_sums.clear()
        code, _ = run(tmp_path, *argv)
        assert code == 0
        assert built == [(t, 0) for t in lengths]
        assert all(ref() is None for ref in alive)

    @pytest.mark.parametrize("argv, failing", [
        (("rainbow-bounds", "--host", "clique(66)"), [2, 3, 4]),
        (("almost-rainbow-bounds", "--host", "clique(30)", "--epsilon", "2/5"), [2, 3, 4]),
        (("rainbow-bounds", "--host", "hypercube(5)", "--spectral"), []),
    ], ids=["rainbow-bounds", "almost-rainbow-bounds", "spectral"])
    def test_rounds_reported_ascending(self, tmp_path, argv, failing):
        """The rounds run from k-max down; the report lists them, and the
        cycles found, from k = 2 up."""
        code, report, _ = run_json(tmp_path, "experiment", *argv, "--k-max", "4")
        assert code == 0
        assert [row["k"] for row in report["rounds"]] == [2, 3, 4]
        assert [cycle["k"] for cycle in report["cycles_found"]] == failing

    def test_spectral_rounds_form_k_max_minus_one_products(self, tmp_path, monkeypatch):
        """The rounds of one host form k-max - 1 products in all: the first
        round's pass keeps S^2 and S^3 and takes S^4 in row blocks, and its
        values serve the later rounds."""
        kept = []
        times_step = rainbow._times_step

        def counted(power, step, keep):
            kept.append(keep)
            return times_step(power, step, keep)

        monkeypatch.setattr(rainbow, "_times_step", counted)
        rainbow._last_spectral.clear()
        code, _ = run(tmp_path, "experiment", "rainbow-bounds", "--host", "hypercube(5)",
                      "--k-max", "4", "--spectral")
        assert code == 0
        assert kept == [True, True, False]


class TestCellCap:
    """Exact walk sums and counts are refused, exit 1, when their float64
    cells (residue layers x matrices x n^2) would pass the one cap, before
    any matrix is allocated."""

    def test_refused_exit_one_before_allocation(self, tmp_path, capsys):
        # cycle(1024), k = 30: 4 residue layers x 33 matrices x 1024^2 cells
        tracemalloc.start()
        try:
            code, body = run(tmp_path, "h2k", "--host", "cycle(1024)", "--k", "30")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, body) == (1, b"")
        assert "over the cap" in capsys.readouterr().err
        assert peak < 1024 * 1024 * 8  # less than one 1024 x 1024 float64 matrix

    @pytest.mark.parametrize("host, k", [("q3", 10 ** 7), ("q3", 10 ** 9),
                                         ("clique(4)", 4194300)])
    def test_huge_half_length_refused_before_the_bound_is_formed(self, tmp_path, capsys,
                                                                  host, k):
        """The engine's bound n L^2k / delta is at least 2^(2k(b - 1)), b the
        bit length of L, and that alone refuses these: on q3 (L = 3) it needs
        more residue layers than the prime window holds, and on clique(4)
        as well, though its k + 3 matrices of 4^2 cells are just within the
        cap.  Forming 3^(2k) would take seconds at k = 10^7 (4 MB) and
        never end at 10^9."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, body = run(tmp_path, "h2k", "--host", host, "--k", str(k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert (code, body) == (1, b"")
        err = capsys.readouterr().err
        assert err.startswith("error: exact products would hold at least ")
        assert "residue layers), over the cap" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("name", ["rainbow-bounds", "almost-rainbow-bounds"])
    def test_k_max_past_the_cap_refused_before_any_round(self, tmp_path, capsys, monkeypatch,
                                                         name):
        """The rounds run from k-max down, and the last round's coloured
        engine is the largest, so building it first refuses the run at once,
        before anything is allocated.  On clique(300), k = 22 is the first
        half-length past the cap: 18 residue layers x 45 matrices x 300^2."""
        built = []
        engine = rainbow._WalkEngine

        def counted(g, k, *rest):
            built.append(k)
            return engine(g, k, *rest)

        monkeypatch.setattr(rainbow, "_WalkEngine", counted)
        rainbow._last_sums.clear()
        start = time.perf_counter()
        code, body = run(tmp_path, "experiment", name, "--host", "clique(300)", "--k-max", "22")
        assert time.perf_counter() - start < 1
        assert (code, body, built) == (1, b"", [22])
        assert capsys.readouterr().err.startswith(
            "error: exact products would hold 72900000 float64 cells (18 residue layers), "
            "over the cap")


_FAULTS_CHILD = """
import json, resource, sys
from fractions import Fraction
from homreflect import cli, homcount
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if sys.argv[1] == "cli":
    cli.main(["experiment", "supersaturation", "--n", "40", "--trials", "3", "--seed", "5",
              "--format", "json", "--out", "report.json"])
else:
    rows = homcount.supersaturation_experiment(40, Fraction(7, 10), 5, 3)["trials"]
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
if sys.argv[1] == "cli":
    with open("report.json") as fh:
        rows = json.load(fh)["trials"]
print(json.dumps([faults, [[r["hom"], r["injective"]] for r in rows]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc's")
def test_command_line_keeps_freed_blocks(tmp_path):
    """The command line pins glibc's mmap and trim thresholds at the cell
    cap, so the supersaturation run's freed temporaries are not faulted in
    again: the same counts, through `cli.main`, take at most a quarter of
    the minor page faults of a direct call under glibc's default policy
    (about 0.6k against 10k)."""
    src = str(Path(homreflect.__file__).resolve().parents[1])
    runs = {}
    for via in ("cli", "library"):
        out = subprocess.run([sys.executable, "-c", _FAULTS_CHILD, via], cwd=tmp_path,
                             capture_output=True, text=True, timeout=120,
                             env={"PYTHONPATH": src, "PATH": ""})
        assert out.returncode == 0, out.stderr
        runs[via] = json.loads(out.stdout)
    assert runs["cli"][1] == runs["library"][1]
    assert 4 * runs["cli"][0] <= runs["library"][0], runs


class TestFlags:
    """Each subcommand registers only the options its run reads; argparse
    refuses the others."""

    @pytest.mark.parametrize("argv", [
        ("gen", "--graph", "q3", "--out", "q3.edges", "--budget", "5"),
        ("certify", "--graph", "q3", "--seed", "1"),
        ("verify", "section2", "--host", "q3", "--seed", "1"),
        ("verify", "section3", "--host", "q3", "--budget", "5"),
        ("experiment", "rainbow-bounds", "--host", "q3", "--budget", "5"),
        ("homcount", "--pattern", "q3", "--host", "q3", "--seed", "1"),
        ("homcount", "--pattern", "q3", "--host", "q3", "--budget", "5"),
        ("h2k", "--host", "q3", "--k", "1", "--budget", "5"),
        ("experiment", "rainbow-bounds", "--host", "q3", "--epsilon", "1/4"),
        ("experiment", "rainbow-bounds", "--host", "q3", "--n", "5"),
        ("experiment", "rainbow-bounds", "--host", "q3", "--trials", "9"),
        ("experiment", "supersaturation", "--host", "q3"),
        ("experiment", "supersaturation", "--k-max", "0"),
        ("experiment", "supersaturation", "--spectral"),
        ("experiment", "supersaturation", "--d", "3"),
        ("gen", "--graph", "q3", "--out", "q3.edges", "--d", "3"),
        ("verify", "section3", "--host", "q3", "--seed", "1"),
        ("h2k", "--host", "q3", "--k", "1", "--seed", "1"),
        ("experiment", "rainbow-bounds", "--host", "q3", "--seed", "1"),
        ("experiment", "almost-rainbow-bounds", "--host", "q3", "--seed", "1"),
    ])
    def test_unread_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("h2k", "--host", "q3", "--k", "2", "--colouring", "nonsense"), "needs --patterns"),
        (("experiment", "rainbow-bounds", "--host", "q3", "--spectral",
          "--colouring", "greedy(1)"), "--spectral reads no colouring"),
    ], ids=["h2k-colouring", "spectral-colouring"])
    def test_dropped_option_refused(self, tmp_path, capsys, argv, message):
        """An option that the rest of the command line leaves unread exits 1
        before any work."""
        code, body = run(tmp_path, *argv)
        assert (code, body) == (1, b"")
        assert message in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_reports_byte_identical(self, tmp_path, fmt):
        argv = ["verify", "section3", "--host", "direction-cube(3)", "--k", "2",
                "--format", fmt]
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_certify_reports_byte_identical(self, tmp_path):
        argv = ["certify", "--graph", "q3", "--all-pairs", "--format", "json"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSpecMatchesGeneratedFile:
    """A constructor spec and the edge-list file that `gen` wrote for it are
    one graph, so seeded colourings, and every report built on them, agree."""

    @pytest.mark.parametrize("spec", ["hypercube(6)", "setgraph(2,6)", "random(40,1/2,1)"],
                             ids=["hypercube", "setgraph", "random"])
    @pytest.mark.parametrize("argv", [
        ["h2k", "--k", "2", "--patterns", "--colouring", "greedy(7)"],
        ["verify", "section3", "--k", "2"],
    ], ids=["h2k", "section3"])
    def test_reports_byte_identical(self, tmp_path, spec, argv):
        path = tmp_path / "host.edges"
        assert main(["gen", "--graph", spec, "--out", str(path)]) == 0
        reports = []
        for host in (spec, str(path)):
            code, report = run(tmp_path, *argv, "--host", host, "--format", "json")
            assert code == 0
            reports.append(report.replace(json.dumps(host).encode(), b'"HOST"'))
        assert reports[0] == reports[1]


class TestParserBuiltForOneCommand:
    """main builds only the named subcommand's arguments; its help, errors
    and parsed values equal those of the parser with every subcommand."""

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("argv", [
        (), ("--help",), ("-h",), ("--version",), ("frobnicate",), ("-1", "certify"),
        ("--bogus", "certify", "--graph", "q3"),
        ("gen", "--help"), ("certify", "--help"), ("check-cert", "--help"),
        ("verify", "--help"), ("verify", "section2", "--help"),
        ("verify", "section3", "--help"), ("experiment", "--help"),
        ("homcount", "--help"), ("h2k", "--help"),
        ("gen",), ("gen", "torus"), ("certify",), ("check-cert", "--graph", "q3"),
        ("verify",), ("verify", "section4"), ("verify", "section2"),
        ("homcount", "--pattern", "q3"), ("h2k", "--host", "q3", "--k", "two"),
        ("experiment", "rainbow-bounds"), ("certify", "--graph", "q3", "--bogus"),
        ("experiment", "supersaturation", "--help"),
        ("experiment", "almost-rainbow-bounds", "--help"),
    ])
    def test_help_and_errors_match_full_parser(self, monkeypatch, capsys, argv):
        lazy = self.outcome(argv, capsys)
        full_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
        assert self.outcome(argv, capsys) == lazy
        assert lazy[0][0] == "SystemExit"

    @pytest.mark.parametrize("argv", [
        ("gen", "--graph", "random(10,1/2,1)", "--out", "g.edges"),
        ("certify", "--graph", "q4", "--all-pairs", "--budget", "9"),
        ("check-cert", "--graph", "q3", "--cert", "c.json", "--format", "json"),
        ("verify", "section2", "--host", "clique(4)", "--max-sets", "3"),
        ("verify", "section3", "--host", "q3", "--epsilon", "1/4"),
        ("experiment", "supersaturation", "--trials", "2"),
        ("homcount", "--pattern", "q3", "--host", "q3", "--injective"),
        ("h2k", "--host", "q3", "--k", "2", "--patterns", "--colouring", "greedy(4)"),
    ])
    def test_parsed_values_match_full_parser(self, argv):
        got = cli.build_parser(cli._command_named(list(argv))).parse_args(argv)
        assert cli._command_named(list(argv)) == argv[0]
        assert got == cli.build_parser().parse_args(argv)
