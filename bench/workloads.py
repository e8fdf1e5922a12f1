"""The benchmark's workloads: lists of `homreflect` CLI operations built from a seed.

The seed picks the vertex labelling of each random host and the seeds of
the hosts the program draws itself (supersaturation, the spectral run); the
program sees only the generated command lines and input files.  Each random
host is one fixed graph per operation, relabelled by the seed, so its
answers do not depend on the seed and its work hardly does.
Every operation completes at the commit that defined the benchmark, with the
exit code in `Op.exit`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations


@dataclass(frozen=True)
class Op:
    """One CLI command, run in a fresh process inside its own scratch directory.

    `files` maps a file name in that directory to [generator, *arguments],
    a function of `INPUT_FILES`; the child writes the file during set-up.
    """

    name: str
    argv: tuple[str, ...]
    exit: int = 0
    files: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Identifies the operation and its inputs in the recorded answers."""
        return f"{self.name}: {' '.join(self.argv)}"


def q4_side_first_edges() -> str:
    """Q4 relabelled so that one bipartition side takes labels 0..7: the
    automorphism search meets a labelling that does not follow the cube's
    coordinates."""
    order = sorted(range(16), key=lambda v: (bin(v).count("1") % 2, v))
    label = {v: i for i, v in enumerate(order)}
    edges = sorted(tuple(sorted((label[u], label[u ^ (1 << b)])))
                   for u in range(16) for b in range(4) if u < u ^ (1 << b))
    return f"16 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _base_host(n: int, role: int) -> list[tuple[int, int]]:
    """A fixed G(n, m) graph with m = C(n,2)//2 edges, drawn from the
    benchmark's own generator; `role` tells apart hosts of equal size."""
    pairs = list(combinations(range(n), 2))
    return sorted(random.Random(f"host-{n}-{role}").sample(pairs, len(pairs) // 2))


def _relabelling(n: int, role: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(f"labels-{n}-{role}-{seed}").shuffle(perm)
    return perm


def host_edges(n: int, role: int, seed: int) -> str:
    """Edge-list file of the base host under the seed's vertex relabelling."""
    perm = _relabelling(n, role, seed)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in _base_host(n, role))
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def host_colouring(n: int, role: int, seed: int) -> str:
    """Colouring file for `host_edges`: smallest free colour per edge of the
    base host in sorted order (a proper colouring), carried by the same
    relabelling, so the coloured host is the same up to isomorphism."""
    perm = _relabelling(n, role, seed)
    at_vertex: list[set[int]] = [set() for _ in range(n)]
    lines = []
    for u, v in _base_host(n, role):
        c = min(set(range(2 * n)) - at_vertex[u] - at_vertex[v])
        at_vertex[u].add(c)
        at_vertex[v].add(c)
        a, b = sorted((perm[u], perm[v]))
        lines.append((a, b, c))
    return "".join(f"{a} {b} {c}\n" for a, b, c in sorted(lines))


INPUT_FILES = {"q4-side-first": q4_side_first_edges, "host": host_edges,
               "colouring": host_colouring}


# Start pairs of Q5 at Hamming distance 2 and 4, one from each Aut-orbit of
# pairs at even distance.  They are fixed: every pair of an orbit poses the
# same problem up to labels, but the search meets its states in label order,
# and pairs drawn from the seed moved the search's work by up to 30%.
Q5_PAIRS = {2: "8,25", 4: "16,31"}


def certify(seed: int) -> list[Op]:
    all_pairs = ("--all-pairs", "--cert-dir", "certs")
    return [
        Op("q4", ("certify", "--graph", "q4") + all_pairs),
        Op("q4-side-first", ("certify", "--graph", "q4_side_first.edges") + all_pairs,
           files={"q4_side_first.edges": ["q4-side-first"]}),
        Op("setgraph-1-7", ("certify", "--graph", "setgraph(1,7)") + all_pairs),
        Op("cycle-24", ("certify", "--graph", "cycle(24)") + all_pairs),
        Op("cycle-blowup-8", ("certify", "--graph", "cycle-blowup(8)") + all_pairs, exit=3),
        Op("q5-distance-2", ("certify", "--graph", "q5", "--r0", Q5_PAIRS[2],
                             "--cert-out", "cert.json")),
        Op("q5-distance-4", ("certify", "--graph", "q5", "--r0", Q5_PAIRS[4],
                             "--cert-out", "cert.json")),
    ]


def _on_host(name: str, argv: tuple[str, ...], n: int, role: int, seed: int,
             colouring: bool = False) -> Op:
    """`argv` run on the base host (n, role) relabelled by the seed, read from
    an edge-list file, with its colouring file when `colouring` is set."""
    argv += ("--host", "host.edges")
    files = {"host.edges": ["host", n, role, seed]}
    if colouring:
        argv += ("--colouring", "host.colours")
        files["host.colours"] = ["colouring", n, role, seed]
    return Op(name, argv, files=files)


def hom_sweep(seed: int) -> list[Op]:
    section2 = ("verify", "section2", "--pattern")
    return [
        _on_host("q3-random-8", section2 + ("q3",), 8, 0, seed),
        _on_host("q3-random-9", section2 + ("q3",), 9, 1, seed),
        _on_host("setgraph-1-4-random-8", section2 + ("setgraph(1,4)",), 8, 2, seed),
    ]


def hom_large(seed: int) -> list[Op]:
    q3 = ("homcount", "--pattern", "q3")
    return [
        _on_host("q3-random-36-constraint", q3 + ("--constraint", "0,7"), 36, 0, seed),
        _on_host("q3-random-64", q3, 64, 1, seed),
        _on_host("q3-random-22-injective", q3 + ("--injective",), 22, 2, seed),
        Op("supersaturation-40", ("experiment", "supersaturation", "--n", "40",
                                  "--trials", "3", "--seed", str(seed))),
    ]


def walks(seed: int) -> list[Op]:
    return [
        _on_host("h2k-random-36", ("h2k", "--k", "3"), 36, 0, seed),
        _on_host("section3-random-28", ("verify", "section3", "--k", "2", "--epsilon", "1/4"),
                 28, 1, seed, colouring=True),
        _on_host("rainbow-bounds-random-24", ("experiment", "rainbow-bounds", "--k-max", "3"),
                 24, 2, seed, colouring=True),
        Op("h2k-direction-cube-9", ("h2k", "--host", "direction-cube(9)", "--k", "1",
                                    "--patterns")),
        Op("h2k-clique-200", ("h2k", "--host", "clique(200)", "--k", "3")),
        Op("h2k-direction-cube-8", ("h2k", "--host", "direction-cube(8)", "--k", "3",
                                    "--patterns")),
        Op("section3-clique-66", ("verify", "section3", "--host", "clique(66)", "--k", "2")),
        Op("section3-clique-27", ("verify", "section3", "--host", "clique(27)", "--k", "2",
                                  "--epsilon", "2/5")),
        Op("spectral-random-400", ("experiment", "rainbow-bounds",
                                   "--host", f"random(400,1/2,{seed})",
                                   "--k-max", "3", "--spectral")),
    ]


WORKLOADS = {
    "certify": certify,
    "hom-sweep": hom_sweep,
    "hom-large": hom_large,
    "walks": walks,
}
