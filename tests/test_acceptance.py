"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpus and every bound here are checked exactly; round-behavior claims
are trend checks (the simulated base coloring stands in for the faster
subroutine the bounds were originally stated with).
"""

import json
import math
import random
import time
from functools import lru_cache

import pytest

from localcolor.arbedge import (ARB_C, LITTLE_O_C1, LITTLE_O_C2,
                                arb_edge_coloring, arb_palette_bound,
                                delta_plus_little_o, estimate_arboricity,
                                h_partition, merge_cross_coloring,
                                powered_edge_coloring, powered_palette_bound)
from localcolor.basecolor import LINIAL_CL, linial_coloring
from localcolor.cdcolor import cd_coloring, choose_params, refined_coloring
from localcolor.cliques import enumerate_maximal_cliques
from localcolor.graph import Coloring, Graph, induced_subgraph, line_graph
from localcolor.io import gen_complete, gen_forest, gen_hyper_line, gen_line_of, gen_path, gen_random
from localcolor.staredge import recursive_star_edge_coloring, star_edge_coloring_4delta
from localcolor.verify import (brute_force_chromatic, brute_force_edge_chromatic,
                               brute_force_max_clique, greedy_edge_baseline, is_proper_edge,
                               is_proper_vertex)
from helpers import corpus


@lru_cache(maxsize=1)
def the_corpus():
    graphs = corpus()
    assert len(graphs) >= 100
    return graphs


def announce(capsys, num, ok, desc):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _cover_of(g, cover):
    return cover if cover is not None else enumerate_maximal_cliques(g)


def _edge_algorithms(g, a):
    a = a if a is not None else estimate_arboricity(g)
    outs = [star_edge_coloring_4delta(g)[0],
            recursive_star_edge_coloring(g, 2)[0],
            recursive_star_edge_coloring(g, 3)[0],
            arb_edge_coloring(g, a)[0],
            delta_plus_little_o(g, a)[0]]
    for x in (1, 2, 3):
        outs.append(powered_edge_coloring(g, a, 2.5, x)[0])
    return outs


def test_criterion_1_properness_suite(capsys):
    start = time.monotonic()
    ok = True
    for name, g, cover, a in the_corpus():
        cov = _cover_of(g, cover)
        t = choose_params(cov.S, 1) if cov.S else 2
        vertex_outs = [cd_coloring(g, cov, t, 1)[0],
                       refined_coloring(g, cov, 1)[0]]
        for col in vertex_outs:
            v = is_proper_vertex(g, col)
            ok = ok and v.ok and not v.violations
        for col in _edge_algorithms(g, a):
            v = is_proper_edge(g, col)
            ok = ok and v.ok and not v.violations
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    announce(capsys, 1, ok,
             f"all algorithms proper on {len(the_corpus())} graphs "
             f"({elapsed:.1f}s)")


def test_criterion_2_refined_exact_bound(capsys):
    ok = True
    g, cover = gen_line_of(60, 25, seed=1)
    ok = ok and cover.D == 2
    for x in (1, 2, 3):
        col, _ = refined_coloring(g, cover, x)
        ok = ok and is_proper_vertex(g, col).ok
        ok = ok and col.palette_size <= 2 ** (x + 1) * cover.S
    hg, hcover = gen_hyper_line(24, 3, 40, seed=3)
    ok = ok and hcover.D == 3
    for x in (1, 2, 3):
        col, _ = refined_coloring(hg, hcover, x)
        ok = ok and is_proper_vertex(hg, col).ok
        ok = ok and col.palette_size <= 3 ** (x + 1) * hcover.S
    announce(capsys, 2, ok,
             "refined_coloring within D^(x+1)*S on line and hyper-line graphs")


def test_criterion_3_star_partition_bounds(capsys):
    ok = True
    for delta in (9, 16, 25, 36):
        g = gen_random(5 * delta, delta, seed=delta)
        col, _ = star_edge_coloring_4delta(g)
        ok = ok and col.palette_size <= 4 * delta and is_proper_edge(g, col).ok
    g = gen_random(160, 27, seed=2)
    for x in (2, 3):
        col, _ = recursive_star_edge_coloring(g, x)
        ok = ok and col.palette_size <= 2 ** (x + 1) * 27
        ok = ok and is_proper_edge(g, col).ok
    announce(capsys, 3, ok, "4*Delta and 2^(x+1)*Delta star-partition bounds")


def test_criterion_4_decomposition_audit(capsys):
    ok = True
    cases = [(gen_complete(16), 2, 2), (gen_random(40, 10, seed=4), 2, 2),
             (gen_random(60, 8, seed=7), 2, 1)]
    for g, t, x in cases:
        cover = enumerate_maximal_cliques(g)
        col, report = cd_coloring(g, cover, t, x)
        gamma = cover.D * (t - 1) + 1
        leaf_radix = col.palette_size // gamma ** x
        leaves = {}
        for v, c in col.assignment.items():
            leaves.setdefault(c // leaf_radix, []).append(v)
        ok = ok and len(leaves) <= (t * cover.D) ** x
        ok = ok and report.leaf_count() <= (t * cover.D) ** x
        for vs in leaves.values():
            sub = induced_subgraph(g, vs)
            ok = ok and brute_force_max_clique(sub) <= cover.S / t ** x + 2
    announce(capsys, 4, ok,
             "audit: leaf count <= (tD)^x, leaf cliques <= S/t^x + 2")


def test_criterion_5_merge_lemma(capsys):
    ok = True
    for seed in range(20):
        rng = random.Random(seed)
        g = gen_random(36, 6, seed=200 + seed)
        d = g.max_degree
        A = {v for v in g.adj if rng.random() < 0.4}
        B = set(g.adj) - A
        colA = greedy_edge_baseline(induced_subgraph(g, A))
        colB = greedy_edge_baseline(induced_subgraph(g, B))
        col, rounds = merge_cross_coloring(g, A, B, colA, colB, d)
        ok = ok and rounds == d and is_proper_edge(g, col).ok
        low = g.max_degree + d - 1
        for u, v in g.edges():
            if (u in A) != (v in A):
                ok = ok and col.assignment[(u, v)] < low
    announce(capsys, 5, ok,
             "merge: d rounds exactly, crossing palette <= Delta+d-1, proper")


def test_criterion_6_arb_and_powered_palettes(capsys):
    ok = True
    cases = [(gen_forest(120, 9, seed=1), 1), (gen_complete(9), 4),
             (gen_random(150, 12, seed=5), None)]
    for g, a in cases:
        a = a if a is not None else estimate_arboricity(g)
        col, _ = arb_edge_coloring(g, a)
        ok = ok and col.palette_size == arb_palette_bound(g.max_degree, a)
        ok = ok and col.palette_size <= g.max_degree + math.ceil(ARB_C * a)
    powered_cases = [(gen_forest(300, 27, seed=9), 1), (gen_complete(9), 4)]
    g = gen_random(200, 16, seed=8)
    powered_cases.append((g, estimate_arboricity(g)))
    for g, a in powered_cases:
        for x in (1, 2, 3):
            col, _ = powered_edge_coloring(g, a, 2.5, x)
            bound = powered_palette_bound(g.max_degree, a, 2.5, x)
            ok = ok and col.palette_size <= bound and is_proper_edge(g, col).ok
    announce(capsys, 6, ok,
             "arb-edge exact closed form; powered within (..+3)^x, x in 1..3")


def test_criterion_7_little_o_regime(capsys):
    ratios = []
    ok = True
    for delta in (16, 64, 256):
        f = gen_forest(4 * delta, delta, seed=delta)
        col, _ = delta_plus_little_o(f, 1)
        ok = ok and is_proper_edge(f, col).ok
        ratio = col.palette_size / delta
        ok = ok and ratio <= 1 + LITTLE_O_C1 / math.sqrt(delta) + LITTLE_O_C2 / delta
        ratios.append(ratio)
    ok = ok and ratios[0] > ratios[1] > ratios[2]
    announce(capsys, 7, ok,
             f"colors/Delta strictly decreasing {['%.2f' % r for r in ratios]} "
             "and within 1 + C1/sqrt(D) + C2/D")


def test_criterion_8_log_star_behavior(capsys):
    start = time.monotonic()
    rounds = []
    ok = True
    for n in (2 ** 4, 2 ** 16, 10 ** 6):
        g = gen_path(n)
        col, trace = linial_coloring(g)
        ok = ok and col.palette_size <= LINIAL_CL * g.max_degree ** 2
        rounds.append(trace.rounds)
    ok = ok and rounds[1] - rounds[0] <= 2 and rounds[2] - rounds[1] <= 2
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    announce(capsys, 8, ok,
             f"linial rounds {rounds} on paths up to 10^6 ({elapsed:.1f}s)")


def test_criterion_9_oracle_equivalence(capsys):
    ok = True
    for name, g, cover, a in the_corpus():
        if g.n > 12 or g.m == 0:
            continue
        col, _ = star_edge_coloring_4delta(g)
        # dual route: edge coloring of g == vertex coloring of L(g)
        lg, _ = line_graph(g)
        ids = {e: i for i, e in enumerate(sorted(g.edges()))}
        vcol = Coloring("vertex", {ids[e]: c for e, c in col.assignment.items()},
                        col.palette_size)
        ok = ok and is_proper_vertex(lg, vcol).ok == is_proper_edge(g, col).ok
        if g.n <= 10:
            cov = _cover_of(g, cover)
            vert, _ = cd_coloring(g, cov, choose_params(cov.S, 1), 1)
            ok = ok and vert.colors_used() >= brute_force_chromatic(g)
            if g.m <= 16:
                ok = ok and col.colors_used() >= brute_force_edge_chromatic(g)
    announce(capsys, 9, ok,
             "outputs >= brute-force chromatic numbers; line-graph dual agrees")


def test_criterion_10_h_partition(capsys):
    ok = True
    for name, g, cover, a in the_corpus():
        if g.m == 0:
            continue
        est = a if a is not None else estimate_arboricity(g)
        hp = h_partition(g, est, 2.5)
        hp.validate(g)
        ok = ok and hp.ell <= 2 * math.log2(max(g.n, 2))
        ells = [h_partition(g, est, q).ell for q in (2.5, 3.5, 5.0)]
        ok = ok and all(x >= y for x, y in zip(ells, ells[1:]))
    announce(capsys, 10, ok,
             "H-partition invariant exhaustive; ell <= 2*log2(n); ell anti-monotone in q")


def test_criterion_11_determinism(capsys, tmp_path):
    from localcolor.cli import main

    path = tmp_path / "g.el"
    main(["gen", "--kind", "random", "--n", "50", "--delta", "10",
          "--seed", "5", "--out", str(path)])
    capsys.readouterr()

    def snapshot(argv):
        code = main(argv)
        out = capsys.readouterr().out
        report = json.loads(out)
        report.pop("wall_time_s", None)
        return code, json.dumps(report, sort_keys=True)

    ok = True
    for argv in (["star-edge", "--input", str(path), "--x", "2"],
                 ["cd-color", "--input", str(path), "--x", "1"],
                 ["powered", "--input", str(path), "--x", "2", "--a", "5"]):
        first = snapshot(argv)
        second = snapshot(argv)
        ok = ok and first == second and first[0] == 0
    announce(capsys, 11, ok, "repeated runs byte-identical modulo wall time")
