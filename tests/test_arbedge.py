import dataclasses
import math
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from localcolor import arbedge, staredge
from localcolor.arbedge import (_connector_degree, _connector_walk,
                                arb_edge_coloring, arb_palette_bound,
                                acyclic_orientation, delta_plus_little_o,
                                estimate_arboricity, h_partition,
                                little_o_palette_bound, merge_cross_coloring,
                                powered_edge_coloring, powered_palette_bound)
from localcolor.graph import (Coloring, Graph, GraphError, VerificationError, induced_subgraph,
                              norm_edge)
from localcolor.io import gen_complete, gen_forest, gen_grid, gen_matching, gen_path, gen_random, gen_star
from localcolor.verify import count_colors, greedy_edge_baseline, is_proper_edge


def test_h_partition_examples():
    assert h_partition(gen_path(50), 1).ell == 1
    hp = h_partition(gen_star(10), 1)
    assert hp.ell == 2
    assert len(hp.sets[0]) == 9 and hp.sets[1] == (9,)
    assert h_partition(gen_complete(9), 4).ell == 1


def test_h_partition_stall_diagnostic():
    with pytest.raises(GraphError, match="stall"):
        h_partition(gen_complete(9), 1)


@pytest.mark.parametrize("q", [math.nan, math.inf, 1e308])
def test_h_partition_rejects_non_finite_q(q):
    # 1e308 is finite, but q*a is not
    with pytest.raises(GraphError, match="q"):
        h_partition(gen_path(5), 2, q)


def test_bounds_and_matchings_reject_non_finite_q():
    with pytest.raises(GraphError, match="q"):
        arb_palette_bound(5, 2, math.inf)
    with pytest.raises(GraphError, match="q"):
        powered_palette_bound(5, 2, math.nan, 2)
    with pytest.raises(GraphError, match="q"):
        delta_plus_little_o(gen_matching(3), 1, math.nan)


def test_q_times_a_is_exact():
    # 2.51 * 100 is 250.99999999999997 as floats; q is read as 251/100
    g = gen_random(40, 6, seed=1)
    assert h_partition(g, 100, 2.51).d == 251
    assert arb_palette_bound(6, 100, 2.51) == 6 + 251 - 1 + 4 * 251
    # 2.5 is the floor, with no tolerance below it
    with pytest.raises(GraphError, match="q must be at least 2.5"):
        h_partition(g, 100, 2.4999999999)


def test_h_partition_ell_shrinks_with_q():
    g = gen_random(200, 12, seed=3)
    a = estimate_arboricity(g)
    ells = [h_partition(g, a, q).ell for q in (2.5, 3.0, 4.0, 6.0)]
    assert all(x >= y for x, y in zip(ells, ells[1:]))


def test_orientation_star_and_triangle():
    star = gen_star(10)
    hp = h_partition(star, 1)
    o = acyclic_orientation(star, hp)
    assert all(o.out[v] == (9,) for v in range(9))  # all edges leaf -> center
    assert o.out[9] == ()

    tri = gen_complete(3)
    o = acyclic_orientation(tri, h_partition(tri, 2))
    assert o.out[0] == (1, 2) and o.out[1] == (2,)
    assert o.topo_order() == [0, 1, 2]


def test_orientation_out_degree_bound():
    g = gen_random(120, 10, seed=7)
    hp = h_partition(g, estimate_arboricity(g))
    o = acyclic_orientation(g, hp)
    assert o.max_out_degree <= hp.d
    o.topo_order()  # acyclicity


def test_orientation_certificate_fires(monkeypatch):
    # 0 -> 1 -> 2 handed over as 0 -> 1 <- 2: within d and acyclic, but
    # the arc (2, 1) goes down the key (H-set, ID) inside one H-set
    real = arbedge.Orientation
    monkeypatch.setattr(arbedge, "Orientation",
                        lambda g, out: real(g, {0: (1,), 1: (), 2: (1,)}))
    path = gen_path(3)
    with pytest.raises(VerificationError, match=r"arc \(2, 1\) does not go up"):
        acyclic_orientation(path, h_partition(path, 1))


def test_topo_order_rejects_a_cycle():
    o = arbedge.Orientation(gen_complete(3), {0: (1,), 1: (2,), 2: (0,)})
    with pytest.raises(GraphError, match="orientation contains a cycle"):
        o.topo_order()


def test_merge_cross_coloring_hand_example():
    g = Graph.from_edges([0, 1, 2], [(0, 1), (0, 2)])
    col, rounds = merge_cross_coloring(g, [0], [1, 2],
                                       Coloring("edge", {}, 1),
                                       Coloring("edge", {}, 1), d=2)
    assert rounds == 2
    assert sorted(col.assignment.values()) == [0, 1]
    assert max(col.assignment.values()) < g.max_degree + 2 - 1


def test_merge_no_crossing_edges():
    g = gen_matching(2)  # edges (0,1) and (2,3); A={0,1}, B={2,3}
    colA = Coloring("edge", {(0, 1): 0}, 1)
    colB = Coloring("edge", {(2, 3): 0}, 1)
    col, rounds = merge_cross_coloring(g, [0, 1], [2, 3], colA, colB, d=1)
    assert col.assignment[(2, 3)] == 0
    assert is_proper_edge(g, col).ok


def test_merge_lemma_random_instances():
    for seed in range(20):
        rng = random.Random(seed)
        g = gen_random(40, 6, seed=100 + seed)
        d = g.max_degree
        A = {v for v in g.adj if rng.random() < 0.35}
        B = set(g.adj) - A
        colA = greedy_edge_baseline(induced_subgraph(g, A))
        colB = greedy_edge_baseline(induced_subgraph(g, B))
        col, rounds = merge_cross_coloring(g, A, B, colA, colB, d)
        assert rounds == d
        assert is_proper_edge(g, col).ok
        low = g.max_degree + d - 1
        for u, v in g.edges():
            if (u in A) != (v in A):
                assert col.assignment[(u, v)] < low


def test_merge_precondition_rejected():
    g = gen_star(5)  # center 4 has degree 4, one above d
    with pytest.raises(GraphError, match=r"^vertex 4 in A has degree 4 > d=3$"):
        merge_cross_coloring(g, [4], [0, 1, 2, 3],
                             Coloring("edge", {}, 1),
                             Coloring("edge", {}, 1), d=3)


def test_orientation_above_d_raises():
    g = gen_random(120, 10, seed=7)
    hp = h_partition(g, estimate_arboricity(g))
    top = acyclic_orientation(g, hp).max_out_degree
    assert top == 10
    with pytest.raises(VerificationError, match=r"^out-degree 10 exceeds d=9$"):
        acyclic_orientation(g, dataclasses.replace(hp, d=top - 1))


def test_arb_edge_closed_form():
    t = gen_forest(120, 9, seed=1)
    col, trace = arb_edge_coloring(t, 1)
    assert is_proper_edge(t, col).ok
    assert col.palette_size == arb_palette_bound(t.max_degree, 1)

    k9 = gen_complete(9)
    col, _ = arb_edge_coloring(k9, 4)
    assert is_proper_edge(k9, col).ok
    assert col.palette_size == arb_palette_bound(8, 4)

    m = gen_matching(5)
    col, _ = arb_edge_coloring(m, 1)
    assert col.colors_used() == 1


def test_orientation_connector_star_example():
    star = gen_star(10)
    o = acyclic_orientation(star, h_partition(star, 1))
    conn = _connector_walk(sorted(o.oriented_edges()), 3, 1, 9)
    assert _connector_degree(conn, 3 + 1, 9) == 3
    derived = Graph.from_edges(chain.from_iterable(conn), conn)
    # center has 9 incoming edges in 3 groups of 3; leaves one out-virtual
    center_virtuals = [x for x in derived.adj if x // 9 == 9]
    assert len(center_virtuals) == 3
    assert all(derived.degree(i) == 3 for i in center_virtuals)
    assert derived.m == 9


def test_orientation_connector_sink_has_no_out_groups():
    star = gen_star(4)
    o = acyclic_orientation(star, h_partition(star, 1))
    conn = _connector_walk(sorted(o.oriented_edges()), 2, 2, 3)
    assert _connector_degree(conn, 2 + 2, 3) == 2
    derived = Graph.from_edges(chain.from_iterable(conn), conn)
    # the sink center has no out-arcs, so its virtuals are its two
    # in-chunks: (3, 0) with two arcs and (3, 1) with one
    center = [x for x in derived.adj if x // 3 == 3]
    assert [divmod(x, 3) for x in center] == [(3, 0), (3, 1)]
    assert [derived.degree(i) for i in center] == [2, 1]


def test_little_o_class_degree_check_fires(monkeypatch):
    # a one-color phi puts the whole star in one class: Delta = 6 is one
    # over k + ceil(sqrt(d)) = 3 + 2 at a = 1
    real = arbedge._arb_edge_coloring

    def one_color_phi(edges, delta, a, q):
        monkeypatch.setattr(arbedge, "_arb_edge_coloring", real)  # for the classes
        col, trace = real(edges, delta, a, q)
        return Coloring("edge", dict.fromkeys(col.assignment, 0), col.palette_size), trace

    monkeypatch.setattr(arbedge, "_arb_edge_coloring", one_color_phi)
    with pytest.raises(VerificationError, match="class has degree 6 > 5"):
        delta_plus_little_o(gen_star(7), 1)


def test_little_o_regime():
    ratios = []
    for delta in (16, 64, 256):
        f = gen_forest(4 * delta, delta, seed=delta)
        col, _ = delta_plus_little_o(f, 1)
        assert is_proper_edge(f, col).ok
        assert col.palette_size <= little_o_palette_bound(delta, 1)
        ratios.append(col.palette_size / delta)
    assert ratios[0] > ratios[1] > ratios[2]


def test_little_o_grid_and_matching():
    grid = gen_grid(6, 6)
    col, _ = delta_plus_little_o(grid, 2)
    assert is_proper_edge(grid, col).ok
    m = gen_matching(3)
    col, _ = delta_plus_little_o(m, 1)
    assert col.colors_used() == 1


def test_powered_bounds():
    f = gen_forest(300, 81, seed=5)
    for x in (1, 2, 3):
        col, _ = powered_edge_coloring(f, 1, 3.0, x)
        assert is_proper_edge(f, col).ok
        assert col.palette_size <= powered_palette_bound(81, 1, 3.0, x)
    # worked example: x=2, Delta=81, a=1, q=3 stays within 196
    col, _ = powered_edge_coloring(f, 1, 3.0, 2)
    assert col.palette_size <= (9 + 2 + 3) ** 2

    g4 = gen_random(200, 8, seed=6)
    for x in (1, 2, 3):
        col, _ = powered_edge_coloring(g4, 4, 2.5, x)
        assert is_proper_edge(g4, col).ok
        assert col.palette_size <= powered_palette_bound(8, 4, 2.5, x)



@pytest.mark.parametrize("x", [1, 2, 3])
def test_powered_leaves_walk_tails_down_the_hset_id_key(monkeypatch, x):
    # every leaf first-fits its (tail, head) arcs with the tails going
    # down (H-set, ID) and each tail's heads ascending, an order IDs decide
    g, a = gen_random(60, 9, seed=1), 3
    hp = h_partition(g, a)
    assert hp.ell == 8
    out = acyclic_orientation(g, hp).out
    first_fit, leaves = arbedge._first_fit, []

    def spy(edges, mask, palette):
        leaves.append(list(edges))
        return first_fit(edges, mask, palette)

    monkeypatch.setattr(arbedge, "_first_fit", spy)
    powered_edge_coloring(g, a, arbedge.DEFAULT_Q, x)
    assert sum(map(len, leaves)) == g.m
    for arcs in leaves:
        assert all(w in out[v] for v, w in arcs)
        for (v, w), (v2, w2) in zip(arcs, arcs[1:]):
            assert (hp.set_of[v], v) > (hp.set_of[v2], v2) or (v == v2 and w < w2)


def test_powered_palette_bound_uses_exact_roots():
    # the float root ceil(r**5 ** 0.2) is r+1 on every one of these
    for r in range(5, 2000):
        assert powered_palette_bound(r ** 5, 1, 2.5, 5) == (r + 2 + 3) ** 5, r
        assert powered_palette_bound(r ** 5 + 1, 1, 2.5, 5) == (r + 1 + 2 + 3) ** 5, r
    # a_hat = q*a need not be an integer: an integer root reaches it exactly
    # when it reaches ceil(a_hat).  Delta = 27 keeps x = 3 within its cap.
    assert powered_palette_bound(27, 3, 2.7, 3) == (3 + 3 + 3) ** 3  # a_hat = 8.1
    assert powered_palette_bound(27, 2, 4.0, 3) == (3 + 2 + 3) ** 3  # a_hat = 8
    assert powered_palette_bound(0, 1, 2.5, 2) == 0 + 3 + 3  # Delta = 0 caps x at 1

def test_powered_x1_matches_direct_palette():
    f = gen_forest(60, 6, seed=2)
    col, _ = powered_edge_coloring(f, 1, 2.5, 1)
    # one level: plain oriented coloring with Delta + out - 1 colors
    assert col.palette_size <= f.max_degree + int(2.5) - 1


def test_estimate_arboricity():
    assert estimate_arboricity(gen_forest(50, 4, seed=0)) == 1
    assert estimate_arboricity(gen_complete(9)) == 4


def _min_scan_arboricity(g):
    """Reference: peel a vertex of least remaining degree by scanning all
    remaining vertices, O(n^2)."""
    remaining = {v: set(g.adj[v]) for v in g.adj}
    degen = 0
    while remaining:
        v = min(remaining, key=lambda u: (len(remaining[u]), u))
        degen = max(degen, len(remaining[v]))
        for w in remaining[v]:
            remaining[w].discard(v)
        del remaining[v]
    return max(1, -(-degen // 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 25), st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)),
                                    max_size=80))
def test_estimate_arboricity_matches_min_scan(n, pairs):
    g = Graph.from_edges(range(n), [(u, v) for u, v in pairs if u != v and max(u, v) < n])
    assert estimate_arboricity(g) == _min_scan_arboricity(g)


def test_hset_internal_edges_are_one_star_scheme_run():
    # the H-sets share no vertex, so their internal edges are colored by one
    # star-scheme run with one t, shifted past the crossing edges' low range
    g, a = gen_random(60, 9, seed=1), 3
    hp = h_partition(g, a)
    assert hp.ell == 8
    low = g.max_degree + hp.d - 1
    internal = [e for e in sorted(g.edges()) if hp.set_of[e[0]] == hp.set_of[e[1]]]
    star, _ = arbedge._star_edge_coloring(internal, 1)
    col, _ = arb_edge_coloring(g, a)
    assert {e: col.assignment[e] for e in internal} == \
        {e: low + c for e, c in star.assignment.items()}
    assert all(c < low for e, c in col.assignment.items() if e not in star.assignment)
    assert col.palette_size == arb_palette_bound(g.max_degree, a)
    assert count_colors(col)[0] == 17


def test_improper_leaf_colorings_raise(monkeypatch):
    g = gen_random(60, 9, seed=2)
    a = estimate_arboricity(g)
    star, first_fit = arbedge._star_edge_coloring, arbedge._first_fit

    def clashing_star(edges, x, delta):
        col, rep = star(edges, x, delta)
        return Coloring("edge", dict.fromkeys(col.assignment, 0), col.palette_size), rep

    # the H-set colorings are not checked on their own, so
    # arb_edge_coloring must catch the clash itself
    monkeypatch.setattr(arbedge, "_star_edge_coloring", clashing_star)
    with pytest.raises(GraphError, match="improper"):
        arb_edge_coloring(g, a)
    monkeypatch.undo()
    # powered's leaves are its one first fit
    monkeypatch.setattr(arbedge, "_first_fit",
                        lambda *args: dict.fromkeys(first_fit(*args), 0))
    with pytest.raises(GraphError, match="improper"):
        powered_edge_coloring(g, a, arbedge.DEFAULT_Q, 2)


def test_hpartition_validate_raises():
    g = gen_complete(4)
    hp = h_partition(g, 2)  # d = 5: one set
    with pytest.raises(GraphError, match="more than d=2"):
        dataclasses.replace(hp, d=2).validate(g)
    with pytest.raises(GraphError, match="do not partition"):
        dataclasses.replace(hp, sets=[(0, 1, 2)]).validate(g)


def test_orientation_connector_rejects_an_overfull_virtual():
    # out-split 2 puts both out-arcs of vertex 0 on its one out-chunk,
    # the virtual (0, 0), which then has two connector edges against a cap of 1
    arcs = [(0, 1), (0, 2)]
    with pytest.raises(GraphError, match=r"vertex \(0, 0\) has degree 2 > 1"):
        _connector_degree(_connector_walk(arcs, 1, 2, 3), 1, 3)


def test_connector_degree_names_the_lowest_overfull_virtual():
    # cap 1: head 5's in-chunk (5, 0) fills first, tail 2's out-chunk
    # (2, 0) later; the message names the lower one
    arcs = [(0, 5), (1, 5), (2, 3), (2, 4)]
    conn = _connector_walk(arcs, 2, 2, 2)
    assert Counter(chain.from_iterable(conn)) == {0: 1, 2: 1, 10: 2, 4: 2, 6: 1, 8: 1}
    with pytest.raises(GraphError, match=r"vertex \(2, 0\) has degree 2 > 1"):
        _connector_degree(conn, 1, 2)


def test_connector_degree_rejects_a_shared_connector_edge():
    # a repeated arc puts one connector edge on two base edges: exactly one
    # repeat, and it is reported before the overfull virtuals it also makes
    conn = _connector_walk([(0, 1), (0, 1)], 2, 2, 2)
    assert conn == [(0, 2), (0, 2)]
    for cap in (1, 2):
        with pytest.raises(GraphError, match="two base edges share a connector edge"):
            _connector_degree(conn, cap, 2)


def test_arb_edge_is_one_star_run_exactly_when_delta_is_within_d(monkeypatch):
    star = gen_star(10)  # Delta = 9
    real, calls = arbedge.h_partition, []
    monkeypatch.setattr(arbedge, "h_partition", lambda *args: calls.append(args) or real(*args))
    col, trace = arb_edge_coloring(star, 1, 9)  # d = 9: one H-set, no H-partition built
    assert calls == [] and trace.phase_breakdown == [("hset-internal", 0), ("merge-sweep", 0)]
    assert col.palette_size == arb_palette_bound(9, 1, 9)
    col, trace = arb_edge_coloring(star, 1, 8)  # d = 8: the center is a second H-set
    assert len(calls) == 1 and trace.phase_breakdown == [("hset-internal", 0), ("merge-sweep", 8)]
    assert col.palette_size == arb_palette_bound(9, 1, 8)


def test_arb_edge_palette_check_fires(monkeypatch):
    # a bound one above the palette, on one H-set (the path) and on two (the star)
    real = arbedge.arb_palette_bound
    monkeypatch.setattr(arbedge, "arb_palette_bound",
                        lambda delta, a, q=arbedge.DEFAULT_Q: real(delta, a, q) + 1)
    for g in (gen_path(10), gen_star(10)):
        with pytest.raises(VerificationError, match="is not arb_palette_bound"):
            arb_edge_coloring(g, 1)


# the three entry points that take an arboricity a, with x=2 for powered
A_AND_Q_ENTRY_POINTS = {
    "arb": arb_edge_coloring,
    "little_o": delta_plus_little_o,
    "powered": lambda g, a, q: powered_edge_coloring(g, a, q, 2),
}


@pytest.mark.parametrize("a, q, message", [(0, arbedge.DEFAULT_Q, "a must be at least 1"),
                                           (1, math.nan, "q")], ids=["a=0", "q=nan"])
@pytest.mark.parametrize("graph", [Graph.from_edges(range(3), []), gen_matching(3)],
                         ids=["edgeless", "matching"])
@pytest.mark.parametrize("entry", sorted(A_AND_Q_ENTRY_POINTS))
def test_entry_points_check_a_and_q_before_the_degree_shortcut(entry, graph, a, q, message):
    # a graph of max degree 0 or 1 is colored without an H-partition; a and
    # q are still checked first
    with pytest.raises(GraphError, match=message):
        A_AND_Q_ENTRY_POINTS[entry](graph, a, q)


def test_bounds_reject_a_below_one():
    for bound in (lambda: arb_palette_bound(5, -3), lambda: little_o_palette_bound(5, 0),
                  lambda: powered_palette_bound(5, 0, arbedge.DEFAULT_Q, 2)):
        with pytest.raises(GraphError, match="a must be at least 1"):
            bound()


@pytest.mark.parametrize("module, bound, run", [
    (staredge, "star_palette_bound", lambda g, a: staredge.recursive_star_edge_coloring(g, 2)),
    (arbedge, "powered_palette_bound",
     lambda g, a: powered_edge_coloring(g, a, arbedge.DEFAULT_Q, 2)),
    (arbedge, "little_o_palette_bound", lambda g, a: delta_plus_little_o(g, a)),
], ids=["star", "powered", "little_o"])
def test_declared_palette_above_its_bound_raises(monkeypatch, module, bound, run):
    # each entry point's declared palette goes through the one bound check
    # of the edge recursion, which raises before any class is colored
    g = gen_random(120, 9, seed=1)
    a = estimate_arboricity(g)
    declared = run(g, a)[0].palette_size
    monkeypatch.setattr(module, bound, lambda *args: declared - 1)
    with pytest.raises(VerificationError,
                       match=rf"^palette {declared} exceeds {bound} = {declared - 1}$"):
        run(g, a)


@pytest.mark.parametrize("pick, message", [
    (lambda arcs: [arc for arc in arcs if arc[1] == 3][:4],
     "degree 4 and out-degree 1, above 3 and 1"),
    (lambda arcs: [arc for arc in arcs if arc[0] == 0],
     "degree 2 and out-degree 2, above 3 and 1"),
], ids=["degree", "out-degree"])
def test_powered_class_above_its_level_bounds_raises(monkeypatch, pick, message):
    # a level that hands the leaf one class of its picking: four in-arcs
    # of the star's center, or the cherry's two out-arcs of vertex 0, one
    # above the leaf's degree or out-degree bound (Delta=8 caps x at 2;
    # a=1: d=2, gout=3, gin=4)
    g = Graph.from_edges(range(12), [(0, 1), (0, 2)] + [(3, v) for v in range(4, 12)])
    monkeypatch.setattr(arbedge, "_connector_level",
                        lambda arcs, *_, **__: ([pick(arcs)], {}, {}))
    with pytest.raises(VerificationError, match=f"^level 1 class has {message}$"):
        powered_edge_coloring(g, 1, arbedge.DEFAULT_Q, 2)


def test_powered_class_count_above_level_palette_raises(monkeypatch):
    # a connector level with more classes than its gin+gout-1 colors is a
    # failed post-condition (CLI exit 1), not a bad input (exit 2)
    real = arbedge._connector_level

    def one_class_too_many(arcs, *args, **kwargs):
        classes, *ranks = real(arcs, *args, **kwargs)
        return classes + [[]], *ranks

    monkeypatch.setattr(arbedge, "_connector_level", one_class_too_many)
    g = gen_random(120, 9, seed=1)
    with pytest.raises(VerificationError, match="split into"):
        powered_edge_coloring(g, estimate_arboricity(g), arbedge.DEFAULT_Q, 2)
