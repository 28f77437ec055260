import math

import pytest
from hypothesis import given, settings, strategies as st

from localcolor import staredge
from localcolor.basecolor import _int_floor_root
from localcolor.graph import Graph, GraphError, VerificationError, line_graph
from localcolor.io import gen_matching, gen_path, gen_random, gen_star
from localcolor.arbedge import _first_fit
from localcolor.staredge import (_connector_level, recursive_star_edge_coloring,
                                 star_edge_coloring_4delta)
from localcolor.verify import (check_star_partition, greedy_edge_baseline, is_proper_edge,
                               is_proper_vertex)


def test_connector_degree_and_bijection():
    # one level's classes: a (2t-1, ceil(Delta/t))-star-partition that
    # holds every edge exactly once
    g = gen_random(60, 10, seed=1)
    t = 3
    classes, rank, _ = _connector_level(sorted(g.edges()), t, t, bipartite=False)
    assert max(rank.values()) == g.max_degree
    assert len(classes) == 2 * t - 1
    assert sum(len(c) for c in classes) == g.m
    assert all(c == sorted(c) for c in classes)
    assert check_star_partition(g, classes, 2 * t - 1, -(-g.max_degree // t))
    for t_tail, t_head, bipartite in [(1, 1, False), (2, 1, True), (1, 2, True)]:
        with pytest.raises(GraphError, match="t >= 2"):
            _connector_level(sorted(g.edges()), t_tail, t_head, bipartite)


def test_4delta_bound_over_target_deltas():
    for delta in (9, 16, 25, 36):
        g = gen_random(5 * delta, delta, seed=delta)
        assert g.max_degree == delta
        col, report = star_edge_coloring_4delta(g)
        assert is_proper_edge(g, col).ok
        assert col.palette_size <= 4 * delta
        t = max(2, math.isqrt(delta))
        k = -(-delta // t)
        assert report.max_star <= k


def test_4delta_trivial_graphs():
    m = gen_matching(4)
    col, _ = star_edge_coloring_4delta(m)
    assert col.colors_used() == 1
    s = gen_star(7)
    col, _ = star_edge_coloring_4delta(s)
    assert is_proper_edge(s, col).ok


def test_recursive_bound():
    g = gen_random(200, 27, seed=3)
    for x in (2, 3):
        col, report = recursive_star_edge_coloring(g, x)
        assert is_proper_edge(g, col).ok
        assert col.palette_size <= 2 ** (x + 1) * g.max_degree
    with pytest.raises(GraphError):
        recursive_star_edge_coloring(g, 0)


def test_int_floor_root_matches_definition():
    # floor(m^(1/r)): the largest x with x**r <= m
    for r in range(1, 7):
        for m in range(0, 3000):
            x = _int_floor_root(m, r)
            assert x ** r <= m < (x + 1) ** r, (m, r, x)
    # large bases, where the float root is off by more than one
    bases = list(range(2, 2000)) + [10 ** 17 + 3, 2 ** 70 + 1, 3 ** 40 + 7]
    for r in range(2, 6):
        for base in bases:
            assert _int_floor_root(base ** r, r) == base
            assert _int_floor_root(base ** r - 1, r) == base - 1


def test_recursive_t_on_a_perfect_cube():
    # Delta = 64 = 4^3: t = 4, leaf radix 2*ceil(64/16)-1 = 7, palette 7*7^2
    g = gen_random(300, 64, seed=0)
    col, _ = recursive_star_edge_coloring(g, 2)
    assert col.palette_size == (2 * 4 - 1) * 7 ** 2 == 343


def test_recursive_max_star_is_top_level_star():
    g = gen_random(200, 27, seed=3)
    t = 3  # floor(27^(1/3))
    _, report = recursive_star_edge_coloring(g, 2)
    assert 0 < report.max_star <= -(-g.max_degree // t)


def test_free_color_raises_on_exhausted_palette():
    # the star (0,3), (1,3) colored 0 and 1 leaves 2 as (2,3)'s first fit
    assert _first_fit([(0, 3), (1, 3), (2, 3)], dict.fromkeys(range(4), 0), 3) == \
        {(0, 3): 0, (1, 3): 1, (2, 3): 2}
    mask = {0: 0b01, 1: 0b10, 2: 0, 3: 0b11}  # colors 0 and 1 already at 3
    assert _first_fit([(0, 1)], dict(mask), 3) == {(0, 1): 2}
    with pytest.raises(GraphError, match=r"no free color for edge \(2, 3\) in a palette of 2"):
        _first_fit([(2, 3)], mask, 2)


def test_improper_leaf_coloring_raises(monkeypatch):
    real = staredge._greedy_edges
    calls = []

    def clashing(edges, mask):
        calls.append(edges)
        colors = real(edges, mask)
        if len(calls) == 1:  # the first leaf's coloring stays proper
            return colors
        return [0] * len(colors)

    monkeypatch.setattr(staredge, "_greedy_edges", clashing)
    with pytest.raises(GraphError, match="improper"):
        recursive_star_edge_coloring(gen_random(60, 9, seed=1), 1)


def test_class_star_above_its_level_bound_raises(monkeypatch):
    # a level that keeps every edge in one class hands the leaf a star of
    # Delta = 3, one above the bound ceil(3/t) = 2 for t = 2
    real = staredge._connector_level

    def one_class(pairs, *args, **kwargs):
        _, *ranks = real(pairs, *args, **kwargs)
        return [pairs], *ranks

    monkeypatch.setattr(staredge, "_connector_level", one_class)
    with pytest.raises(VerificationError, match="^class star 3 at level 1 exceeds 2$"):
        recursive_star_edge_coloring(gen_star(4), 1)


def test_palette_within_bound_without_a_trim_on_stars():
    # x is capped at the largest value with 2^(x+1) <= Delta, so the
    # combined palette never exceeds 2^(x+1)*Delta and no phase is added
    for delta in range(2, 201):
        g = gen_star(delta + 1)
        for x in range(1, 9):
            col, report = recursive_star_edge_coloring(g, x)
            assert col.palette_size <= 2 ** (x + 1) * delta, (delta, x)
            assert report.phase_breakdown == [], (delta, x)


def test_capped_depth_palettes():
    # Delta < 2^(x+1): the depth drops to max(1, bit_length(Delta) - 2)
    for g, x, palette in [(gen_path(50), 4, 3), (gen_random(40, 5, seed=1), 3, 15),
                          (gen_random(40, 7, seed=1), 2, 21),
                          (gen_random(60, 9, seed=1), 4, 45)]:
        col, report = recursive_star_edge_coloring(g, x)
        assert col.palette_size == palette
        assert is_proper_edge(g, col).ok
        assert report.phase_breakdown == []


def test_check_star_partition():
    g = gen_random(20, 5, seed=0)
    all_edges = list(g.edges())
    assert check_star_partition(g, [all_edges], p=1, q=g.max_degree)
    assert not check_star_partition(g, [all_edges], p=1, q=1)
    with pytest.raises(GraphError):
        check_star_partition(g, [all_edges[:-1]], p=1, q=g.max_degree)
    with pytest.raises(GraphError):
        check_star_partition(g, [all_edges, all_edges[:1]], 2, g.max_degree)


def test_edge_coloring_matches_line_graph_vertex_coloring():
    # dual route: an edge coloring of g is a vertex coloring of L(g)
    g = gen_random(12, 5, seed=6)
    col, _ = star_edge_coloring_4delta(g)
    lg, _ = line_graph(g)
    ids = {e: i for i, e in enumerate(sorted(g.edges()))}
    from localcolor.graph import Coloring
    vcol = Coloring("vertex", {ids[e]: c for e, c in col.assignment.items()},
                    col.palette_size)
    assert is_proper_vertex(lg, vcol).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_greedy_edge_palette_property(seed, delta):
    g = gen_random(3 * delta + 4, delta, seed=seed)
    col = greedy_edge_baseline(g)
    assert col.palette_size <= 2 * delta - 1
    assert is_proper_edge(g, col).ok


def test_star_level_ranks_come_from_the_edge_list():
    # 1..4 list 9 as a neighbor but 9 lists only 1.  A rank looked up in
    # 9's neighbor tuple would put all four edges on 9's first virtual;
    # the level counts ranks along its edge list instead, so 9 gets two
    # virtuals of two edges each and the classes are a (3, 2)-star-partition
    g = Graph({1: (9,), 2: (9,), 3: (9,), 4: (9,), 9: (1,)})
    edges = sorted(g.edges())
    assert edges == [(1, 9), (2, 9), (3, 9), (4, 9)]
    classes, rank, _ = _connector_level(edges, 2, 2, bipartite=False)
    assert rank[9] == 4
    assert classes == [[(1, 9), (3, 9)], [(2, 9), (4, 9)], []]
