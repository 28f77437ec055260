import pytest

from localcolor.graph import Coloring, Graph, GraphError
from localcolor.io import gen_complete, gen_matching, gen_random
from localcolor.verify import (brute_force_chromatic, brute_force_edge_chromatic,
                               brute_force_max_clique, count_colors,
                               greedy_edge_baseline, greedy_vertex_baseline,
                               is_proper_edge, is_proper_vertex)
from helpers import cycle, petersen


def test_oracles_on_petersen():
    g = petersen()
    assert brute_force_max_clique(g) == 2
    assert brute_force_chromatic(g) == 3
    assert brute_force_edge_chromatic(g) == 4


def test_oracles_on_k4():
    g = gen_complete(4)
    assert brute_force_max_clique(g) == 4
    assert brute_force_chromatic(g) == 4
    assert brute_force_edge_chromatic(g) == 3


def test_oracles_on_c5():
    g = cycle(5)
    assert brute_force_max_clique(g) == 2
    assert brute_force_chromatic(g) == 3
    assert brute_force_edge_chromatic(g) == 3


def test_oracle_size_caps():
    with pytest.raises(GraphError):
        brute_force_chromatic(gen_random(11, 4, seed=0))
    with pytest.raises(GraphError):
        brute_force_edge_chromatic(gen_random(20, 4, seed=0))
    with pytest.raises(GraphError):
        brute_force_max_clique(gen_random(31, 4, seed=0))


def test_proper_vertex_verdicts():
    g = gen_complete(3)
    ok = is_proper_vertex(g, Coloring("vertex", {0: 0, 1: 1, 2: 2}, 3))
    assert ok.ok and not ok.violations
    bad = is_proper_vertex(g, Coloring("vertex", {0: 5, 1: 5, 2: 2}, 6))
    assert not bad.ok and (0, 1) in bad.violations


def test_proper_edge_verdicts():
    m = gen_matching(3)
    allzero = Coloring("edge", {e: 0 for e in m.edges()}, 1)
    assert is_proper_edge(m, allzero).ok
    star = Graph.from_edges(range(3), [(0, 2), (1, 2)])
    bad = Coloring("edge", {(0, 2): 7, (1, 2): 7}, 8)
    v = is_proper_edge(star, bad)
    assert not v.ok and v.violations


def test_partial_colorings_rejected():
    g = gen_complete(3)
    with pytest.raises(GraphError):
        is_proper_vertex(g, Coloring("vertex", {0: 0, 1: 1}, 2))
    with pytest.raises(GraphError):
        is_proper_edge(g, Coloring("edge", {(0, 1): 0}, 1))


def test_count_colors():
    c = Coloring("vertex", {0: 0, 1: 3, 2: 0}, 9)
    assert count_colors(c) == (2, 9)
    assert count_colors(Coloring("edge", {}, 4)) == (0, 4)


def test_count_colors_names_the_first_color_beyond_the_palette():
    c = Coloring("vertex", {0: 0, 1: 3, 2: 5, 3: 1}, 9)
    c.palette_size = 2  # shrunk after the constructor's check
    with pytest.raises(GraphError, match=r"^color 3 of 1 beyond declared palette$"):
        count_colors(c)


def test_greedy_baselines():
    g = gen_random(50, 8, seed=1)
    vc = greedy_vertex_baseline(g)
    assert vc.palette_size <= g.max_degree + 1
    assert is_proper_vertex(g, vc).ok
    ec = greedy_edge_baseline(g)
    assert ec.palette_size <= 2 * g.max_degree - 1
    assert is_proper_edge(g, ec).ok


def test_stray_items_rejected():
    g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match=r"not in the graph: \[7\]"):
        is_proper_vertex(g, Coloring("vertex", {0: 0, 1: 1, 2: 0, 7: 4}, 5))
    with pytest.raises(GraphError, match=r"not in the graph: \[\(5, 9\)\]"):
        is_proper_edge(g, Coloring("edge", {(0, 1): 0, (1, 2): 1, (5, 9): 2}, 3))
    # an unnormalized key is not an edge of the graph either
    with pytest.raises(GraphError, match=r"not in the graph: \[\(1, 0\)\]"):
        is_proper_edge(g, Coloring("edge", {(0, 1): 0, (1, 2): 1, (1, 0): 2}, 3))
    # at most five stray items are named
    many = {v: 0 for v in range(3, 20)} | {0: 0, 1: 1, 2: 0}
    with pytest.raises(GraphError, match=r"\[3, 4, 5, 6, 7\]$"):
        is_proper_vertex(g, Coloring("vertex", many, 2))
