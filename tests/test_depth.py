"""The one rule for the recursion depth x, ``graph._depth``: every family
that takes x refuses x < 1 with one GraphError (exit 2 from the CLI), and
runs past its cap exactly as at the cap.  The cap is the largest x with
2^(x+1) <= Delta for the edge families, S for the vertex ones, or 1."""

import pytest

from localcolor import arbedge, cdcolor, staredge
from localcolor.arbedge import estimate_arboricity
from localcolor.cli import ALGORITHMS, main
from localcolor.cliques import enumerate_maximal_cliques
from localcolor.graph import Graph, GraphError, line_graph
from localcolor.io import gen_random

TRIANGLE = Graph.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
Q = arbedge.DEFAULT_Q

# each x-taking coloring, choose_params and the five theory bounds
TAKES_X = {
    "recursive_star_edge_coloring":
        lambda x: staredge.recursive_star_edge_coloring(TRIANGLE, x),
    "powered_edge_coloring": lambda x: arbedge.powered_edge_coloring(TRIANGLE, 1, Q, x),
    "cd_coloring": lambda x: cdcolor.cd_coloring(*line_graph(TRIANGLE), 2, x),
    "refined_coloring": lambda x: cdcolor.refined_coloring(*line_graph(TRIANGLE), x),
    "choose_params": lambda x: cdcolor.choose_params(20, x),
    "star_palette_bound": lambda x: staredge.star_palette_bound(5, x),
    "powered_palette_bound": lambda x: arbedge.powered_palette_bound(5, 1, Q, x),
    "cd_envelope": lambda x: cdcolor.cd_envelope(3, 20, 2, x),
    "cd_palette_bound": lambda x: cdcolor.cd_palette_bound(3, 20, 2, x),
    "refined_palette_bound": lambda x: cdcolor.refined_palette_bound(3, 20, x),
}
X_COMMANDS = [command for command, (*_, options) in ALGORITHMS.items() if "x" in options]


@pytest.mark.parametrize("x", [0, -1])
@pytest.mark.parametrize("name", [*TAKES_X, *X_COMMANDS])
def test_x_below_one_is_one_graph_error(tmp_path, capsys, name, x):
    message = f"x must be at least 1, got x={x}"
    if name in TAKES_X:
        with pytest.raises(GraphError, match=f"^{message}$"):
            TAKES_X[name](x)
    else:
        path = tmp_path / "triangle"
        path.write_text("0 1\n1 2\n0 2\n")
        assert main([name, "--input", str(path), "--x", str(x)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _edge_run(run, bound):
    def family(g, x):
        a = estimate_arboricity(g)
        col, trace = run(g, a, x)
        return col, trace.rounds, bound(g.max_degree, a, x)
    return family


def _vertex_run(run, bound):
    def family(g, x):
        lg, cover = line_graph(g)
        col, trace = run(lg, cover, x)
        return col, trace.rounds, bound(cover.D, cover.S, x)
    return family


FAMILIES = {
    "star": _edge_run(lambda g, a, x: staredge.recursive_star_edge_coloring(g, x),
                      lambda delta, a, x: staredge.star_palette_bound(delta, x)),
    "powered": _edge_run(lambda g, a, x: arbedge.powered_edge_coloring(g, a, Q, x),
                         lambda delta, a, x: arbedge.powered_palette_bound(delta, a, Q, x)),
    "cd": _vertex_run(
        lambda lg, cover, x: cdcolor.cd_coloring(lg, cover, cdcolor.choose_params(cover.S, x), x),
        lambda D, S, x: cdcolor.cd_envelope(D, S, cdcolor.choose_params(S, x), x)),
    "refined": _vertex_run(cdcolor.refined_coloring, cdcolor.refined_palette_bound),
}


@pytest.mark.parametrize("graph, cap", [
    # Delta = 18, which is also the line graph's S: 2^4 <= 18 < 2^5
    (gen_random(60, 18, seed=1), 3),
    (TRIANGLE, 1),  # Delta = 2 and S = 2 are below 4
], ids=["delta-18", "triangle"])
@pytest.mark.parametrize("family", FAMILIES)
def test_x_past_the_cap_runs_as_the_cap(family, graph, cap):
    assert graph.max_degree == (18 if cap == 3 else 2)
    at_cap, past = (FAMILIES[family](graph, x) for x in (cap, cap + 1))
    assert at_cap[0].assignment == past[0].assignment
    assert at_cap[0].palette_size == past[0].palette_size
    assert at_cap[1:] == past[1:]  # rounds and theory bound
    if cap > 1:  # and the cap is no lower than the rule's
        assert FAMILIES[family](graph, cap - 1)[2] != at_cap[2]
