"""The cyclic garbage collector is paused while graphs are built, while
maximal cliques are enumerated and while ``sim.run`` runs, and is left as
the caller had it; the builders, the package's vertex programs, the
colorings and the chromatic oracle leave no reference cycles."""

import gc
from types import SimpleNamespace

import pytest

from localcolor import io as lio
from localcolor.arbedge import (DEFAULT_Q, arb_edge_coloring, delta_plus_little_o,
                                estimate_arboricity, powered_edge_coloring)
from localcolor.basecolor import delta_plus_one
from localcolor.cdcolor import cd_coloring, refined_coloring
from localcolor.cliques import CliqueCapExceeded, enumerate_maximal_cliques
from localcolor.graph import (Graph, GraphError, _freeze, _gc_paused, hypergraph_line_graph,
                              induced_subgraph)
from localcolor.io import ParseError
from localcolor.sim import RoundBudgetExceeded, VertexProgram, run
from localcolor.staredge import recursive_star_edge_coloring
from localcolor.verify import brute_force_chromatic

from helpers import cycle, relabel


def set_gc(on):
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(autouse=True)
def restore_gc():
    was_on = gc.isenabled()
    yield
    set_gc(was_on)


class Halt(VertexProgram):
    def init(self, neighbors):
        return {}, True


class Forever(VertexProgram):
    def init(self, neighbors):
        return {}, False

    def step(self, round_no, inbox):
        return {}, False


class Stray(VertexProgram):
    def __init__(self, v):
        self.v = v

    def init(self, neighbors):
        return {self.v + 2: "x"}, True


class Recorder(VertexProgram):
    """Records whether the collector is on when it is stepped."""

    def init(self, neighbors):
        return {}, False

    def step(self, round_no, inbox):
        self.output = gc.isenabled()
        return {}, True


def edge_file(tmp_path, text):
    path = tmp_path / "g.el"
    path.write_text(text)
    return path


def dimacs_file(tmp_path):
    path = tmp_path / "g.dimacs"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    return path


RETURNING = {
    "from_edges": lambda tmp: Graph.from_edges(range(3), [(0, 1), (1, 2)]),
    "_freeze": lambda tmp: _freeze({0: [1], 1: [0]}),
    "edges": lambda tmp: cycle(5).edges(),
    "induced_subgraph": lambda tmp: induced_subgraph(cycle(5), [0, 1, 2]),
    "hypergraph_line_graph": lambda tmp: hypergraph_line_graph([[0, 1, 2], [2, 3]]),
    "run": lambda tmp: run(cycle(4), lambda v: Halt()),
    "enumerate_maximal_cliques": lambda tmp: enumerate_maximal_cliques(cycle(5)),
    "load_edgelist": lambda tmp: lio.load_edgelist(edge_file(tmp, "0 1\n1 2\n")),
    "load_dimacs": lambda tmp: lio.load_dimacs(dimacs_file(tmp)),
    "gen_path": lambda tmp: lio.gen_path(5),
    "gen_grid": lambda tmp: lio.gen_grid(2, 3),
    "gen_random": lambda tmp: lio.gen_random(10, 3, seed=1),
    "gen_forest": lambda tmp: lio.gen_forest(10, 3, seed=1),
}

RAISING = {
    "from_edges self-loop": (GraphError, lambda tmp: Graph.from_edges([0, 1], [(1, 1)])),
    "load_edgelist bad line": (ParseError, lambda tmp: lio.load_edgelist(
        edge_file(tmp, "0 1\n1 2 3\n"))),
    "run non-neighbor": (GraphError, lambda tmp: run(Graph.from_edges(range(4), [(0, 1)]),
                                                     Stray)),
    "run round budget": (RoundBudgetExceeded, lambda tmp: run(cycle(4), lambda v: Forever(),
                                                              round_cap=3)),
    "enumerate_maximal_cliques cap": (CliqueCapExceeded, lambda tmp: enumerate_maximal_cliques(
        lio.gen_path(40), cap=10)),
}


@pytest.mark.parametrize("on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", sorted(RETURNING))
def test_entry_point_leaves_the_collector_as_it_found_it(tmp_path, name, on):
    set_gc(on)
    RETURNING[name](tmp_path)
    assert gc.isenabled() is on


@pytest.mark.parametrize("on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", sorted(RAISING))
def test_entry_point_that_raises_leaves_the_collector_as_it_found_it(tmp_path, name, on):
    error, call = RAISING[name]
    set_gc(on)
    with pytest.raises(error):
        call(tmp_path)
    assert gc.isenabled() is on


def test_programs_step_with_the_collector_paused():
    gc.enable()
    outputs, _ = run(cycle(4), lambda v: Recorder())
    assert set(outputs.values()) == {False}
    assert gc.isenabled()


def test_nested_run_keeps_the_outer_pause():
    def outer():
        run(cycle(4), lambda v: Recorder())
        return gc.isenabled()

    gc.enable()
    assert _gc_paused(outer)() is False
    assert gc.isenabled()


def test_edges_starts_no_collection():
    # m fresh tuples would otherwise start a collection every 700 of them,
    # the default gen-0 threshold
    g = lio.gen_path(2 * 10 ** 5)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        edges = g.edges()
    finally:
        gc.callbacks.remove(hook)
    assert len(edges) == 2 * 10 ** 5 - 1
    assert starts == []


def test_graphs_and_programs_leave_no_cycles():
    # the condition the pause rests on: nothing the collector would free
    # is made by the builders or the package's vertex programs
    gc.collect()
    gc.disable()
    g = relabel(lio.gen_grid(12, 15), 3)
    lio.gen_random(60, 6, seed=2)
    lio.gen_line_of(40, 5, seed=2)
    delta_plus_one(g)
    assert gc.collect() == 0


@pytest.fixture(scope="module")
def inputs():
    """Graphs big enough that every recursion below runs at least one split."""
    g = lio.gen_random(60, 8, seed=2)
    lg, lcover = lio.gen_line_of(40, 34, seed=3)
    return SimpleNamespace(g=g, cover=enumerate_maximal_cliques(g), lg=lg, lcover=lcover,
                           a=estimate_arboricity(g), small=lio.gen_random(10, 4, seed=1))


COLORINGS = {
    "cd_coloring": lambda i: cd_coloring(i.g, i.cover, 2, 2),
    "refined_coloring": lambda i: refined_coloring(i.lg, i.lcover, 1),
    "recursive_star_edge_coloring": lambda i: recursive_star_edge_coloring(i.g, 2),
    "arb_edge_coloring": lambda i: arb_edge_coloring(i.g, i.a),
    "delta_plus_little_o": lambda i: delta_plus_little_o(i.g, i.a),
    "powered_edge_coloring": lambda i: powered_edge_coloring(i.g, i.a, DEFAULT_Q, 2),
    "delta_plus_one": lambda i: delta_plus_one(i.g),
    "brute_force_chromatic": lambda i: brute_force_chromatic(i.small),
}


@pytest.mark.parametrize("name", sorted(COLORINGS))
def test_colorings_leave_no_cycles(inputs, name):
    # the same condition for the colorings: a result, once dropped, is
    # freed by reference counting alone
    gc.collect()
    gc.disable()
    COLORINGS[name](inputs)
    assert gc.collect() == 0
