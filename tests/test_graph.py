import pytest
from hypothesis import given, strategies as st

from localcolor.graph import (Coloring, Graph, GraphError, Hypergraph, _degeneracy_order,
                              hypergraph_line_graph, induced_subgraph,
                              line_graph, norm_edge)


def test_from_edges_basics():
    g = Graph.from_edges([3, 1, 2], [(1, 2), (3, 2)])
    assert g.n == 3 and g.m == 2
    assert g.adj[2] == (1, 3)
    assert g.degree(2) == 2 and g.max_degree == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert list(g.edges()) == [(1, 2), (2, 3)]


def test_norm_edge_rejects_self_loop():
    assert norm_edge(5, 2) == (2, 5)
    with pytest.raises(GraphError):
        norm_edge(4, 4)


def test_edge_endpoint_must_exist():
    with pytest.raises(GraphError):
        Graph.from_edges([1, 2], [(1, 3)])


def test_induced_subgraph():
    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.n == 3 and sub.m == 2
    assert not sub.has_edge(0, 3)


def test_coloring_validates_palette():
    g = Graph.from_edges([0, 1], [(0, 1)])
    with pytest.raises(GraphError):
        Coloring("vertex", {0: 0, 1: 3}, 2)
    c = Coloring("vertex", {0: 0, 1: 1}, 2)
    assert c.colors_used() == 2


def test_line_graph_of_path():
    # P4 has 3 edges; its line graph is P3
    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    lg, cover = line_graph(g)
    assert lg.n == 3 and lg.m == 2
    assert cover.D <= 2


def test_line_graph_ids_are_lexicographic_ranks():
    g = Graph.from_edges(range(3), [(0, 1), (0, 2), (1, 2)])
    lg, _ = line_graph(g)
    # edges (0,1),(0,2),(1,2) get ids 0,1,2; triangle line graph = K3
    assert lg.n == 3 and lg.m == 3


def test_hypergraph_line_graph():
    h = Hypergraph.from_lists([[0, 1, 2], [2, 3, 4], [4, 5, 0]])
    lg, cover = hypergraph_line_graph(h)
    assert lg.n == 3 and lg.m == 3
    assert cover.D <= 3


def test_hypergraph_rejects_empty_hyperedge():
    with pytest.raises(GraphError):
        Hypergraph.from_lists([[1, 2], []])


@given(st.sets(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40))
def test_line_graph_cover_is_valid(pairs):
    edges = {norm_edge(u, v) for u, v in pairs if u != v}
    if not edges:
        return
    verts = {v for e in edges for v in e}
    g = Graph.from_edges(verts, edges)
    lg, cover = line_graph(g)
    assert lg.n == g.m
    # two line-graph vertices adjacent iff base edges share an endpoint
    base = sorted(edges)
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            shares = bool(set(base[i]) & set(base[j]))
            assert lg.has_edge(i, j) == shares
    assert cover.D <= 2


@given(st.integers(0, 25), st.sets(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=80))
def test_degeneracy_order_is_smallest_last(n, pairs):
    import networkx

    g = Graph.from_edges(range(n), [(u, v) for u, v in pairs if u != v and max(u, v) < n])
    order, degen = _degeneracy_order(g)
    assert sorted(order) == sorted(g.adj)
    pos = {v: i for i, v in enumerate(order)}
    later = [sum(pos[w] > pos[v] for w in g.adj[v]) for v in order]
    assert max(later, default=0) == degen
    nxg = networkx.Graph(g.edges())
    nxg.add_nodes_from(g.adj)
    assert degen == max(networkx.core_number(nxg).values(), default=0)
