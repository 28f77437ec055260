import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from localcolor.cliques import CliqueCover, build_vertex_connector, enumerate_maximal_cliques
from localcolor.graph import Graph, GraphError, norm_edge
from localcolor.io import gen_complete, gen_random
from localcolor.verify import brute_force_maximal_cliques, check_clique_decomposition
from helpers import petersen


def test_petersen_cover():
    cover = enumerate_maximal_cliques(petersen())
    # triangle-free, so the maximal cliques are the 15 edges
    assert len(cover.cliques) == 15
    assert cover.S == 2 and cover.D == 3


def test_path_cover():
    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    cover = enumerate_maximal_cliques(g)
    assert len(cover.cliques) == 3
    assert cover.D == 2 and cover.S == 2


def test_cover_mode_and_ids_are_stable():
    g = gen_complete(4)
    cover = enumerate_maximal_cliques(g)
    assert cover.mode == "intrinsic"
    again = enumerate_maximal_cliques(g)
    assert cover.cliques == again.cliques


def test_from_cliques_rejects_non_clique():
    g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        CliqueCover.from_cliques(g, [[0, 1, 2]], mode="provided")


def test_from_cliques_rejects_uncovered_edge():
    g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        CliqueCover.from_cliques(g, [[0, 1]], mode="provided")


def test_k9_connector_t3_gives_three_triangles():
    g = gen_complete(9)
    cover = enumerate_maximal_cliques(g)
    conn = build_vertex_connector(g, cover, t=3)
    # one clique of 9 split into parts {0,1,2},{3,4,5},{6,7,8}
    assert conn.m == 9
    assert conn.max_degree == 2
    assert conn.max_degree <= cover.D * (3 - 1)
    assert conn.has_edge(0, 2) and not conn.has_edge(2, 3)


def test_connector_rejects_t1():
    g = gen_complete(3)
    with pytest.raises(GraphError):
        build_vertex_connector(g, enumerate_maximal_cliques(g), t=1)


def test_max_clique_size():
    assert enumerate_maximal_cliques(gen_complete(6)).S == 6
    assert enumerate_maximal_cliques(petersen()).S == 2


def test_check_clique_decomposition():
    g = gen_complete(6)
    parts = [[0, 1, 2], [3, 4, 5]]
    assert check_clique_decomposition(g, parts, p=2, q=3)
    assert not check_clique_decomposition(g, parts, p=2, q=2)
    assert not check_clique_decomposition(g, parts, p=1, q=3)
    with pytest.raises(GraphError):
        check_clique_decomposition(g, [[0, 1], [1, 2, 3, 4, 5]], 2, 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_clique_enumeration_matches_oracle(seed):
    g = gen_random(14, 6, seed=seed)
    ours = {q for q in enumerate_maximal_cliques(g).cliques}
    assert ours == brute_force_maximal_cliques(g)


def test_connector_edges_stay_inside_parts():
    g = gen_random(30, 8, seed=5)
    cover = enumerate_maximal_cliques(g)
    conn = build_vertex_connector(g, cover, t=2)
    # each clique's parts: its members by ascending ID, t at a time
    parts = [frozenset(sorted(q)[i:i + 2]) for q in cover.cliques for i in range(0, len(q), 2)]
    for u, v in conn.edges():
        assert g.has_edge(u, v)
        assert any(u in p and v in p for p in parts), (u, v)


def test_vertex_connector_rejects_an_understated_diversity():
    g = Graph.from_edges(range(5), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    cover = CliqueCover.from_cliques(g, [{0, 1, 2}, {0, 3, 4}], mode="provided")
    assert cover.D == 2
    with pytest.raises(GraphError, match="exceeds D"):
        build_vertex_connector(g, dataclasses.replace(cover, D=1), 3)
