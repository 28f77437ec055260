import dataclasses
import hashlib
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from localcolor.cliques import (CliqueCapExceeded, CliqueCover, build_vertex_connector,
                                enumerate_maximal_cliques)
from localcolor.graph import (Graph, GraphError, hypergraph_line_graph, induced_subgraph,
                              line_graph, norm_edge)
from localcolor.io import gen_complete, gen_forest, gen_grid, gen_line_of, gen_path, gen_random
from localcolor.verify import brute_force_maximal_cliques, check_clique_decomposition
from helpers import petersen, relabel


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


def test_cover_ids_are_stable():
    g = gen_complete(4)
    cover = enumerate_maximal_cliques(g)
    again = enumerate_maximal_cliques(g)
    assert cover.cliques == again.cliques


def test_from_cliques_rejects_non_clique():
    g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        CliqueCover.from_cliques(g, [[0, 1, 2]])


def test_from_cliques_rejects_uncovered_edge():
    g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        CliqueCover.from_cliques(g, [[0, 1]])


def test_from_cliques_names_the_first_violation():
    path = [[i, i + 1] for i in range(17)]
    g = Graph.from_edges(range(18), path)
    # no pair of [3, 10, 17] is an edge; the lexicographically first is
    # named, not the first in the frozenset's iteration order (17, 10, 3)
    with pytest.raises(GraphError, match=r"^clique \[3, 10, 17\] is not a clique: \(3,10\) missing$"):
        CliqueCover.from_cliques(g, path + [[17, 10, 3]])
    with pytest.raises(GraphError, match="^clique vertex 20 not in graph$"):
        CliqueCover.from_cliques(g, path + [[2, 20]])
    # clique [0, 1, 2] comes before [2, 20], so its missing pair is named first
    with pytest.raises(GraphError, match=r"\(0,2\) missing"):
        CliqueCover.from_cliques(g, path + [[2, 20], [0, 1, 2]])
    with pytest.raises(GraphError, match=r"^edge \(2, 3\) not covered by any clique$"):
        CliqueCover.from_cliques(g, path[:2] + path[3:])


def test_clique_cap():
    # Petersen is triangle-free: its 15 edges are its maximal cliques
    assert len(enumerate_maximal_cliques(petersen(), cap=15).cliques) == 15
    with pytest.raises(CliqueCapExceeded):
        enumerate_maximal_cliques(petersen(), cap=14)
    with pytest.raises(CliqueCapExceeded):
        enumerate_maximal_cliques(gen_path(40), cap=10)


def test_enumeration_needs_no_deep_recursion():
    # one frame per clique vertex would overflow this limit
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        cover = enumerate_maximal_cliques(gen_complete(60))
    finally:
        sys.setrecursionlimit(limit)
    assert cover.cliques == [tuple(range(60))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_big_cliques_with_pendants_match_oracle(seed):
    # overlapping big cliques plus pendant vertices: the calls whose P lies
    # in the neighborhood of a vertex of X are the ones not made
    rng = random.Random(seed)
    core = rng.randint(6, 24)
    edges = set()
    for _ in range(rng.randint(1, 3)):
        q = rng.sample(range(core), rng.randint(4, core))
        edges.update(norm_edge(u, w) for i, u in enumerate(q) for w in q[i + 1:])
    edges.update(norm_edge(*rng.sample(range(core), 2)) for _ in range(rng.randint(0, core)))
    n = rng.randint(core, 30)
    edges.update((rng.randrange(core), v) for v in range(core, n))
    g = Graph.from_edges(range(n), edges)
    assert {frozenset(q) for q in enumerate_maximal_cliques(g).cliques} == \
        brute_force_maximal_cliques(g)


TRIANGLE_FREE = {
    "path": lambda: gen_path(50),
    "grid": lambda: relabel(gen_grid(6, 7), 1),
    "forest": lambda: gen_forest(60, 5, seed=3),
    "K3,4": lambda: Graph.from_edges(range(7), [(u, w) for u in range(3) for w in range(3, 7)]),
    "isolated": lambda: Graph.from_edges(range(9), [(1, 2), (6, 4), (2, 8)]),
}


@pytest.mark.parametrize("name", sorted(TRIANGLE_FREE))
def test_triangle_free_cover_is_the_edge_list(name):
    # every edge is a maximal clique, and so is every isolated vertex alone
    g = TRIANGLE_FREE[name]()
    expected = sorted(g.edges() + [(v,) for v, ns in g.adj.items() if not ns])
    assert enumerate_maximal_cliques(g).cliques == expected


MIXED = {
    "paw": [(0, 1), (0, 2), (1, 2), (2, 3)],
    "diamond": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
    "K4 with pendants": [(u, w) for u in range(4) for w in range(u + 1, 4)]
    + [(0, 4), (4, 5), (2, 6), (3, 7)],
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_mixed_small_graphs_match_oracle(name):
    # triangle-free edges and triangles at the same vertex
    edges = MIXED[name]
    g = Graph.from_edges(range(1 + max(map(max, edges))), edges)
    expected = sorted(tuple(sorted(q)) for q in brute_force_maximal_cliques(g))
    assert enumerate_maximal_cliques(g).cliques == expected


def _assert_canonical(cover):
    """Cliques are strictly increasing int tuples, in lexicographic order."""
    for q in cover.cliques:
        assert type(q) is tuple and all(type(v) is int for v in q)
        assert list(q) == sorted(set(q))
    assert cover.cliques == sorted(set(cover.cliques))


def test_every_constructor_yields_sorted_tuples():
    g = gen_random(60, 8, seed=2)
    cover = enumerate_maximal_cliques(g)
    _assert_canonical(cover)
    _assert_canonical(CliqueCover.from_cliques(g, [frozenset(q) for q in cover.cliques]))
    _assert_canonical(cover.restrict(induced_subgraph(g, range(0, 60, 3))))
    paw = Graph.from_edges(range(4), MIXED["paw"])
    given = CliqueCover.from_cliques(paw, [[3, 2, 3], [2, 1, 0, 1], [0, 2, 1]])
    _assert_canonical(given)
    assert given.cliques == [(0, 1, 2), (2, 3)]
    _assert_canonical(line_graph(g)[1])
    _assert_canonical(hypergraph_line_graph([[5, 1, 3], [3, 2], [2, 5]])[1])


def test_from_cliques_reads_any_form_of_a_cover():
    # normal tuples take the fast path; every other form is normalized
    g = gen_random(60, 8, seed=2)
    enumerated = enumerate_maximal_cliques(g)
    normal = enumerated.cliques
    shuffled = random.Random(4).sample(normal, len(normal))
    forms = {
        "normal": normal,
        "shuffled": shuffled,
        "lists with repeats": [list(q) + [q[0]] for q in shuffled] + [list(normal[0])],
        "frozensets": [frozenset(q) for q in shuffled],
        "reversed tuples": [q[::-1] for q in shuffled],
        "tuples with repeats": [q[:1] + q for q in shuffled],
        "an iterator": iter(shuffled),
    }
    for name, cliques in forms.items():
        cover = CliqueCover.from_cliques(g, cliques)
        assert (cover.cliques, cover.D, cover.S) == (normal, enumerated.D, enumerated.S), name
        _assert_canonical(cover)


def test_fast_path_names_the_same_first_violation():
    path = [(i, i + 1) for i in range(17)]
    g = Graph.from_edges(range(18), path)
    for cliques, message in [
            (path + [(3, 10, 17)], r"^clique \[3, 10, 17\] is not a clique: \(3,10\) missing$"),
            (path + [(2, 20)], "^clique vertex 20 not in graph$"),
            (path + [(2, 20), (0, 1, 2)], r"\(0,2\) missing"),
            (path[:2] + path[3:], r"^edge \(2, 3\) not covered by any clique$")]:
        for form in (tuple, list):  # strictly increasing tuples, then the fallback
            with pytest.raises(GraphError, match=message):
                CliqueCover.from_cliques(g, [form(q) for q in cliques])


def test_cover_memory():
    # this reads 2.89 MB at its peak and 0.64 MB retained.  Frozenset
    # cliques retain 2.32 MB; keeping every vertex's union of cliques
    # alive peaks at 3.78 MB, and holding the enumerator's adjacency sets
    # while the cover is checked, at 4.00 MB
    g = gen_random(1000, 24, 1)
    tracemalloc.start()
    try:
        cover = enumerate_maximal_cliques(g)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cover.cliques) == 9026
    assert peak < 3.4e6 and retained < 1.3e6, (peak, retained)


def test_k600_is_one_clique_quickly():
    g = gen_complete(600)
    start = time.perf_counter()
    cover = enumerate_maximal_cliques(g)
    assert time.perf_counter() - start < 2.0
    assert cover.cliques == [tuple(range(600))]


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


def test_connector_rejects_a_cover_of_another_graph():
    with pytest.raises(GraphError, match="connector vertex 3 not in graph"):
        build_vertex_connector(gen_complete(3), enumerate_maximal_cliques(gen_complete(4)), t=2)


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
    ours = {frozenset(q) for q in enumerate_maximal_cliques(g).cliques}
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
    cover = CliqueCover.from_cliques(g, [{0, 1, 2}, {0, 3, 4}])
    assert cover.D == 2
    with pytest.raises(GraphError, match="exceeds D"):
        build_vertex_connector(g, dataclasses.replace(cover, D=1), 3)


def test_vertex_connector_rejects_a_degree_one_over_d_t_minus_1():
    # the path 0-1-2 has D = 2; at D = 1 and t = 2 its middle vertex's
    # connector degree 2 is one over D(t-1) = 1
    g = gen_path(3)
    cover = enumerate_maximal_cliques(g)
    assert cover.D == 2
    with pytest.raises(GraphError, match="degree 2 exceeds D"):
        build_vertex_connector(g, dataclasses.replace(cover, D=1), 2)


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def test_covers_and_connectors_match_golden():
    """The benchmark's covers (clique order, D, S) and the vertex connectors
    of the first at t = 2 and 3, pinned by the sha256 of their lists."""
    g = gen_random(1000, 24, 1)
    cover = enumerate_maximal_cliques(g)
    assert (_digest([tuple(sorted(q)) for q in cover.cliques]), cover.D, cover.S) == \
        ("48509b49cf2a344e", 24, 4)
    assert [_digest(build_vertex_connector(g, cover, t).edges()) for t in (2, 3)] == \
        ["4f40d5113bcc1128", "370d171abbe0c5f2"]
    lg, lcover = gen_line_of(100, 30, 1)
    assert (_digest([tuple(sorted(q)) for q in lcover.cliques]), lcover.D, lcover.S) == \
        ("ef4bf9bd68d7b93b", 2, 30)


def _pairwise_cover_error(g, cliques):
    """Reference check: every clique pair tested with ``has_edge`` and every
    edge looked up in the set of covered pairs.  Returns the first failure
    or None."""
    uniq = sorted({tuple(sorted(set(q))) for q in cliques})
    for q in uniq:
        for v in q:
            if v not in g.adj:
                return f"clique vertex {v} not in graph"
        for i, u in enumerate(q):
            for w in q[i + 1:]:
                if not g.has_edge(u, w):
                    return f"clique {list(q)} is not a clique: ({u},{w}) missing"
    covered = {(u, w) for q in uniq for i, u in enumerate(q) for w in q[i + 1:]}
    for e in g.edges():
        if e not in covered:
            return f"edge {e} not covered by any clique"
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["none", "drop", "extra", "outside", "merge"]),
       st.booleans(), st.data())
def test_cover_check_matches_pairwise_reference(seed, damage, normal, data):
    g = gen_random(16, 5, seed=seed)
    cliques = [sorted(q) for q in enumerate_maximal_cliques(g).cliques]
    i = data.draw(st.integers(0, len(cliques) - 1))
    if damage == "drop":
        del cliques[i]
    elif damage == "extra":  # a vertex of the graph, often not adjacent to all of q
        cliques[i].append(data.draw(st.sampled_from(sorted(g.adj))))
    elif damage == "outside":
        cliques[i].append(g.n + data.draw(st.integers(0, 3)))
    elif damage == "merge":  # the union of two cliques, rarely a clique
        cliques.append(cliques[i] + cliques[data.draw(st.integers(0, len(cliques) - 1))])
    if normal:  # strictly increasing tuples, which take from_cliques' fast path
        cliques = [tuple(sorted(set(q))) for q in cliques]
    expected = _pairwise_cover_error(g, cliques)
    if expected is None:
        cover = CliqueCover.from_cliques(g, cliques)
        assert cover.S == max(len(set(q)) for q in cliques)
    else:
        with pytest.raises(GraphError) as err:
            CliqueCover.from_cliques(g, cliques)
        assert str(err.value) == expected
