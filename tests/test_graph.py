import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from localcolor import io as lio
from localcolor.graph import (Coloring, Graph, GraphError, VerificationError, _degeneracy_order,
                              _freeze, _recurse, hypergraph_line_graph, induced_subgraph,
                              line_graph, norm_edge)


def test_from_edges_basics():
    g = Graph.from_edges([3, 1, 2], [(1, 2), (3, 2)])
    assert g.n == 3 and g.m == 2
    assert g.adj[2] == (1, 3)
    assert g.degree(2) == 2 and g.max_degree == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert list(g.edges()) == [(1, 2), (2, 3)]


def set_based_from_edges(vertices, edges):
    """The set-per-vertex Graph.from_edges that the neighbor-list builder
    replaced, kept as the reference for its output and its errors."""
    adj = {v: set() for v in sorted(set(vertices))}
    for u, v in edges:
        if u not in adj or v not in adj:
            u, v = norm_edge(u, v)
            raise GraphError(f"edge ({u},{v}) uses unknown vertex")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph({v: tuple(sorted(ns)) for v, ns in adj.items()})


def built(build, vertices, edges):
    """The adjacency rows of build(vertices, edges) in key order, or the
    text of the GraphError it raises."""
    try:
        return list(build(vertices, edges).adj.items())
    except GraphError as e:
        return str(e)


ids = st.integers(-6, 6)


@given(st.lists(ids), st.lists(st.tuples(ids, ids), max_size=30), st.booleans(),
       st.sampled_from([list, set, iter]))
def test_from_edges_matches_a_set_based_reference(vertices, pairs, valid_only, form):
    if valid_only:
        pairs = [(u, v) for u, v in pairs if u != v and u in vertices and v in vertices]
    pairs += [(v, u) for u, v in pairs[::2]] + pairs[1::3]  # repeats, both orientations
    got = built(Graph.from_edges, vertices, form(pairs))
    assert got == built(set_based_from_edges, vertices, form(pairs))
    if not isinstance(got, str):
        assert all(isinstance(ns, tuple) for _, ns in got)


def test_from_edges_error_texts():
    # the unknown-endpoint check runs first: an unknown vertex is reported
    # ahead of a later self-loop, and an unknown self-loop keeps the
    # reference's text, which norm_edge gives it
    for edges, text in [([(0, 9), (1, 1)], "edge (0,9) uses unknown vertex"),
                        ([(9, 0)], "edge (0,9) uses unknown vertex"),
                        ([(-7, -7)], "self-loop at vertex -7"),
                        ([(0, 1), (1, 1), (0, 9)], "self-loop at vertex 1")]:
        assert built(Graph.from_edges, [0, 1], edges) == text
        assert built(set_based_from_edges, [0, 1], edges) == text


def test_from_edges_drops_repeated_edges():
    g = Graph.from_edges([2, 0, 1, 5], [(0, 1), (1, 0), (0, 1), (2, 1), (1, 2)])
    assert list(g.adj.items()) == [(0, (1,)), (1, (0, 2)), (2, (1,)), (5, ())]
    assert g.m == 2 and g.max_degree == 2


# the edge lists the generators used to hand to Graph.from_edges
REFERENCE_EDGES = {
    "gen_path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "gen_complete": lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    "gen_star": lambda n: [(i, n - 1) for i in range(n - 1)],
    "gen_matching": lambda k: [(2 * i, 2 * i + 1) for i in range(k)],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_EDGES))
@pytest.mark.parametrize("size", [0, 1, 2, 3, 7])
def test_closed_form_generators_match_their_edge_lists(name, size):
    g = getattr(lio, name)(size)
    n = 2 * size if name == "gen_matching" else size
    ref = Graph.from_edges(range(n), REFERENCE_EDGES[name](size))
    assert list(g.adj.items()) == list(ref.adj.items())


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (1, 1), (1, 7), (7, 1), (2, 2), (4, 6)])
def test_gen_grid_matches_its_edge_list(rows, cols):
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    ref = Graph.from_edges(range(rows * cols), edges)
    assert list(lio.gen_grid(rows, cols).adj.items()) == list(ref.adj.items())


@pytest.mark.parametrize("make", [
    lambda: lio.gen_path(0), lambda: lio.gen_path(1), lambda: lio.gen_path(40),
    lambda: lio.gen_grid(1, 1), lambda: lio.gen_grid(1, 7), lambda: lio.gen_grid(7, 1),
    lambda: lio.gen_grid(5, 8), lambda: lio.gen_star(1), lambda: lio.gen_star(9),
    lambda: lio.gen_matching(0), lambda: lio.gen_matching(5), lambda: lio.gen_complete(1),
    lambda: lio.gen_complete(6), lambda: lio.gen_forest(60, 5, 3),
    lambda: lio.gen_random(60, 7, 3), lambda: lio.gen_line_of(20, 5, 3)[0],
])
def test_generators_build_what_from_edges_builds(make):
    g = make()
    ref = Graph.from_edges(g.vertices, g.edges())
    assert list(g.adj.items()) == list(ref.adj.items())
    assert all(isinstance(ns, tuple) for ns in g.adj.values())


@pytest.mark.parametrize("n", [2, 3, 20, 21, 22, 23, 100, 1024, 1025])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_pairs_draws_what_sample_draws(n, seed):
    # n <= 21 takes sample's pool branch, larger n its set branch; the
    # generator must also leave the rng where sample leaves it
    ref, rng = random.Random(seed), random.Random(seed)
    want = [tuple(ref.sample(range(n), 2)) for _ in range(2000)]
    assert list(islice(lio._pairs(rng, n), 2000)) == want
    assert rng.getstate() == ref.getstate()


def sample_based_gen_random(n, delta, seed=0):
    """The io.gen_random that drew each pair with rng.sample, kept as the
    reference for the graphs of the getrandbits version."""
    if delta >= n:
        raise GraphError(f"need delta < n, got delta={delta}, n={n}")
    rng = random.Random(seed)
    ids = list(range(n))
    adj = {v: [] for v in ids}
    edges = set()
    for v in rng.sample(range(1, n), delta):
        edges.add(v)
        adj[0].append(ids[v])
        adj[v].append(0)
    for _ in range(20 * n):
        u, v = rng.sample(range(n), 2)
        nu, nv = adj[u], adj[v]
        if len(nu) >= delta or len(nv) >= delta:
            continue
        e = u * n + v if u < v else v * n + u
        if e in edges:
            continue
        edges.add(e)
        nu.append(ids[v])
        nv.append(ids[u])
    g = _freeze(adj)
    if g.max_degree != delta:
        raise GraphError(f"generated max degree {g.max_degree}, wanted {delta}")
    return g


@given(st.integers(2, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
       st.integers(0, 2 ** 32))
def test_gen_random_matches_the_sample_based_reference(n_delta, seed):
    n, delta = n_delta
    got = lio.gen_random(n, delta, seed)
    assert list(got.adj.items()) == list(sample_based_gen_random(n, delta, seed).adj.items())
    assert got.max_degree == delta


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_gen_random_needs_two_vertices(monkeypatch, n):
    # a pair needs two vertices: on fewer, drawing one would never end, so
    # a draw here fails the test instead of hanging it
    monkeypatch.setattr(lio, "_pairs", lambda rng, n: pytest.fail("drew a pair"))
    with pytest.raises(GraphError, match=f"need n >= 2 for a random graph, got n={n}"):
        lio.gen_random(n, 0)


def test_gen_random_rejects_a_negative_delta():
    with pytest.raises(GraphError, match=r"need 0 <= delta < n, got delta=-1, n=5$"):
        lio.gen_random(5, -1)


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


def test_coloring_names_its_first_color_outside_the_palette():
    # the first bad item in assignment order, not the largest or smallest color
    with pytest.raises(GraphError, match=r"^color 4 of 1 outside palette \[0,3\)$"):
        Coloring("vertex", {0: 1, 1: 4, 2: 7, 3: 2}, 3)
    with pytest.raises(GraphError, match=r"^color -1 of 2 outside palette \[0,3\)$"):
        Coloring("vertex", {0: 1, 1: 2, 2: -1, 3: -5}, 3)


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
    lg, cover = hypergraph_line_graph([[0, 1, 2], [2, 3, 4], [4, 5, 0]])
    assert lg.n == 3 and lg.m == 3
    assert cover.D <= 3


def test_hypergraph_line_graph_reads_a_generator_once():
    hyperedges = [[0, 1, 2], [2, 3], [3, 4, 0], [5]]
    read = []

    def one_by_one():
        for he in hyperedges:
            read.append(he)
            yield he

    lg, cover = hypergraph_line_graph(one_by_one())
    assert read == hyperedges
    assert (lg, cover) == hypergraph_line_graph(hyperedges)
    assert lg.adj == {0: (1, 2), 1: (0, 2), 2: (0, 1), 3: ()}


def test_hypergraph_line_graph_counts_a_repeated_vertex_once():
    plain = hypergraph_line_graph([(0, 1, 2), (2, 3), (3, 0)])
    repeated = hypergraph_line_graph([(0, 1, 2, 1), (2, 3, 3), (3, 0, 3, 0)])
    assert repeated[0].adj == plain[0].adj
    assert repeated[1] == plain[1]
    assert repeated[1].cliques == [(0,), (0, 1), (0, 2), (1, 2)]


def test_hypergraph_rejects_empty_hyperedge():
    with pytest.raises(GraphError, match="empty hyperedge"):
        hypergraph_line_graph([[1, 2], []])


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


# A toy tree for the recursion, palettes [3, 2, 4] (radixes 8, 4, 1):
# r splits into a, an empty class and b; a into a0 and a1; b into b0.
TOY_SPLITS = {"r": (["a", [], "b"], 5), "a": (["a0", "a1"], 1), "b": (["b0"], 7)}
TOY_LEAVES = {"a0": ([("p", 3)], 10), "a1": ([("q", 0)], 2), "b0": ([("s", 1), ("u", 2)], 0)}


def toy_recurse(bound=24, splits=TOY_SPLITS, leaves=TOY_LEAVES):
    return _recurse("vertex", "r", [3, 2, 4], lambda part, depth: splits[part],
                    leaves.__getitem__, bound, "toy_bound")


def test_recursion_combines_colors_and_takes_the_longest_path():
    col, rounds = toy_recurse()
    # the paths cost 5+1+10, 5+1+2 and 5+7+0; a sum of the level maxima
    # would read 5+7+10
    assert rounds == 16
    assert col.kind == "vertex" and col.palette_size == 3 * 2 * 4
    assert col.assignment == {"p": 0 * 8 + 0 * 4 + 3, "q": 0 * 8 + 1 * 4 + 0,
                              "s": 2 * 8 + 0 * 4 + 1, "u": 2 * 8 + 0 * 4 + 2}
    assert list(col.assignment) == ["p", "q", "s", "u"]  # depth first, in class order


def test_recursion_checks_declared_palette_class_count_and_leaf_colors():
    with pytest.raises(VerificationError, match="^palette 24 exceeds toy_bound = 23$"):
        toy_recurse(bound=23)
    four = dict(TOY_SPLITS, r=(["a", [], "b", "c"], 5))
    with pytest.raises(VerificationError,
                       match="^level 0 split into 4 classes, more than its palette 3$"):
        toy_recurse(splits=four)
    for c in (4, -1):
        with pytest.raises(VerificationError,
                           match=f"^leaf color {c} of q outside the leaf palette 4$"):
            toy_recurse(leaves=dict(TOY_LEAVES, a1=([("q", c)], 2)))
