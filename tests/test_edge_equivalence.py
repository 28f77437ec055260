"""The edge layer's linear-time pieces against reference copies of the
simpler code they replaced, on small random graphs."""

import math
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from localcolor import arbedge
from localcolor.arbedge import (_arb_edge_coloring, _connector_degree, _connector_walk,
                                _first_fit, acyclic_orientation, arb_edge_coloring,
                                delta_plus_little_o, h_partition)
from localcolor.graph import Coloring, Graph, GraphError, norm_edge
from localcolor.io import gen_complete, gen_forest, gen_random, gen_star
from localcolor.sim import RoundTrace
from localcolor.staredge import _connector_level, _greedy_edges, _star_edge_coloring
from localcolor.verify import greedy_edge_baseline


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=4 * n))
    return Graph.from_edges(range(n), {norm_edge(u, v) for u, v in pairs if u != v})


# -- reference copies ---------------------------------------------------------

def ref_greedy(g):
    assign = {}
    for u, v in sorted(g.edges()):
        used = {assign[e] for w in (u, v) for x in g.adj[w]
                for e in [norm_edge(w, x)] if e in assign}
        assign[(u, v)] = next(c for c in range(2 * g.max_degree) if c not in used)
    return assign


def ref_first_fit(conn_edges):
    """First fit of the connector edges in the given order, from color sets."""
    seen = {}
    colors = []
    for a, b in conn_edges:
        used = seen.get(a, set()) | seen.get(b, set())
        c = next(c for c in range(len(used) + 1) if c not in used)
        seen.setdefault(a, set()).add(c)
        seen.setdefault(b, set()).add(c)
        colors.append(c)
    return colors


def ref_edge_connector(g, t):
    virtuals = {}
    for v in g.adj:
        for i in range(-(-len(g.adj[v]) // t) or 1):
            virtuals[(v, i)] = len(virtuals)
    edge_map = {}
    for u, v in g.edges():
        lu = g.adj[u].index(v) + 1
        lv = g.adj[v].index(u) + 1
        edge_map[(u, v)] = norm_edge(virtuals[(u, (lu - 1) // t)],
                                     virtuals[(v, (lv - 1) // t)])
    return edge_map, {i: vk for vk, i in virtuals.items()}


def ref_orientation_connector(g, orient, in_split, out_split, bipartite):
    """The orientation connector, keyed by arc: bipartite keeps a tail's
    out-chunk virtual (v, "out", j) apart from a head's in-chunk virtual
    (w, "in", i), numbered by first appearance; shared joins them as
    (v, i), named v*Delta + i."""
    incoming = {v: [] for v in g.adj}
    for v, w in orient.oriented_edges():
        incoming[w].append(v)
    virtuals = {}

    def vid(v, side, idx):
        key = (v, side, idx) if bipartite else (v, idx)
        if key not in virtuals:
            virtuals[key] = len(virtuals) if bipartite else v * g.max_degree + idx
        return virtuals[key]

    edge_map = {}
    for v, w in orient.oriented_edges():
        i = sorted(incoming[w]).index(v) // in_split
        j = orient.out[v].index(w) // out_split
        a = vid(v, "out", j)
        b = vid(w, "in", i)
        edge_map[(v, w)] = norm_edge(a, b)
    return edge_map, {i: k for k, i in virtuals.items()}


def ref_first_appearance_walk(arcs, in_split, out_split):
    """The connector walk that numbered virtuals by first appearance: each
    arc's normalized connector edge, and each id's (vertex, index)."""
    ids = {}  # (vertex, index) -> id
    in_rank = {}
    conn = []
    tail = prev = i = a = None
    j = 0
    for arc in arcs:
        v, w = arc
        if v != tail:
            tail, j = v, 0
        if not j % out_split:
            key = (v, j // out_split)
            a = ids.get(key)
            if a is None:
                a = ids[key] = len(ids)
        j += 1
        r = in_rank.get(w, 0)
        in_rank[w] = r + 1
        if arc != prev:
            i = r
        prev = arc
        key = (w, i // in_split)
        b = ids.get(key)
        if b is None:
            b = ids[key] = len(ids)
        conn.append((a, b) if a < b else (b, a))
    return conn, list(ids)


def ref_arb_edge_coloring(g, a, q):
    """arb-edge's Graph path, which every input took before the edge-list
    body: the H-partition of g, one star run on the sorted internal edges
    and the merge sweep, without the palette and properness checks."""
    trace = RoundTrace()
    d = math.floor(arbedge._q_times_a(q, a))
    delta = g.max_degree
    if delta < 1:
        return Coloring("edge", {}, 1), trace
    hp = h_partition(g, a, q)
    low = max(delta + d - 1, 1)
    set_of = hp.set_of
    star, rep = _star_edge_coloring(
        [e for e in sorted(g.edges()) if set_of[e[0]] == set_of[e[1]]], 1)
    trace.add_phase("hset-internal", rep.rounds)
    assign = {e: low + c for e, c in star.assignment.items()}
    assign.update(_first_fit([norm_edge(v, w) for i in range(hp.ell - 2, -1, -1)
                              for v in sorted(hp.sets[i]) for w in g.adj[v] if set_of[w] > i],
                             dict.fromkeys(g.adj, 0), low))
    trace.add_phase("merge-sweep", d * max(hp.ell - 1, 0))
    return Coloring("edge", assign, low + 4 * d), trace


def outcome(run):
    """A coloring run's assignment in order, palette and phases, or its error."""
    try:
        col, trace = run()
    except GraphError as e:
        return type(e), str(e)
    return list(col.assignment.items()), col.palette_size, trace.phase_breakdown


def ref_h_sets(g, d):
    remaining = {v: set(g.adj[v]) for v in g.adj}
    sets = []
    while remaining:
        peel = sorted(v for v in remaining if len(remaining[v]) <= d)
        if not peel:
            return None  # stalled
        for v in peel:
            del remaining[v]
        sets.append(tuple(peel))
        gone = set(peel)
        for u in remaining:
            remaining[u] -= gone
    return sets


# -- properties ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(graphs())
def test_greedy_matches_set_first_fit(g):
    col = greedy_edge_baseline(g)
    assert col.assignment == ref_greedy(g)
    assert list(col.assignment) == sorted(g.edges())


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(2, 5))
def test_star_classes_match_greedy_on_connector(g, t):
    # build the connector, color it greedily, pull the colors back
    edge_map, virtual_of = ref_edge_connector(g, t)
    conn = Graph.from_edges(virtual_of, edge_map.values())
    assert conn.max_degree <= t
    phi = ref_greedy(conn)
    expected = [[] for _ in range(2 * t - 1)]
    for e, ce in edge_map.items():
        expected[phi[ce]].append(e)
    classes, rank, _ = _connector_level(sorted(g.edges()), t, t, bipartite=False)
    assert (classes, max(rank.values(), default=0)) == (expected, g.max_degree)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_list_greedy_matches_greedy_edge_coloring(g, rnd):
    # a leaf: a sorted sublist of the edges, with a mask for its endpoints
    cls = [e for e in sorted(g.edges()) if rnd.random() < 0.7]
    mask = dict.fromkeys(chain.from_iterable(cls), 0)
    colors = _greedy_edges(cls, mask)
    sub = Graph.from_edges(chain.from_iterable(cls), cls)
    assert dict(zip(cls, colors)) == greedy_edge_baseline(sub).assignment
    assert {v: m.bit_count() for v, m in mask.items()} == {v: sub.degree(v) for v in sub.adj}


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(2, 5), st.integers(2, 5), st.booleans())
def test_connector_level_matches_first_fit_on_the_built_connector(g, t_tail, t_head,
                                                                  bipartite):
    # the star connector (a vertex's edges ranked at both ends in one
    # sequence, one t) or the bipartite orientation connector (a tail's
    # out-arcs in chunks of t_tail, a head's in-arcs in chunks of t_head),
    # built explicitly and first-fit in the order of the pair list
    if bipartite:
        orient = acyclic_orientation(g, h_partition(g, arbedge.estimate_arboricity(g)))
        pairs = sorted(orient.oriented_edges())
        edge_map, _ = ref_orientation_connector(g, orient, t_head, t_tail, bipartite=True)
        tails = Counter(v for v, _ in pairs)
        heads = Counter(w for _, w in pairs)
    else:
        t_head = t_tail
        pairs = sorted(g.edges())
        edge_map, _ = ref_edge_connector(g, t_tail)
        tails = heads = Counter(chain.from_iterable(pairs))
    colors = ref_first_fit([edge_map[p] for p in pairs])
    expected = [[] for _ in range(t_tail + t_head - 1)]
    for p, c in zip(pairs, colors):
        expected[c].append(p)
    classes, tail_rank, head_rank = _connector_level(pairs, t_tail, t_head, bipartite)
    assert classes == expected
    assert (tail_rank, head_rank) == (tails, heads)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 4), st.integers(1, 4))
def test_orientation_connector_matches_index_ranks(g, in_split, out_split):
    hp = h_partition(g, arbedge.estimate_arboricity(g))
    orient = acyclic_orientation(g, hp)
    arcs = sorted(orient.oriented_edges())
    conn = _connector_walk(arcs, in_split, out_split, g.max_degree)
    edge_map, virtual_of = ref_orientation_connector(g, orient, in_split, out_split,
                                                     bipartite=False)
    assert list(zip(arcs, conn)) == list(edge_map.items())
    # little-o's checks pass on a well-formed connector
    derived = Graph.from_edges(chain.from_iterable(conn), conn)
    assert _connector_degree(conn, in_split + out_split, g.max_degree) == derived.max_degree
    assert {x: divmod(x, g.max_degree) for x in derived.adj} == virtual_of
    assert sorted(derived.edges()) == sorted(conn)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, 2), st.integers(1, 4), st.integers(1, 4))
def test_connector_walk_renames_the_first_appearance_walk(g, extra, in_split, out_split):
    # only the virtuals' names changed: the id of (v, i) became v*Delta + i
    hp = h_partition(g, arbedge.estimate_arboricity(g) + extra)
    arcs = sorted(acyclic_orientation(g, hp).oriented_edges())
    old, virtuals = ref_first_appearance_walk(arcs, in_split, out_split)
    name = [v * g.max_degree + i for v, i in virtuals]
    assert _connector_walk(arcs, in_split, out_split, g.max_degree) == \
        [norm_edge(name[x], name[y]) for x, y in old]


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(1, 4))
def test_h_partition_matches_set_peeling(g, a):
    d = int(arbedge.DEFAULT_Q * a)
    expected = ref_h_sets(g, d)
    try:
        hp = h_partition(g, a)
    except GraphError as e:
        assert expected is None and "stalled" in str(e)
        return
    assert hp.sets == expected
    assert hp.set_of == {v: i for i, s in enumerate(expected) for v in s}


BOUNDARY_GRAPHS = ([gen_random(80, 9, seed=s) for s in (1, 2, 3)]
                   + [gen_forest(80, 12, seed=s) for s in (1, 2, 3)]
                   + [gen_star(10), gen_complete(6), Graph.from_edges(range(4), [])])


@pytest.mark.parametrize("g", BOUNDARY_GRAPHS)
@pytest.mark.parametrize("offset", [-2, -1, 0, 1, None])
def test_edge_list_body_matches_the_graph_path(g, offset):
    # d = floor(q*a) set to Delta + offset with a = 1 and q = Delta + offset,
    # so both sides of the one-set boundary Delta <= d are run, Delta = d and
    # Delta = d + 1 among them; None takes the estimated a at the default q
    delta = g.max_degree
    if offset is None:
        a, q = arbedge.estimate_arboricity(g), arbedge.DEFAULT_Q
    else:
        a, q = 1, max(delta + offset, 3)
    expected = outcome(lambda: ref_arb_edge_coloring(g, a, q))
    # the edge list alone, which builds its graph only when delta > d ...
    assert outcome(lambda: _arb_edge_coloring(sorted(g.edges()), delta, a, q)) == expected
    # ... and with the caller's graph
    assert outcome(lambda: arb_edge_coloring(g, a, q)) == expected


@pytest.mark.parametrize("g, a, falls_back", [(gen_random(300, 16, seed=1), 7, False),
                                              (gen_random(200, 24, seed=3), 10, False),
                                              (gen_forest(300, 40, seed=1), 1, True),
                                              (gen_forest(200, 60, seed=2), 1, True)])
def test_little_o_inner_runs_match_the_graph_path(monkeypatch, g, a, falls_back):
    # the connector and every class run through the Graph path give the
    # same coloring; the random graphs' inner runs are all one-set (a is
    # their estimated arboricity), and the forests' Delta is far above
    # their d, so some of theirs fall back to a Graph
    expected = outcome(lambda: delta_plus_little_o(g, a))
    fallbacks = []

    def graph_path(edges, delta, a, q):
        sub = Graph.from_edges(chain.from_iterable(edges), edges)
        assert sorted(sub.edges()) == edges and sub.max_degree == delta
        fallbacks.append(delta > math.floor(arbedge._q_times_a(q, a)))
        return ref_arb_edge_coloring(sub, a, q)

    monkeypatch.setattr(arbedge, "_arb_edge_coloring", graph_path)
    assert outcome(lambda: delta_plus_little_o(g, a)) == expected
    assert any(fallbacks) == falls_back and len(fallbacks) > 1
