"""Edge coloring through edge-connectors and star-partitions, without
materializing the line graph.

Each vertex splits its incident edges into groups of size at most t and
hands each group to a virtual vertex, so the connector has degree at most
t.  A proper edge coloring of the connector pulls back to an edge partition
of the base graph whose per-vertex stars have size at most ceil(Delta/t);
recursing and combining gives the 4*Delta and 2^(x+1)*Delta schemes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .basecolor import _int_floor_root, _require_proper
from .graph import Coloring, Graph, GraphError, edge_subgraph, norm_edge


@dataclass
class EdgeConnector:
    base: Graph
    t: int
    derived: Graph
    # base edge (u,v) -> connector edge (id of u_i, id of v_j), normalized
    edge_map: dict[tuple[int, int], tuple[int, int]]
    virtual_of: dict[int, tuple[int, int]]  # connector id -> (vertex, part)


@dataclass
class StarPartitionReport:
    class_count: int = 0
    max_star: int = 0
    rounds: int = 0
    phases: list[tuple[str, int]] = field(default_factory=list)


def build_edge_connector(g: Graph, t: int) -> EdgeConnector:
    if t <= 1:
        raise GraphError(f"edge connector needs t >= 2, got {t}")
    # label l(v, .) = 1..deg(v) in ascending neighbor-ID order
    virtuals: dict[tuple[int, int], int] = {}
    for v in g.adj:
        for i in range(-(-len(g.adj[v]) // t) or 1):
            virtuals[(v, i)] = len(virtuals)
    edge_map = {}
    conn_edges = []
    for u, v in g.edges():
        lu = g.adj[u].index(v) + 1
        lv = g.adj[v].index(u) + 1
        a = virtuals[(u, (lu - 1) // t)]
        b = virtuals[(v, (lv - 1) // t)]
        e = norm_edge(a, b)
        edge_map[(u, v)] = e
        conn_edges.append(e)
    derived = Graph.from_edges(range(len(virtuals)), conn_edges)
    assert derived.max_degree <= t, (derived.max_degree, t)
    assert len(set(edge_map.values())) == len(edge_map)
    return EdgeConnector(g, t, derived, edge_map,
                         {i: vk for vk, i in virtuals.items()})


def greedy_edge_coloring(g: Graph) -> Coloring:
    """Greedy by normalized edge order; at most 2*Delta-1 colors."""
    assign: dict[tuple[int, int], int] = {}
    incident: dict[int, set[int]] = {v: set() for v in g.adj}
    for e in sorted(g.edges()):
        used = incident[e[0]] | incident[e[1]]
        c = next(c for c in itertools.count() if c not in used)
        assign[e] = c
        incident[e[0]].add(c)
        incident[e[1]].add(c)
    return Coloring("edge", assign, max(2 * g.max_degree - 1, 1))


def _free_color(g: Graph, e: tuple[int, int], assign: dict,
                palette: int) -> int:
    """Smallest color in [palette] on no colored edge adjacent to ``e``;
    ``e``'s own entry in ``assign`` is ignored."""
    used = {assign[f] for u in e for z in g.adj[u]
            for f in [norm_edge(u, z)] if f != e and f in assign}
    for c in range(palette):
        if c not in used:
            return c
    raise GraphError(f"no free color for edge {e} in a palette of {palette}")


def reduce_edge_colors(g: Graph, c: Coloring,
                       target: int) -> tuple[Coloring, int]:
    """Basic color reduction on edges: one top class per round recolors
    greedily from [target].  Needs target >= 2*Delta-1.  Returns the new
    coloring and the simulated round count (palette - target)."""
    if target >= c.palette_size:
        return c, 0
    if target < max(2 * g.max_degree - 1, 1):
        raise GraphError(f"edge reduction target {target} below 2*Delta-1")
    assign = dict(c.assignment)
    for col in range(c.palette_size - 1, target - 1, -1):
        for e in sorted(e for e, ec in assign.items() if ec == col):
            assign[e] = _free_color(g, e, assign, target)
    return Coloring("edge", assign, target), c.palette_size - target


def _pullback_classes(conn, phi: Coloring, palette: int):
    """Base edges grouped by the color of their connector edge."""
    classes: list[list[tuple[int, int]]] = [[] for _ in range(palette)]
    for e, ce in conn.edge_map.items():
        classes[phi.assignment[ce]].append(e)
    return classes


def star_edge_coloring_4delta(g: Graph) -> tuple[Coloring, StarPartitionReport]:
    """The two-stage 4*Delta scheme, which is recursive_star_edge_coloring
    with x=1: t = floor(sqrt(Delta)), stars of size at most ceil(Delta/t)
    colored with 2*ceil(Delta/t)-1 colors each, trimmed to 4*Delta."""
    return recursive_star_edge_coloring(g, 1)


def recursive_star_edge_coloring(g: Graph,
                                 x: int) -> tuple[Coloring, StarPartitionReport]:
    """x connector levels with a single t = floor(Delta^(1/(x+1))), leaves
    colored greedily, palette trimmed to at most 2^(x+1)*Delta.  The
    report's max_star is the largest star of the top-level partition."""
    if x < 1:
        raise GraphError("x must be at least 1")
    delta = g.max_degree
    report = StarPartitionReport()
    if delta < 2:
        col = greedy_edge_coloring(g)
        report.class_count = 1 if g.m else 0
        report.max_star = delta
        return col, report
    t = max(2, _int_floor_root(delta, x + 1))

    # per-level star-size bounds: b[0]=Delta, b[j+1]=ceil(b[j]/t)
    bounds = [delta]
    for _ in range(x):
        bounds.append(-(-bounds[-1] // t))
    leaf_radix = max(2 * bounds[x] - 1, 1)

    def rec(sub: Graph, depth: int) -> dict[tuple[int, int], int]:
        star = sub.max_degree
        assert star <= bounds[depth], (star, bounds[depth])
        if depth == 1:
            report.max_star = max(report.max_star, star)
        if depth == x:
            psi = greedy_edge_coloring(sub)
            assert psi.palette_size <= leaf_radix or sub.m == 0
            return psi.assignment
        if sub.m == 0:
            return {}
        conn = build_edge_connector(sub, t)
        phi = greedy_edge_coloring(conn.derived)
        assert phi.palette_size <= 2 * t - 1
        classes = _pullback_classes(conn, phi, 2 * t - 1)
        radix = leaf_radix * (2 * t - 1) ** (x - depth - 1)
        if depth == 0:
            report.class_count = sum(1 for c in classes if c)
        out: dict[tuple[int, int], int] = {}
        for i, cls in enumerate(classes):
            child = rec(edge_subgraph(sub, cls), depth + 1)
            for e in cls:
                out[e] = i * radix + child[e]
        return out

    assign = rec(g, 0)
    combined = leaf_radix * (2 * t - 1) ** x
    col = Coloring("edge", assign, combined)
    bound = 2 ** (x + 1) * delta
    if combined > bound:
        col, r = reduce_edge_colors(g, col, bound)
        report.phases.append(("trim", r))
        report.rounds += r
    _require_proper(g, col, "recursive_star_edge_coloring output")
    assert col.palette_size <= bound
    return col, report


def check_star_partition(g: Graph, classes, p: int, q: int) -> bool:
    """True iff ``classes`` is a (p,q)-star-partition: at most p classes,
    at most q same-class edges at any vertex."""
    seen: set[tuple[int, int]] = set()
    for cls in classes:
        for e in cls:
            e = norm_edge(*e)
            if not g.has_edge(*e):
                raise GraphError(f"{e} is not an edge")
            if e in seen:
                raise GraphError(f"{e} appears in two classes")
            seen.add(e)
    if seen != set(g.edges()):
        raise GraphError("classes do not cover the edge set")
    if len([c for c in classes if c]) > p:
        return False
    for cls in classes:
        per_vertex: dict[int, int] = {}
        for u, v in cls:
            per_vertex[u] = per_vertex.get(u, 0) + 1
            per_vertex[v] = per_vertex.get(v, 0) + 1
            if per_vertex[u] > q or per_vertex[v] > q:
                return False
    return True
