"""Independent checkers and small-instance brute-force oracles.

Every algorithm's post-conditions funnel through these; the oracles lean on
networkx so they stay independent of this package's own clique and coloring
code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graph import Coloring, Graph, GraphError, norm_edge

MAX_CLIQUE_ORACLE_N = 30
CHROMATIC_ORACLE_N = 10
EDGE_CHROMATIC_ORACLE_M = 16


@dataclass
class Verdict:
    ok: bool
    violations: list = field(default_factory=list)


def _reject_stray(stray: list) -> None:
    # a total coloring with more entries than the graph has items colors
    # something else, and its colors would be counted as used
    raise GraphError(f"coloring has items not in the graph: {stray[:5]}")


def is_proper_vertex(g: Graph, c: Coloring) -> Verdict:
    if c.kind != "vertex":
        raise GraphError("expected a vertex coloring")
    missing = [v for v in g.adj if v not in c.assignment]
    if missing:
        raise GraphError(f"coloring not total; missing {missing[:5]}")
    if len(c.assignment) > g.n:
        _reject_stray([v for v in c.assignment if v not in g.adj])
    col = c.assignment
    bad = []
    for u, nbrs in g.adj.items():  # the order of g.edges(), without building it
        cu = col[u]
        for v in nbrs:
            if col[v] == cu and u < v:
                bad.append((u, v))
    return Verdict(not bad, bad)


def is_proper_edge(g: Graph, c: Coloring) -> Verdict:
    if c.kind != "edge":
        raise GraphError("expected an edge coloring")
    col = c.assignment
    missing, bad = [], []
    m = 0
    for v, nbrs in g.adj.items():
        seen: dict = {}
        for w in nbrs:
            if v < w:  # at its lower end an edge comes in g.edges() order
                e = (v, w)
                m += 1
                if e not in col:
                    missing.append(e)
            else:
                e = (w, v)
            ce = col.get(e)  # a missing edge is reported before any verdict
            if ce in seen and seen[ce] != e:
                bad.append((v, seen[ce], e))
            seen[ce] = e
    if missing:
        raise GraphError(f"coloring not total; missing {missing[:5]}")
    if len(col) > m:
        edge_set = set(g.edges())
        _reject_stray([e for e in col if e not in edge_set])
    return Verdict(not bad, bad)


def count_colors(c: Coloring) -> tuple[int, int]:
    if max(c.assignment.values(), default=0) >= c.palette_size:
        for item, col in c.assignment.items():  # name the first bad item
            if col >= c.palette_size:
                raise GraphError(f"color {col} of {item} beyond declared palette")
    return c.colors_used(), c.palette_size


def _to_nx(g: Graph):
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.adj)
    ng.add_edges_from(g.edges())
    return ng


def brute_force_max_clique(g: Graph) -> int:
    if g.n > MAX_CLIQUE_ORACLE_N:
        raise GraphError(f"max-clique oracle capped at {MAX_CLIQUE_ORACLE_N} vertices")
    if g.n == 0:
        return 0
    import networkx as nx

    return max(len(q) for q in nx.find_cliques(_to_nx(g)))


def brute_force_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    if g.n > MAX_CLIQUE_ORACLE_N:
        raise GraphError(f"oracle capped at {MAX_CLIQUE_ORACLE_N} vertices")
    import networkx as nx

    return {frozenset(q) for q in nx.find_cliques(_to_nx(g))}


def _k_colorable(vertices, neighbors, k: int) -> bool:
    """Backtracking k-colorability on an explicit adjacency map.  The
    search runs on a stack holding, for each vertex colored so far, the
    next color to try there, so it needs no recursion."""
    order = sorted(vertices, key=lambda v: -len(neighbors[v]))
    assign: dict = {}
    tried = [0]
    while tried:
        i = len(tried) - 1
        if i == len(order):
            return True
        v = order[i]
        assign.pop(v, None)
        used = {assign[w] for w in neighbors[v] if w in assign}
        # symmetry break: first use of color c
        c = next((c for c in range(tried[i], min(k, i + 1)) if c not in used), None)
        if c is None:
            tried.pop()
        else:
            assign[v] = c
            tried[i] = c + 1
            tried.append(0)
    return False


def brute_force_chromatic(g: Graph) -> int:
    if g.n > CHROMATIC_ORACLE_N:
        raise GraphError(f"chromatic oracle capped at {CHROMATIC_ORACLE_N} vertices")
    if g.n == 0:
        return 0
    neighbors = {v: set(ns) for v, ns in g.adj.items()}
    for k in itertools.count(1):
        if _k_colorable(g.vertices, neighbors, k):
            return k


def brute_force_edge_chromatic(g: Graph) -> int:
    if g.m > EDGE_CHROMATIC_ORACLE_M:
        raise GraphError(
            f"edge-chromatic oracle capped at {EDGE_CHROMATIC_ORACLE_M} edges")
    edges = g.edges()
    if not edges:
        return 0
    neighbors = {e: {f for f in edges if f != e and set(e) & set(f)}
                 for e in edges}
    for k in itertools.count(1):
        if _k_colorable(edges, neighbors, k):
            return k


def greedy_vertex_baseline(g: Graph) -> Coloring:
    """Greedy by ascending ID; at most Delta+1 colors."""
    assign: dict[int, int] = {}
    for v in sorted(g.adj):
        used = {assign[w] for w in g.adj[v] if w in assign}
        assign[v] = next(c for c in itertools.count() if c not in used)
    return Coloring("vertex", assign, max(g.max_degree + 1, 1))


def greedy_edge_baseline(g: Graph) -> Coloring:
    """Greedy by edge ID; at most 2*Delta-1 colors."""
    assign: dict[tuple[int, int], int] = {}
    for u, v in sorted(g.edges()):
        used = {assign[e] for w in (u, v) for x in g.adj[w]
                for e in [(w, x) if w < x else (x, w)] if e in assign}
        assign[(u, v)] = next(c for c in itertools.count() if c not in used)
    return Coloring("edge", assign, max(2 * g.max_degree - 1, 1))


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


def check_clique_decomposition(g: Graph, parts, p: int, q: int) -> bool:
    """True iff ``parts`` is a (p,q)-clique-decomposition: at most p parts,
    each inducing maximum clique size at most q."""
    import networkx as nx

    seen: set[int] = set()
    for part in parts:
        ps = set(part)
        if ps & seen:
            raise GraphError("parts overlap; not a partition")
        seen |= ps
    if seen != set(g.adj):
        raise GraphError("parts do not cover the vertex set")
    if len(parts) > p:
        return False
    ng = _to_nx(g)
    return all(max(map(len, nx.find_cliques(ng.subgraph(part))), default=0) <= q
               for part in parts)
