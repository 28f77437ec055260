"""Immutable simple undirected graphs and the derived constructions shared
by every coloring algorithm (induced subgraphs, line graphs, hypergraph
line graphs)."""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate, chain, compress, count, islice
from operator import eq
from typing import Iterable


class GraphError(ValueError):
    pass


class VerificationError(GraphError):
    """A result failed its own post-condition: an improper coloring or a
    palette, degree or size bound that the construction guarantees."""


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Normalize an edge to (min, max) form."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.  It wraps the
    entry points that allocate O(n+m) long-lived containers (neighbor
    lists and tuples, programs, mailboxes), where a collection would
    re-scan them all and free nothing.  That rests on one condition: the
    package's graphs, programs and mailboxes hold no reference cycles.
    Cycles that a user's ``VertexProgram`` creates are not freed before
    ``sim.run`` returns.  The collector is switched back on only if it was
    on at entry, so nested calls, and callers that paused it themselves,
    are respected."""

    @wraps(fn)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()

    return paused


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with distinct integer vertex IDs.

    Adjacency lists are kept sorted so that every iteration order in the
    library is deterministic.  ``m`` and ``max_degree`` are computed on
    first access and cached, so ``adj`` must not be mutated.
    """

    adj: dict[int, tuple[int, ...]]

    @staticmethod
    @_gc_paused
    def from_edges(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: dict[int, list[int]] = {v: [] for v in sorted(set(vertices))}
        for u, v in edges:
            try:
                nu, nv = adj[u], adj[v]
            except KeyError:
                u, v = norm_edge(u, v)
                raise GraphError(f"edge ({u},{v}) uses unknown vertex") from None
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            nu.append(v)
            nv.append(u)
        g = _freeze(adj)
        if _repeats(g.adj.values()):  # an edge was given twice
            g = Graph({v: tuple(dict.fromkeys(ns)) for v, ns in g.adj.items()})
        return g

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.adj.keys())

    @property
    def n(self) -> int:
        return len(self.adj)

    @cached_property
    def m(self) -> int:
        return sum(len(ns) for ns in self.adj.values()) // 2

    @_gc_paused
    def edges(self) -> list[tuple[int, int]]:
        """All edges, normalized and sorted."""
        return [(u, v) for u in self.adj for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self.adj.values()), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())


@_gc_paused
def _freeze(adj: dict[int, list[int]]) -> Graph:
    """The graph whose neighbor lists are adj's, each sorted in place and
    frozen to a tuple, with the vertices in ascending order.  The one
    builder of from_edges, the generators and the loaders; a list must not
    repeat a neighbor."""
    for ns in adj.values():
        ns.sort()
    return Graph({v: tuple(adj[v]) for v in sorted(adj)})


def _repeats(rows) -> bool:
    """Whether a sorted row repeats an entry.  One pass over the rows laid
    end to end; an equal pair across the seam of two rows is no repeat."""
    flat = list(chain.from_iterable(rows))
    equal_at = list(compress(count(1), map(eq, flat, islice(flat, 1, None))))
    seams = set(accumulate(map(len, rows))) if equal_at else ()
    return any(i not in seams for i in equal_at)


@dataclass
class Coloring:
    """Total map from vertices or edges to int colors below ``palette_size``."""

    kind: str  # "vertex" | "edge"
    assignment: dict
    palette_size: int

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise GraphError(f"bad coloring kind {self.kind!r}")
        colors = self.assignment.values()
        if colors and not (0 <= min(colors) and max(colors) < self.palette_size):
            for item, c in self.assignment.items():  # name the first bad item
                if not (0 <= c < self.palette_size):
                    raise GraphError(
                        f"color {c} of {item} outside palette [0,{self.palette_size})")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


def _depth(x: int, bound: int) -> int:
    """The recursion depth x, checked to be at least 1 and capped at the
    largest value with 2^(x+1) <= ``bound`` (Delta for the edge families, S
    for the vertex ones), or at 1.  Past it a level only multiplies the palette."""
    if x < 1:
        raise GraphError(f"x must be at least 1, got x={x}")
    return min(x, max(1, bound.bit_length() - 2))


def _recurse(kind: str, root, palettes: list[int], split, leaf, bound: int,
             name: str) -> tuple[Coloring, int]:
    """The one recursion of the vertex and edge families.  Level j cuts a
    part into at most ``palettes[j]`` classes, ``split(part, j)`` ->
    (classes, rounds); class i's colors are offset by i * radix[j], the
    product of the palettes below, and a falsy class is empty.
    ``leaf(part)`` -> ((item, color) pairs, rounds) uses colors below the
    last palette.  The declared palette, the product of all, must not
    exceed ``bound`` (named ``name``).  Classes run in parallel, so the
    rounds are the most along a root-to-leaf path.  A stack walks the
    parts: a self-calling closure would be a cycle, alive until gc."""
    radix = [math.prod(palettes[j + 1:]) for j in range(len(palettes))]
    declared = palettes[0] * radix[0]
    if declared > bound:
        raise VerificationError(f"palette {declared} exceeds {name} = {bound}")
    top = palettes[-1]
    assign: dict = {}
    rounds = 0
    stack = [(root, 0, 0, 0)]  # (part, depth, base, rounds above), the next part on top
    while stack:
        part, depth, base, above = stack.pop()
        if depth == len(radix) - 1:
            pairs, r = leaf(part)
            for item, c in pairs:
                if not 0 <= c < top:
                    raise VerificationError(f"leaf color {c} of {item} outside "
                                            f"the leaf palette {top}")
                assign[item] = base + c
        else:
            classes, r = split(part, depth)
            if len(classes) > palettes[depth]:
                raise VerificationError(f"level {depth} split into {len(classes)} classes, "
                                        f"more than its palette {palettes[depth]}")
            stack.extend((classes[i], depth + 1, base + i * radix[depth], above + r)
                         for i in range(len(classes) - 1, -1, -1) if classes[i])
        rounds = max(rounds, above + r)
    return Coloring(kind, assign, declared), rounds


def _degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """A smallest-last peel order of g's vertices and g's degeneracy, in
    O(n+m) with a bucket queue (Matula & Beck 1983).  Every vertex has at
    most degeneracy neighbors later in the order."""
    # buckets[d] holds vertices last seen at remaining degree d; stale
    # entries are skipped.  Peeling a vertex lowers the minimum degree by
    # at most one.
    deg = {v: len(ns) for v, ns in g.adj.items()}
    buckets: list[list[int]] = [[] for _ in range(g.max_degree + 1)]
    for v, d in deg.items():
        buckets[d].append(v)
    order = []
    degen = d = 0
    while deg:
        while True:
            while not buckets[d]:
                d += 1
            v = buckets[d].pop()
            if deg.get(v) == d:
                break
        degen = max(degen, d)
        del deg[v]
        order.append(v)
        for w in g.adj[v]:
            if w in deg:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        d = max(d - 1, 0)
    return order, degen


@_gc_paused
def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    keep = set(keep)
    if not keep <= g.adj.keys():
        raise GraphError(f"unknown vertices in keep: {sorted(keep - g.adj.keys())}")
    return Graph({v: tuple(w for w in g.adj[v] if w in keep) for v in sorted(keep)})


def line_graph(g: Graph):
    """Line graph of g plus the per-original-vertex clique cover: the
    hypergraph line graph of g's sorted normalized edges.  Line-graph vertex
    IDs are the lexicographic ranks of the edges, and the cover has one
    clique per vertex of degree >= 1 (its star), so its diversity is at
    most 2.  An edgeless graph gives the empty graph and cover."""
    return hypergraph_line_graph(sorted(g.edges()))


@_gc_paused
def hypergraph_line_graph(hyperedges: Iterable[Iterable[int]]):
    """One vertex per hyperedge, numbered in the given order, adjacency iff
    hyperedges intersect; cover has one clique per original vertex
    (diversity <= rank).  A vertex repeated within a hyperedge counts
    once; an empty hyperedge is a GraphError.  No hyperedges give the
    empty graph and cover."""
    from .cliques import CliqueCover

    hyperedges = list(hyperedges)
    by_vertex: dict[int, list[int]] = {}
    for i, he in enumerate(hyperedges):
        he = set(he)
        if not he:
            raise GraphError("empty hyperedge")
        for v in he:
            by_vertex.setdefault(v, []).append(i)
    adj: list[set[int]] = [set() for _ in hyperedges]
    for members in by_vertex.values():
        for i in members:
            adj[i].update(members)
    for i, ns in enumerate(adj):
        ns.discard(i)
    lg = Graph({i: tuple(sorted(ns)) for i, ns in enumerate(adj)})
    cliques = [members for _, members in sorted(by_vertex.items())]
    return lg, CliqueCover.from_cliques(lg, cliques)
