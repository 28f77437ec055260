"""Edge coloring driven by arboricity: H-partitions, acyclic orientations,
cross-edge merging, orientation connectors, and the powered scheme.

The palette bookkeeping is explicit throughout.  Merges keep crossing and
B-internal edges in a shared low range of size Delta+d-1 and push A-internal
colors into a disjoint high range, so the total count matches the closed
forms exposed by arb_palette_bound and little_o_palette_bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .basecolor import _int_ceil_root, _require_proper
from .graph import (Coloring, Graph, GraphError, VerificationError, _degeneracy_order,
                    _depth, _recurse, induced_subgraph, norm_edge)
from .sim import RoundTrace
from .staredge import _connector_level, _greedy_edges, _star_edge_coloring
from .verify import is_proper_edge

EPSILON_DEFAULT = 0.5
DEFAULT_Q = 2 + EPSILON_DEFAULT

# arb_edge_coloring palette: low range Delta + d - 1 for crossing edges,
# plus a shared high range of 4d for H-set internal edges, d = floor(q*a).
ARB_C = 5 * DEFAULT_Q

# delta_plus_little_o envelope for forests (a=1, q=2.5):
# little_o_palette_bound(Delta, 1) <= Delta + C1*sqrt(Delta) + C2, from
# expanding (sqrt(Delta)+1 + (5q+1)(sqrt(d)+1))^2 with d = floor(q).
LITTLE_O_C1 = 70
LITTLE_O_C2 = 1215


@dataclass
class HPartition:
    sets: list  # tuple of vertex tuples, H_1 first
    d: int
    set_of: dict = field(default_factory=dict)

    @property
    def ell(self):
        return len(self.sets)

    def validate(self, g: Graph):
        adj, set_of, d = g.adj, self.set_of, self.d
        # the sets list n vertices, and exactly those of V: each one once
        listed = list(chain.from_iterable(self.sets))
        if len(listed) != len(adj) or adj.keys() != set(listed):
            raise VerificationError("H-partition sets do not partition the vertex set")
        for i, s in enumerate(self.sets):
            for v in s:
                later = 0
                for w in adj[v]:
                    if set_of[w] >= i:
                        later += 1
                if later > d:
                    raise VerificationError(f"vertex {v} has {later} neighbors in its "
                                            f"own or later H-sets, more than d={d}")


@dataclass
class Orientation:
    graph: Graph
    out: dict  # v -> tuple of out-neighbors, ascending

    @property
    def max_out_degree(self):
        return max((len(o) for o in self.out.values()), default=0)

    def oriented_edges(self):
        for v, heads in self.out.items():
            for w in heads:
                yield (v, w)

    def topo_order(self):
        """Kahn's algorithm: the zero in-degree vertices start sorted, and
        the last one found is taken first.  Raises if the orientation has
        a cycle."""
        indeg = dict.fromkeys(self.graph.adj, 0)
        for heads in self.out.values():
            for w in heads:
                indeg[w] += 1
        queue = sorted(v for v, k in indeg.items() if k == 0)
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in self.out.get(v, ()):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != len(indeg):
            raise GraphError("orientation contains a cycle")
        return order

    def restrict(self, sub: Graph) -> "Orientation":
        out = {}
        for v, ns in sub.adj.items():
            keep = set(ns)
            out[v] = tuple(w for w in self.out.get(v, ()) if w in keep)
        return Orientation(sub, out)


def estimate_arboricity(g: Graph) -> int:
    """ceil(degeneracy/2), an estimate that is not an upper bound.  Since
    a <= degeneracy <= 2a-1, the arboricity is at least
    ceil((degeneracy+1)/2), which this value never exceeds and undercuts
    when the degeneracy is even: the 200x200 grid has degeneracy 2 and
    arboricity 2, but gets 1."""
    _, degen = _degeneracy_order(g)
    return max(1, -(-degen // 2))


def _q_times_a(q: float, a: int) -> Fraction:
    """q*a exactly, with q taken at its decimal value (2.51 is 251/100,
    not the nearest binary float).  The one check of a and q: a must be at
    least 1, q*a finite and q at least 2.5."""
    if a < 1:
        raise GraphError(f"a must be at least 1, got {a}")
    if not math.isfinite(q * a):  # NaN, inf, or q*a past the float range
        raise GraphError(f"q*a must be finite, got q={q}, a={a}")
    exact = Fraction(str(q))
    if exact < DEFAULT_Q:
        raise GraphError(f"q must be at least {DEFAULT_Q}, got {q}")
    return exact * a


def h_partition(g: Graph, a: int, q: float = DEFAULT_Q) -> HPartition:
    """Peel vertices of remaining degree <= floor(q*a), one set per phase."""
    d = math.floor(_q_times_a(q, a))
    # deg[v]: v's neighbors not yet peeled.  Every vertex left after a
    # phase has deg > d, so the next phase peels exactly the vertices
    # whose count falls to d during this one.
    deg = {v: len(ns) for v, ns in g.adj.items()}
    peel = sorted(v for v, k in deg.items() if k <= d)
    sets = []
    set_of = {}
    while len(set_of) < len(deg):
        if not peel:
            raise GraphError(
                f"peeling stalled with {len(deg) - len(set_of)} vertices of "
                f"degree > {d}; a={a} is below the true arboricity")
        for v in peel:
            set_of[v] = len(sets)
        sets.append(tuple(peel))
        frontier = []
        for v in peel:
            for w in g.adj[v]:
                if w not in set_of:
                    deg[w] -= 1
                    if deg[w] == d:
                        frontier.append(w)
        peel = sorted(frontier)
    hp = HPartition(sets, d, set_of)
    hp.validate(g)
    return hp


def acyclic_orientation(g: Graph, h: HPartition) -> Orientation:
    """Cross edges point to the higher set, intra-set edges to the higher
    ID; out-degree is at most h.d and the result is acyclic."""
    set_of = h.set_of
    out = {v: [] for v in g.adj}
    for u, v in g.edges():
        su, sv = set_of[u], set_of[v]
        tail, head = (u, v) if (su, u) < (sv, v) else (v, u)
        out[tail].append(head)
    orient = Orientation(g, {v: tuple(sorted(o)) for v, o in out.items()})
    if orient.max_out_degree > h.d:
        raise VerificationError(f"out-degree {orient.max_out_degree} exceeds d={h.d}")
    # acyclic: every arc goes strictly up the key (H-set, ID)
    for v, heads in orient.out.items():
        key = (set_of[v], v)
        for w in heads:
            if (set_of[w], w) <= key:
                raise VerificationError(f"arc {(v, w)} does not go up (H-set, ID)")
    return orient


def _first_fit(edges: list, mask: dict, palette: int) -> dict:
    """The first-fit colors of ``edges`` (see _greedy_edges), each in [palette]."""
    colors = _greedy_edges(edges, mask)
    if colors and max(colors) >= palette:
        e = next(e for e, c in zip(edges, colors) if c >= palette)
        raise GraphError(f"no free color for edge {e} in a palette of {palette}")
    return dict(zip(edges, colors))


def merge_cross_coloring(g: Graph, A, B, colA: Coloring, colB: Coloring,
                         d: int) -> tuple[Coloring, int]:
    """Unify edge colorings of G(A) and G(B) and color the crossing edges.

    Crossing and B-internal edges share a low range of size
    max(|colB|, Delta+d-1); A-internal colors move to a disjoint high
    range.  Exactly d rounds are charged: each A-vertex numbers its
    crossing edges 1..d and the label-i edges are colored in round i by
    their B-endpoints."""
    A, B = set(A), set(B)
    if A & B:
        raise GraphError("A and B are not disjoint")
    if A | B != set(g.adj):
        raise GraphError("A and B do not cover the vertex set")
    for v in A:
        if g.degree(v) > d:
            raise GraphError(f"vertex {v} in A has degree {g.degree(v)} > d={d}")
    ga, gb = induced_subgraph(g, A), induced_subgraph(g, B)
    if not is_proper_edge(ga, colA).ok or not is_proper_edge(gb, colB).ok:
        raise GraphError("input colorings are not proper")

    delta = g.max_degree
    low = max(colB.palette_size, delta + d - 1, 1)
    # crossing edges take colors below low, so only B's colors are masked
    mask = dict.fromkeys(g.adj, 0)
    for (u, w), c in colB.assignment.items():
        mask[u] |= 1 << c
        mask[w] |= 1 << c
    assign = dict(colB.assignment)
    assign.update((e, low + c) for e, c in colA.assignment.items())

    # round i colors the crossing edges each A-vertex numbers i (1..d)
    by_round: list[list] = [[] for _ in range(d + 1)]
    for v in sorted(A):
        cross = [w for w in g.adj[v] if w in B]
        for i, w in enumerate(cross, start=1):
            by_round[i].append((w, v, norm_edge(v, w)))

    assign.update(_first_fit([e for r in by_round[1:] for _, _, e in sorted(r)], mask, low))
    col = Coloring("edge", assign, low + colA.palette_size)
    _require_proper(g, col, "merge_cross_coloring output")
    return col, d


def arb_palette_bound(delta: int, a: int, q: float = DEFAULT_Q) -> int:
    d = math.floor(_q_times_a(q, a))
    return max(delta + d - 1, 1) + 4 * d


def arb_edge_coloring(g: Graph, a: int,
                      q: float = DEFAULT_Q) -> tuple[Coloring, RoundTrace]:
    """H-partition, one star-scheme run on the internal edges of all H-sets
    into a high range of 4d, then a sequential merge sweep coloring crossing
    edges from a low range of size Delta+d-1.  Total palette is
    arb_palette_bound(Delta, a, q)."""
    col, trace = _arb_edge_coloring(sorted(g.edges()), g.max_degree, a, q, g)
    _require_proper(g, col, "arb_edge_coloring output")
    return col, trace


def _arb_edge_coloring(edges, delta: int, a: int, q: float,
                       g: Graph | None = None) -> tuple[Coloring, RoundTrace]:
    """arb_edge_coloring of the graph of the sorted, distinct, normalized
    ``edges`` of largest degree ``delta``, without its properness check,
    for callers that check their own whole output.  ``g`` is that graph if
    the caller has it, and is built only when delta > d: h_partition peels
    every vertex of degree <= d first, so otherwise there is one H-set,
    every edge is internal and the merge sweep is empty."""
    trace = RoundTrace()
    d = math.floor(_q_times_a(q, a))  # checked also where no edge needs it
    if delta < 1:
        return Coloring("edge", {}, 1), trace
    low = max(delta + d - 1, 1)
    internal, internal_delta, sweep, mask, ell = edges, delta, [], {}, 1
    if delta > d:
        if g is None:
            g = Graph.from_edges(chain.from_iterable(edges), edges)
        hp = h_partition(g, a, q)
        set_of, ell = hp.set_of, hp.ell
        internal, internal_delta = [e for e in edges if set_of[e[0]] == set_of[e[1]]], None
        # the merge sweep, d rounds per H-set from the second-to-last down:
        # each vertex colors its edges to later sets, in ascending order,
        # from the colors below low, so the internal edges need no mask bits
        sweep = [norm_edge(v, w) for i in range(ell - 2, -1, -1)
                 for v in hp.sets[i] for w in g.adj[v] if set_of[w] > i]
        mask = dict.fromkeys(g.adj, 0)

    # The H-sets share no vertex: one star-scheme run on all internal edges
    # is their parallel run, with one t.  h_partition caps an H-set's degree
    # at d, and the star scheme checks its palette against 4*Delta <= 4d.
    star, rep = _star_edge_coloring(internal, 1, internal_delta)
    trace.add_phase("hset-internal", rep.rounds)
    assign = {e: low + c for e, c in star.assignment.items()}
    assign.update(_first_fit(sweep, mask, low))
    trace.add_phase("merge-sweep", d * (ell - 1))

    col = Coloring("edge", assign, low + 4 * d)
    if col.palette_size != arb_palette_bound(delta, a, q):
        raise VerificationError(f"palette {col.palette_size} is not "
                                f"arb_palette_bound = {arb_palette_bound(delta, a, q)}")
    return col, trace


def _connector_walk(arcs, in_split: int, out_split: int, delta: int) -> list:
    """Little-o's orientation connector of ``arcs``, (tail, head) pairs in
    sorted order, in one pass: each arc's connector edge, normalized.  The
    virtual (v, i) holds v's i-th out-chunk and its i-th in-chunk, and its
    host names it v*delta + i, which is unique since a chunk index is below
    v's degree, at most ``delta``.

    In sorted order a tail's out-arcs are consecutive and come in
    ascending head order, and a head's in-arcs come in ascending tail
    order, so an arc's out-chunk and in-chunk are running counts divided
    by the split."""
    in_rank: dict[int, int] = {}
    conn = []
    append = conn.append
    tail = None
    j = 0  # the arc's rank among its tail's out-arcs
    for v, w in arcs:
        if v != tail:
            tail, j = v, 0
        a = v * delta + j // out_split
        j += 1
        r = in_rank.get(w, 0)  # the arc's rank among its head's in-arcs
        in_rank[w] = r + 1
        b = w * delta + r // in_split
        append((a, b) if a < b else (b, a))
    return conn


def _connector_degree(conn, cap: int, delta: int) -> int:
    """The largest degree of the connector edges ``conn`` from
    _connector_walk, checked: no two base edges share a connector edge
    and no virtual has more than ``cap`` of them.  The lowest overfull
    virtual is named (v, i), from its name v*delta + i."""
    if len(set(conn)) != len(conn):
        raise GraphError("two base edges share a connector edge")
    deg = Counter(chain.from_iterable(conn))
    top = max(deg.values(), default=0)
    if top > cap:
        x = min(x for x, k in deg.items() if k > cap)
        raise GraphError(f"connector vertex {divmod(x, delta)} has degree {deg[x]} > {cap}")
    return top


def _little_o_split(delta: int, d: int) -> tuple[int, int, int]:
    """Little-o's splits for Delta >= 2 and d = floor(q*a): k = ceil(sqrt(Delta)),
    rt_d = ceil(sqrt(d)) and the in-split ceil(Delta/k)."""
    k = math.isqrt(delta - 1) + 1
    rt_d = math.isqrt(d - 1) + 1 if d > 1 else 1
    return k, rt_d, -(-delta // k)


def little_o_palette_bound(delta: int, a: int, q: float = DEFAULT_Q) -> int:
    d = math.floor(_q_times_a(q, a))
    if delta < 2:
        return max(2 * delta - 1, 1)
    k, rt_d, in_split = _little_o_split(delta, d)
    return arb_palette_bound(in_split + rt_d, rt_d, q) * arb_palette_bound(k + rt_d, rt_d, q)


def delta_plus_little_o(g: Graph, a: int,
                        q: float = DEFAULT_Q) -> tuple[Coloring, RoundTrace]:
    """Orientation connector with sqrt splits, colored recursively through
    arb_edge_coloring; classes colored the same way in parallel.  The
    palette is little_o_palette_bound(Delta, a, q) = Delta + O(sqrt(Delta*a))
    + O(a)."""
    trace = RoundTrace()
    _q_times_a(q, a)
    delta = g.max_degree
    if delta < 2:  # a matching: one color
        return Coloring("edge", dict.fromkeys(g.edges(), 0), 1), trace
    hp = h_partition(g, a, q)
    arcs = sorted(acyclic_orientation(g, hp).oriented_edges())
    k, rt_d, in_split = _little_o_split(delta, hp.d)
    conn = _connector_walk(arcs, in_split, rt_d, delta)

    top = _connector_degree(conn, in_split + rt_d, delta)
    phi, phi_trace = _arb_edge_coloring(sorted(conn), top, rt_d, q)
    trace.extend(phi_trace, "phi:")

    def split(part, depth: int):  # base edges grouped by their connector edge's color
        classes: list[list[tuple[int, int]]] = [[] for _ in range(phi.palette_size)]
        for (v, w), ce in zip(part, conn):
            classes[phi.assignment[ce]].append((v, w) if v < w else (w, v))
        return classes, 0

    def leaf(cls):
        top = max(Counter(chain.from_iterable(cls)).values())
        if top > k + rt_d:
            raise VerificationError(f"class has degree {top} > {k + rt_d}")
        psi, sub_trace = _arb_edge_coloring(sorted(cls), top, rt_d, q)
        # keyed by cls's own edge tuples, so psi's copies are freed with psi
        return zip(cls, map(psi.assignment.__getitem__, cls)), sub_trace.rounds

    palettes = [phi.palette_size, arb_palette_bound(k + rt_d, rt_d, q)]
    col, rounds = _recurse("edge", arcs, palettes, split, leaf,
                           little_o_palette_bound(delta, a, q), "little_o_palette_bound")
    trace.add_phase("psi-classes", rounds)
    _require_proper(g, col, "delta_plus_little_o output")
    return col, trace


def powered_palette_bound(delta: int, a: int, q: float, x: int) -> int:
    """(ceil(Delta^(1/x)) + ceil(a_hat^(1/x)) + 3)^x, x capped at Delta, with exact
    integer roots: an integer r has r^x >= a_hat exactly when r^x >= ceil(a_hat)."""
    x = _depth(x, delta)
    a_hat = math.ceil(_q_times_a(q, a))
    return (_int_ceil_root(delta, x) + _int_ceil_root(a_hat, x) + 3) ** x


def powered_edge_coloring(g: Graph, a: int, q: float,
                          x: int) -> tuple[Coloring, RoundTrace]:
    """x-1 levels that first-fit the bipartite orientation connector with
    gin+gout-1 colors each, then a first fit of each leaf class, all in
    one order of the arcs that IDs decide (see the root sort).  Total
    palette stays within powered_palette_bound, x capped by graph._depth."""
    delta = g.max_degree
    x = _depth(x, delta)
    trace = RoundTrace()
    a_hat = math.ceil(_q_times_a(q, a))
    if delta < 1:
        return Coloring("edge", {}, 1), trace
    hp = h_partition(g, a, q)
    orient = acyclic_orientation(g, hp)

    gin = _int_ceil_root(delta, x) + 1
    gout = _int_ceil_root(a_hat, x) + 1

    # degree / out-degree bounds per level
    dbound, obound = [delta], [min(hp.d, delta)]
    for _ in range(x - 1):
        dbound.append(-(-dbound[-1] // gin) + -(-obound[-1] // gout))
        obound.append(-(-obound[-1] // gout))
    # greedy needs deg(a)+deg(b)-1 <= gin+gout-1 colors on a bipartite
    # connector, not the generic 2*Delta-1
    palettes = [gin + gout - 1] * (x - 1) + [max(dbound[-1] + obound[-1] - 1, 1)]

    def check(arcs, depth: int) -> None:
        top = max(Counter(chain.from_iterable(arcs)).values())
        top_out = max(Counter(map(itemgetter(0), arcs)).values())
        if top > dbound[depth] or top_out > obound[depth]:
            raise VerificationError(
                f"level {depth} class has degree {top} and out-degree "
                f"{top_out}, above {dbound[depth]} and {obound[depth]}")

    def split(arcs, depth: int):  # out-arcs in chunks of gout, in-arcs in chunks of gin
        check(arcs, depth)
        return _connector_level(arcs, gout, gin, bipartite=True)[0], 0

    def leaf(arcs):
        check(arcs, x - 1)
        colors = _first_fit(arcs, dict.fromkeys(chain.from_iterable(arcs), 0), palettes[-1])
        return (((v, w) if v < w else (w, v), c) for (v, w), c in colors.items()), 0

    # Tails go down the orientation's key (H-set, ID), each with its heads
    # ascending (the sort is stable), and every level hands its classes on
    # as sublists, so every leaf keeps this order.  A head is above its
    # tail in the key, so it comes first: when a tail's arcs are colored,
    # each head has colored its own out-arcs and no in-arc of the tail is
    # colored yet.  An arc sees at most (out-1) + (Delta-1) colored arcs,
    # and a leaf's first fit needs at most Delta + out - 1 colors.  The
    # levels' first fits need gin+gout-1 colors in any order.
    set_of = hp.set_of
    arcs = sorted(orient.oriented_edges(), key=lambda arc: (set_of[arc[0]], arc[0]),
                  reverse=True)
    col, _ = _recurse("edge", arcs, palettes, split, leaf,
                      powered_palette_bound(delta, a, q, x), "powered_palette_bound")
    _require_proper(g, col, "powered_edge_coloring output")
    return col, trace
