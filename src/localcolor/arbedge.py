"""Edge coloring driven by arboricity: H-partitions, acyclic orientations,
cross-edge merging, orientation connectors, and the powered scheme.

The palette bookkeeping is explicit throughout.  Merges keep crossing and
B-internal edges in a shared low range of size Delta+d-1 and push A-internal
colors into a disjoint high range, so the total count matches the closed
forms exposed by arb_palette_bound and little_o_palette_bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .basecolor import _int_ceil_root, _require_proper
from .graph import Coloring, Graph, GraphError, VerificationError, induced_subgraph, norm_edge
from .sim import RoundTrace
from .staredge import (_class_graph, _FirstFit, _pullback_classes, _star_edge_coloring,
                       greedy_edge_coloring)
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
        if sorted(v for s in self.sets for v in s) != sorted(g.adj):
            raise VerificationError("H-partition sets do not partition the vertex set")
        for i, s in enumerate(self.sets):
            for v in s:
                later = sum(1 for w in g.adj[v] if self.set_of[w] >= i)
                if later > self.d:
                    raise VerificationError(f"vertex {v} has {later} neighbors in its "
                                            f"own or later H-sets, more than d={self.d}")


@dataclass
class Orientation:
    graph: Graph
    out: dict  # v -> tuple of out-neighbors, ascending
    bound: int

    def out_degree(self, v):
        return len(self.out[v])

    @property
    def max_out_degree(self):
        return max((len(o) for o in self.out.values()), default=0)

    def oriented_edges(self):
        for v, heads in self.out.items():
            for w in heads:
                yield (v, w)

    def topo_order(self):
        """Kahn's algorithm; raises if the orientation has a cycle."""
        indeg = {v: 0 for v in self.graph.adj}
        for _, w in self.oriented_edges():
            indeg[w] += 1
        queue = sorted(v for v in indeg if indeg[v] == 0)
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in self.out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != self.graph.n:
            raise GraphError("orientation contains a cycle")
        return order

    def restrict(self, sub: Graph) -> "Orientation":
        out = {}
        for v, ns in sub.adj.items():
            keep = set(ns)
            out[v] = tuple(w for w in self.out.get(v, ()) if w in keep)
        return Orientation(sub, out, self.bound)


@dataclass
class ArbParams:
    a: int
    q: float
    a_hat: float
    x: int
    eta: float
    c: float
    guaranteed: bool  # whether the Delta*(1+2*eta) palette guarantee holds


def estimate_arboricity(g: Graph) -> int:
    """ceil(degeneracy/2), an estimate that is not an upper bound.  Since
    a <= degeneracy <= 2a-1, the arboricity is at least
    ceil((degeneracy+1)/2), which this value never exceeds and undercuts
    when the degeneracy is even: the 200x200 grid has degeneracy 2 and
    arboricity 2, but gets 1."""
    # bucket-queue degeneracy in O(n+m) (Matula & Beck 1983): buckets[d]
    # holds vertices last seen at remaining degree d; stale entries are
    # skipped.  Peeling a vertex lowers the minimum degree by at most one.
    deg = {v: len(ns) for v, ns in g.adj.items()}
    buckets: list[list[int]] = [[] for _ in range(g.max_degree + 1)]
    for v, d in deg.items():
        buckets[d].append(v)
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
        for w in g.adj[v]:
            if w in deg:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        d = max(d - 1, 0)
    return max(1, -(-degen // 2))


def h_partition(g: Graph, a: int, q: float = DEFAULT_Q) -> HPartition:
    """Peel vertices of remaining degree <= floor(q*a), one set per phase."""
    if q < 2 + EPSILON_DEFAULT - 1e-9:
        raise GraphError(f"q must be at least {2 + EPSILON_DEFAULT}, got {q}")
    if a < 1:
        raise GraphError("a must be at least 1")
    d = int(q * a)
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
    out = {v: [] for v in g.adj}
    for u, v in g.edges():
        su, sv = h.set_of[u], h.set_of[v]
        tail, head = (u, v) if (su, u) < (sv, v) else (v, u)
        out[tail].append(head)
    orient = Orientation(g, {v: tuple(sorted(o)) for v, o in out.items()}, h.d)
    if orient.max_out_degree > h.d:
        raise VerificationError(f"out-degree {orient.max_out_degree} exceeds d={h.d}")
    orient.topo_order()
    return orient


def merge_cross_coloring(g: Graph, A, B, colA: Coloring, colB: Coloring,
                         d: int) -> tuple[Coloring, int]:
    """Unify edge colorings of G(A) and G(B) and color the crossing edges.

    Crossing and B-internal edges share a low range of size
    max(|colB|, Delta+d-1); A-internal colors move to a disjoint high
    range.  Exactly d rounds are simulated: each A-vertex labels its
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
    ff = _FirstFit(colB.assignment)
    for e, c in colA.assignment.items():
        ff.paint(e, low + c)

    # round i colors the crossing edges each A-vertex labels i (1..d)
    by_round: list[list] = [[] for _ in range(d + 1)]
    for v in sorted(A):
        cross = [w for w in g.adj[v] if w in B]
        for i, w in enumerate(cross, start=1):
            by_round[i].append((w, v, norm_edge(v, w)))

    for active in by_round[1:]:
        for w, v, e in sorted(active):
            ff.fill(e, low)
    col = Coloring("edge", ff.assign, low + colA.palette_size)
    _require_proper(g, col, "merge_cross_coloring output")
    return col, d


def arb_palette_bound(delta: int, a: int, q: float = DEFAULT_Q) -> int:
    d = int(q * a)
    return max(delta + d - 1, 1) + 4 * d


def arb_edge_coloring(g: Graph, a: int,
                      q: float = DEFAULT_Q) -> tuple[Coloring, RoundTrace]:
    """H-partition, internal stars per set in a shared high range, then a
    sequential merge sweep coloring crossing edges from a low range of
    size Delta+d-1.  Total palette is arb_palette_bound(Delta, a, q)."""
    col, trace = _arb_edge_coloring(g, a, q)
    _require_proper(g, col, "arb_edge_coloring output")
    return col, trace


def _arb_edge_coloring(g: Graph, a: int, q: float) -> tuple[Coloring, RoundTrace]:
    """arb_edge_coloring without its properness check, for callers that
    check their own whole output."""
    trace = RoundTrace()
    delta = g.max_degree
    if delta < 1:
        return Coloring("edge", {}, 1), trace
    hp = h_partition(g, a, q)
    d = hp.d
    low = max(delta + d - 1, 1)

    ff = _FirstFit()
    internal = []
    for i, s in enumerate(hp.sets):
        sub = induced_subgraph(g, s)
        if sub.m == 0:
            continue
        # h_partition checked that sub has degree <= d, and the star scheme
        # checks its palette against 4*Delta(sub) <= 4d
        col, rep = _star_edge_coloring(sub, 1)
        part = RoundTrace()
        part.add_phase("internal-stars", rep.rounds)
        internal.append(part)
        for e, c in col.assignment.items():
            ff.paint(e, low + c)
    trace.merge_parallel("hset-internal", internal)

    merge_rounds = 0
    for i in range(hp.ell - 2, -1, -1):
        for v in sorted(hp.sets[i]):
            for w in g.adj[v]:
                if hp.set_of[w] > i:
                    ff.fill(norm_edge(v, w), low)
        merge_rounds += d
    trace.add_phase("merge-sweep", merge_rounds)

    col = Coloring("edge", ff.assign, low + 4 * d)
    if col.palette_size != arb_palette_bound(delta, a, q):
        raise VerificationError(f"palette {col.palette_size} is not "
                                f"arb_palette_bound = {arb_palette_bound(delta, a, q)}")
    return col, trace


@dataclass
class OrientationConnector:
    derived: Graph
    edge_map: dict  # base edge -> derived edge, both normalized
    virtual_of: dict  # derived id -> (vertex, side, index); side in {"in","out"}


def build_orientation_connector(g: Graph, orient: Orientation, in_split: int,
                                out_split: int,
                                bipartite: bool = False) -> OrientationConnector:
    """Group each vertex's incoming edges into chunks of size <= in_split
    and its outgoing edges into chunks of size <= out_split.  With shared
    virtuals (default) in-chunk i and out-chunk i attach to the same
    virtual vertex v_i; in bipartite mode out-chunks get their own
    virtuals, so the connector is bipartite with side degrees bounded by
    the two split sizes."""
    if in_split < 1 or out_split < 1:
        raise GraphError("split sizes must be positive")
    orient.topo_order()
    if orient.max_out_degree > orient.bound:
        raise GraphError("orientation violates its out-degree bound")
    incoming = {v: [] for v in g.adj}
    for v, w in orient.oriented_edges():
        incoming[w].append(v)
    for tails in incoming.values():
        tails.sort()
    virtuals = {}

    def vid(v, side, idx):
        key = (v, side, idx) if bipartite else (v, "shared", idx)
        if key not in virtuals:
            virtuals[key] = len(virtuals)
        return virtuals[key]

    edge_map = {}
    conn_edges = []
    for v, heads in orient.out.items():
        for j, w in enumerate(heads):
            i = bisect_left(incoming[w], v) // in_split
            e = norm_edge(vid(v, "out", j // out_split), vid(w, "in", i))
            edge_map[norm_edge(v, w)] = e
            conn_edges.append(e)
    if len(set(conn_edges)) != len(conn_edges):
        raise GraphError("two base edges share a connector edge")
    derived = _class_graph(conn_edges)  # every virtual has an edge
    for (v, side, idx), i in virtuals.items():
        cap = in_split + out_split
        if bipartite:
            cap = in_split if side == "in" else out_split
        if derived.degree(i) > cap:
            raise GraphError(f"connector vertex {(v, side, idx)} has degree "
                             f"{derived.degree(i)} > {cap}")
    return OrientationConnector(derived, edge_map, {i: k for k, i in virtuals.items()})


def little_o_palette_bound(delta: int, a: int, q: float = DEFAULT_Q) -> int:
    if delta < 2:
        return max(2 * delta - 1, 1)
    d = int(q * a)
    k = math.isqrt(delta - 1) + 1  # ceil(sqrt(delta))
    rt_d = math.isqrt(d - 1) + 1 if d > 1 else 1
    in_split = -(-delta // k)
    conn_delta = in_split + rt_d
    phi = arb_palette_bound(conn_delta, rt_d, q)
    psi = arb_palette_bound(k + rt_d, rt_d, q)
    return phi * psi


def delta_plus_little_o(g: Graph, a: int,
                        q: float = DEFAULT_Q) -> tuple[Coloring, RoundTrace]:
    """Orientation connector with sqrt splits, colored recursively through
    arb_edge_coloring; classes colored the same way in parallel.  The
    palette is little_o_palette_bound(Delta, a, q) = Delta + O(sqrt(Delta*a))
    + O(a)."""
    trace = RoundTrace()
    delta = g.max_degree
    if delta < 2:
        return greedy_edge_coloring(g), trace
    hp = h_partition(g, a, q)
    orient = acyclic_orientation(g, hp)
    d = hp.d
    k = math.isqrt(delta - 1) + 1
    rt_d = math.isqrt(d - 1) + 1 if d > 1 else 1
    in_split = -(-delta // k)
    conn = build_orientation_connector(g, orient, in_split, rt_d)

    phi, phi_trace = _arb_edge_coloring(conn.derived, rt_d, q)
    trace.extend(phi_trace, "phi:")

    psi_palette = arb_palette_bound(k + rt_d, rt_d, q)
    classes = _pullback_classes(conn, phi, phi.palette_size)
    assign = {}
    class_traces = []
    for i, cls in enumerate(classes):
        if not cls:
            continue
        sub = _class_graph(cls)
        if sub.max_degree > k + rt_d:
            raise VerificationError(f"class {i} has degree {sub.max_degree} > "
                                    f"{k + rt_d}")
        psi, sub_trace = _arb_edge_coloring(sub, rt_d, q)
        class_traces.append(sub_trace)
        for e in cls:
            assign[e] = i * psi_palette + psi.assignment[e]
    trace.merge_parallel("psi-classes", class_traces)

    col = Coloring("edge", assign, phi.palette_size * psi_palette)
    bound = little_o_palette_bound(delta, a, q)
    if col.palette_size > bound:
        raise VerificationError(f"palette {col.palette_size} exceeds "
                                f"little_o_palette_bound = {bound}")
    _require_proper(g, col, "delta_plus_little_o output")
    return col, trace


def _oriented_sweep(sub: Graph, orient: Orientation, palette: int):
    """Color edges by processing vertices in reverse topological order;
    each vertex colors its out-edges.  An edge sees at most
    (out-1) + (Delta-1) colored neighbors, so Delta + maxout - 1 colors
    always suffice."""
    ff = _FirstFit()
    for v in reversed(orient.topo_order()):
        for w in orient.out[v]:
            ff.fill(norm_edge(v, w), palette)
    return ff.assign


def powered_palette_bound(delta: int, a: int, q: float, x: int) -> int:
    """(ceil(Delta^(1/x)) + ceil(a_hat^(1/x)) + 3)^x with exact integer
    roots: an integer r has r^x >= a_hat exactly when r^x >= ceil(a_hat)."""
    return (_int_ceil_root(delta, x) + _int_ceil_root(math.ceil(q * a), x) + 3) ** x


def powered_edge_coloring(g: Graph, a: int, q: float,
                          x: int) -> tuple[Coloring, RoundTrace]:
    """x-1 levels of bipartite orientation-connector coloring with
    gin+gout-1 colors each, then an oriented greedy sweep on the leaf
    classes.  Total palette stays within
    (ceil(Delta^(1/x)) + ceil(a_hat^(1/x)) + 3)^x."""
    if x < 1:
        raise GraphError("x must be at least 1")
    trace = RoundTrace()
    delta = g.max_degree
    if delta < 1:
        return Coloring("edge", {}, 1), trace
    a_hat = q * a
    hp = h_partition(g, a, q)
    orient = acyclic_orientation(g, hp)

    gin = _int_ceil_root(delta, x) + 1
    gout = _int_ceil_root(math.ceil(a_hat), x) + 1
    level_palette = gin + gout - 1

    # degree / out-degree bounds per level
    dbound = [delta]
    obound = [min(hp.d, delta)]
    for _ in range(x - 1):
        dbound.append(-(-dbound[-1] // gin) + -(-obound[-1] // gout))
        obound.append(-(-obound[-1] // gout))
    leaf_radix = max(dbound[x - 1] + obound[x - 1] - 1, 1)

    def rec(sub: Graph, sor: Orientation, depth: int):
        if sub.max_degree > dbound[depth] or sor.max_out_degree > obound[depth]:
            raise VerificationError(
                f"level {depth} class has degree {sub.max_degree} and out-degree "
                f"{sor.max_out_degree}, above {dbound[depth]} and {obound[depth]}")
        if sub.m == 0:
            return {}
        if depth == x - 1:
            return _oriented_sweep(sub, sor, leaf_radix)
        conn = build_orientation_connector(sub, sor, gin, gout, bipartite=True)
        phi = greedy_edge_coloring(conn.derived)
        # greedy needs deg(a)+deg(b)-1 <= gin+gout-1 colors on a bipartite
        # connector, even though it declares the generic 2*Delta-1 palette
        if max(phi.assignment.values(), default=0) >= level_palette:
            raise VerificationError(f"level {depth} connector needs more than "
                                    f"{level_palette} colors")
        classes = _pullback_classes(conn, phi, level_palette)
        radix = leaf_radix * level_palette ** (x - depth - 2)
        out = {}
        for i, cls in enumerate(classes):
            if not cls:
                continue
            child_g = _class_graph(cls)
            child = rec(child_g, sor.restrict(child_g), depth + 1)
            for e in cls:
                out[e] = i * radix + child[e]
        return out

    assign = rec(g, orient, 0)
    col = Coloring("edge", assign, leaf_radix * level_palette ** (x - 1))
    bound = powered_palette_bound(delta, a, q, x)
    if col.palette_size > bound:
        raise VerificationError(f"palette {col.palette_size} exceeds "
                                f"powered_palette_bound = {bound}")
    _require_proper(g, col, "powered_edge_coloring output")
    return col, trace


def _log2(v):
    return math.log2(max(v, 2.0))


def _loglog2(v):
    return max(math.log2(max(math.log2(max(v, 2.0)), 1.0)), 1.0)


def auto_params(delta: int, a: int, c: float = 2.0,
                eps: float = EPSILON_DEFAULT) -> ArbParams:
    """Pick q, x, eta per the two regimes; the `guaranteed` flag says
    whether Delta^(1/x) >= (x/eta)(a_hat^(1/x)+3) holds with eta small
    enough for the Delta*(1+2*eta) palette guarantee."""
    if delta < 1 or a < 1:
        raise GraphError("delta and a must be at least 1")
    small_arb = a <= delta ** (1.0 / (4 * _loglog2(delta)))
    if small_arb:
        eta = 1.0 / _log2(delta)
        q = max(2 + eps,
                (1.0 / a) * 2 ** (_log2(delta) /
                                  (_loglog2(delta) + math.log2(1 / eta) + 1)))
        a_hat = q * a
        x = max(1, round(_log2(a_hat)))
        guaranteed = delta ** (1.0 / x) >= (x / eta) * (a_hat ** (1.0 / x) + 3)
    else:
        q = 2 + eps
        a_hat = q * a
        x = max(1, round(_log2(a_hat) / (c * _loglog2(a_hat))))
        eta_min = x * (a_hat ** (1.0 / x) + 3) / delta ** (1.0 / x)
        eta = min(0.5, eta_min)
        guaranteed = eta_min <= 0.5
    return ArbParams(a, q, a_hat, x, eta, c, guaranteed)
