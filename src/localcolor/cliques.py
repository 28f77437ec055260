"""Maximal-clique machinery: clique covers, whose cliques are sorted tuples,
diversity and vertex connectors."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lt

from .graph import Graph, GraphError, _clique_graph, _degeneracy_order, _gc_paused

CLIQUE_CAP = 10 ** 6


class CliqueCapExceeded(GraphError):
    pass


@dataclass
class CliqueCover:
    """A consistent set of cliques covering every edge of the graph: its
    maximal cliques, or a cover given with it (line graphs, hypergraph
    line graphs, a cover file).  Each clique is a strictly increasing tuple
    of vertex IDs, and the list is in lexicographic order, so a clique's ID,
    its position, is reproducible.  D is the most cliques at one vertex (the
    diversity) and S the size of the largest clique.
    """

    cliques: list[tuple[int, ...]]
    D: int
    S: int

    @staticmethod
    def from_cliques(g: Graph, cliques) -> "CliqueCover":
        """The cover of g by ``cliques``, each any collection of vertex IDs
        (repeats and order do not matter), checked to be a clique cover.
        Cliques that are already strictly increasing tuples, as enumeration
        and :meth:`restrict` give them, are only deduplicated and sorted;
        any other input is normalized clique by clique."""
        if iter(cliques) is cliques:  # an iterator: it may be read twice
            cliques = list(cliques)
        try:
            uniq = sorted(set(cliques))
        except TypeError:  # unhashable cliques, or ones that do not compare
            uniq = None
        if uniq is None or not _increasing(uniq):
            uniq = sorted({tuple(sorted(set(q))) for q in cliques})
        at: dict[int, list[tuple[int, ...]]] = {v: [] for v in g.adj}  # cliques per vertex
        for q in uniq:
            for v in q:
                if v not in at:
                    raise GraphError(next(_violations(g, uniq)))
                at[v].append(q)
        # Every clique at v lies in v's closed neighborhood N[v] iff each
        # is a clique, and together they reach all of N(v) iff every edge
        # at v is covered: the cover is valid iff their union is N[v].
        # Each union lives only while its vertex is checked.
        for v, ns in g.adj.items():
            r = {v}.union(*at[v])
            if len(r) != len(ns) + 1 or not r.issuperset(ns):
                raise GraphError(next(_violations(g, uniq)))
        D = max(map(len, at.values()), default=0)
        S = max(map(len, uniq), default=0)
        return CliqueCover(uniq, D, S)

    def restrict(self, g_sub: Graph) -> "CliqueCover":
        """Cover of an induced subgraph: keep each clique's members that
        are in the subgraph, in order.  Keeps the cover property (every
        surviving edge lay in some clique) and never increases D or S."""
        keep = g_sub.adj.__contains__
        parts = [tuple(filter(keep, q)) for q in self.cliques]
        return CliqueCover.from_cliques(g_sub, [p for p in parts if p])


def _increasing(rows: list) -> bool:
    """Whether every row is a tuple whose entries increase strictly.  One
    pass over the rows laid end to end: each row's entries but its last
    meet the entries after them, so no pair spans two rows."""
    if not set(map(type, rows)) <= {tuple}:
        return False
    heads = chain.from_iterable(map(itemgetter(slice(None, -1)), rows))
    tails = chain.from_iterable(map(itemgetter(slice(1, None)), rows))
    return all(map(lt, heads, tails))


def _violations(g: Graph, cliques: list[tuple[int, ...]]):
    """Why sorted, distinct ``cliques`` are no clique cover of g, in order:
    for each clique, a vertex not in g, then its lexicographically first
    pair that is no edge; then each edge of g that no clique covers."""
    for q in cliques:
        for v in q:
            if v not in g.adj:
                yield f"clique vertex {v} not in graph"
        for i, u in enumerate(q):
            for w in q[i + 1:]:
                if not g.has_edge(u, w):
                    yield f"clique {list(q)} is not a clique: ({u},{w}) missing"
    reach: dict[int, set[int]] = {}
    for q in cliques:
        for v in q:
            reach.setdefault(v, set()).update(q)
    for u, w in g.edges():
        if w not in reach.get(u, ()):
            yield f"edge {(u, w)} not covered by any clique"


def _tomita_pivot(p: set[int], x: set[int], adj: dict[int, set[int]]) -> int:
    """Tomita's pivot of the call (P, X): a vertex of P | X with most
    neighbors in P.  X is scored first; scoring stops at a vertex that
    covers P (all of it from X, the rest of it from P), as none can beat it."""
    best, most = None, -1
    for group, full in ((x, len(p)), (p, len(p) - 1)):
        for u in group:
            k = len(p & adj[u])
            if k > most:
                best, most = u, k
                if k == full:
                    return best
    return best


def _bron_kerbosch(adj: dict[int, set[int]], order: list[int],
                   cap: int) -> list[tuple[int, ...]]:
    """Maximal cliques as sorted tuples, by Bron–Kerbosch on an explicit
    stack of calls (R, P, X, vertices to branch on), so a big clique needs
    no deep recursion.  The outer loop walks the vertices in a degeneracy
    order, which gives vertex v the subproblem P = its later neighbors,
    X = its earlier ones (Eppstein, Löffler and Strash 2010).  A later
    neighbor u with no neighbor in common with v makes (v, u) a maximal
    clique, which is emitted without a call; the remaining later neighbors
    start v's stack.  Every call branches on P minus the neighbors of
    Tomita's pivot, and no call is made whose P lies in the neighborhood
    of a vertex of X.  v's stack is emptied before the next vertex starts."""
    out: list[tuple[int, ...]] = []
    later = set(adj)
    for v in order:
        nv = adj[v]
        later.remove(v)
        pv = nv & later
        for u in [u for u in pv if nv.isdisjoint(adj[u])]:  # a triangle-free edge
            pv.remove(u)
            out.append((v, u) if v < u else (u, v))
        xv = nv - later
        stack = [((v,), pv, xv, pv - adj[_tomita_pivot(pv, xv, adj)])] if pv else []
        if not nv:
            out.append((v,))
        while stack and len(out) <= cap:
            r, p, x, branch = stack.pop()
            for w in branch:
                nw = adj[w]
                pw, xw = p & nw, x & nw
                if pw:
                    rest = pw - adj[_tomita_pivot(pw, xw, adj)]
                    if rest:  # empty iff the pivot is a vertex of X that covers P
                        stack.append((r + (w,), pw, xw, rest))
                elif not xw:
                    out.append(tuple(sorted(r + (w,))))
                p.remove(w)
                x.add(w)
        if len(out) > cap:
            raise CliqueCapExceeded(f"more than {cap} maximal cliques; aborting enumeration")
    return out


def enumerate_maximal_cliques(g: Graph, cap: int = CLIQUE_CAP) -> CliqueCover:
    return _maximal_clique_cover(g, cap)


@_gc_paused
def _maximal_clique_cover(g: Graph, cap: int) -> CliqueCover:
    """enumerate_maximal_cliques with the collector paused: the cliques are
    long-lived tuples, and collections would only re-scan them."""
    order, _ = _degeneracy_order(g)
    # the adjacency sets are built in the call, so they are freed before
    # the cover is checked
    cliques = _bron_kerbosch({v: set(ns) for v, ns in g.adj.items()}, order, cap)
    return CliqueCover.from_cliques(g, cliques)


def build_vertex_connector(vertices, cliques, t: int, D: int) -> Graph:
    """The graph on ascending ``vertices`` keeping only the edges inside
    size-t parts of ``cliques``, each split by ascending ID; its degree is
    checked against D(t-1), D the diversity of the cover they were cut from."""
    if t <= 1:
        raise GraphError(f"connector part size t must exceed 1, got {t}")
    derived = _clique_graph(vertices, (q[s:s + t] for q in cliques for s in range(0, len(q), t)))
    if derived.max_degree > D * (t - 1):
        raise GraphError(f"vertex connector degree {derived.max_degree} exceeds "
                         f"D(t-1) = {D}*{t - 1}")
    return derived
