"""Maximal-clique machinery: covers, diversity and vertex connectors."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .graph import Graph, GraphError, _degeneracy_order

CLIQUE_CAP = 10 ** 6


class CliqueCapExceeded(GraphError):
    pass


@dataclass
class CliqueCover:
    """A consistent set of cliques covering every edge of the graph: its
    maximal cliques, or a cover given with it (line graphs, hypergraph
    line graphs, a cover file).  Clique IDs are positions in lexicographic
    order of the sorted vertex tuples, so they are reproducible.
    """

    cliques: list[frozenset[int]]
    D: int
    S: int

    @staticmethod
    def from_cliques(g: Graph, cliques) -> "CliqueCover":
        uniq = sorted({tuple(sorted(set(q))) for q in cliques})
        count = Counter(chain.from_iterable(uniq))  # cliques per vertex
        if not count.keys() <= g.adj.keys():
            raise GraphError(next(_violations(g, uniq)))
        # Every clique at v lies in v's closed neighborhood N[v] iff each
        # is a clique, and together they reach all of N(v) iff every edge
        # at v is covered: the cover is valid iff their union is N[v].
        reach = {v: {v} for v in g.adj}
        for q in uniq:
            for v in q:
                reach[v].update(q)
        for v, ns in g.adj.items():
            r = reach[v]
            if len(r) != len(ns) + 1 or not r.issuperset(ns):
                raise GraphError(next(_violations(g, uniq)))
        D = max(count.values(), default=0)
        S = max((len(q) for q in uniq), default=0)
        return CliqueCover([frozenset(q) for q in uniq], D, S)

    def restrict(self, g_sub: Graph) -> "CliqueCover":
        """Cover of an induced subgraph: intersect every clique with the
        subgraph's vertex set.  Keeps the cover property (every surviving
        edge lay in some clique) and never increases D or S."""
        keep = set(g_sub.adj)
        parts = [q & keep for q in self.cliques]
        return CliqueCover.from_cliques(g_sub, [p for p in parts if p])


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
    no deep recursion.  The outer call branches on the vertices in a
    degeneracy order, which gives vertex v the subproblem P = its later
    neighbors, X = its earlier ones (Eppstein, Löffler and Strash 2010);
    every inner call branches on P minus the neighbors of Tomita's pivot,
    and no call is made whose P lies in the neighborhood of a vertex of X."""
    out: list[tuple[int, ...]] = []
    stack = [((), set(adj), set(), order)]
    while stack:
        r, p, x, branch = stack.pop()
        for v in branch:
            nv = adj[v]
            pv, xv = p & nv, x & nv
            if pv:
                rest = pv - adj[_tomita_pivot(pv, xv, adj)]
                if rest:  # empty iff the pivot is a vertex of X that covers P
                    stack.append((r + (v,), pv, xv, rest))
            elif not xv:
                out.append(tuple(sorted(r + (v,))))
                if len(out) > cap:
                    raise CliqueCapExceeded(
                        f"more than {cap} maximal cliques; aborting enumeration")
            p.remove(v)
            x.add(v)
    return out


def enumerate_maximal_cliques(g: Graph, cap: int = CLIQUE_CAP) -> CliqueCover:
    adj = {v: set(ns) for v, ns in g.adj.items()}
    order, _ = _degeneracy_order(g)
    return CliqueCover.from_cliques(g, _bron_kerbosch(adj, order, cap))


def build_vertex_connector(g: Graph, cover: CliqueCover, t: int) -> Graph:
    """The derived graph keeping only the edges inside size-t parts of the
    cover's cliques; each clique is split by ascending ID."""
    if t <= 1:
        raise GraphError(f"connector part size t must exceed 1, got {t}")
    adj = {v: set() for v in sorted(g.adj)}
    for q in cover.cliques:
        members = sorted(q)
        for start in range(0, len(members), t):
            part = members[start:start + t]
            for v in part:
                if v not in adj:
                    raise GraphError(f"connector vertex {v} not in graph")
                adj[v].update(part)
    for v, ns in adj.items():
        ns.discard(v)
    derived = Graph({v: tuple(sorted(ns)) for v, ns in adj.items()})
    # invariant: connector degree never exceeds D*(t-1)
    if derived.max_degree > cover.D * (t - 1):
        raise GraphError(f"vertex connector degree {derived.max_degree} exceeds "
                         f"D(t-1) = {cover.D}*{t - 1}")
    return derived
