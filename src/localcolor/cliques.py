"""Maximal-clique machinery: covers, diversity and vertex connectors."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError

CLIQUE_CAP = 10 ** 6


class CliqueCapExceeded(RuntimeError):
    pass


@dataclass
class CliqueCover:
    """A consistent set of cliques covering every edge of the graph.

    ``mode`` is "intrinsic" when the cliques are exactly the maximal cliques
    of the graph, or "provided" for externally supplied covers (line graphs,
    hypergraph line graphs).  Clique IDs are positions in lexicographic order
    of the sorted vertex tuples, so they are reproducible.
    """

    cliques: list[frozenset[int]]
    D: int
    S: int
    mode: str

    @staticmethod
    def from_cliques(g: Graph, cliques, mode: str) -> "CliqueCover":
        uniq = sorted({frozenset(q) for q in cliques},
                      key=lambda q: tuple(sorted(q)))
        count = dict.fromkeys(g.adj, 0)  # cliques per vertex
        for q in uniq:
            for v in sorted(q):
                if v not in count:
                    raise GraphError(f"clique vertex {v} not in graph")
                count[v] += 1
            for u in q:
                for w in q:
                    if u < w and not g.has_edge(u, w):
                        raise GraphError(
                            f"clique {sorted(q)} is not a clique: ({u},{w}) missing")
        covered = set()
        for q in uniq:
            qs = sorted(q)
            for i in range(len(qs)):
                for j in range(i + 1, len(qs)):
                    covered.add((qs[i], qs[j]))
        for e in g.edges():
            if e not in covered:
                raise GraphError(f"edge {e} not covered by any clique")
        D = max(count.values(), default=0)
        S = max((len(q) for q in uniq), default=0)
        return CliqueCover(uniq, D, S, mode)

    def restrict(self, g_sub: Graph) -> "CliqueCover":
        """Cover of an induced subgraph: intersect every clique with the
        subgraph's vertex set.  Keeps the cover property (every surviving
        edge lay in some clique) and never increases D or S."""
        keep = set(g_sub.adj)
        parts = [q & keep for q in self.cliques]
        return CliqueCover.from_cliques(g_sub, [p for p in parts if p],
                                        mode="provided")


def _bron_kerbosch(adj: dict[int, set[int]], cap: int) -> list[frozenset[int]]:
    """Maximal cliques with pivoting."""
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            out.append(frozenset(r))
            if len(out) > cap:
                raise CliqueCapExceeded(
                    f"more than {cap} maximal cliques; aborting enumeration")
            return
        pivot = max(p | x, key=lambda v: (len(adj[v] & p), -v))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(adj), set())
    return out


def enumerate_maximal_cliques(g: Graph, cap: int = CLIQUE_CAP) -> CliqueCover:
    adj = {v: set(ns) for v, ns in g.adj.items()}
    cliques = _bron_kerbosch(adj, cap)
    return CliqueCover.from_cliques(g, cliques, mode="intrinsic")


def build_vertex_connector(g: Graph, cover: CliqueCover, t: int) -> Graph:
    """The derived graph keeping only the edges inside size-t parts of the
    cover's cliques; each clique is split by ascending ID."""
    if t <= 1:
        raise GraphError(f"connector part size t must exceed 1, got {t}")
    edges: set[tuple[int, int]] = set()
    for q in cover.cliques:
        members = sorted(q)
        for start in range(0, len(members), t):
            part = members[start:start + t]
            for i in range(len(part)):
                for j in range(i + 1, len(part)):
                    edges.add((part[i], part[j]))
    derived = Graph.from_edges(g.adj, edges)
    # invariant: connector degree never exceeds D*(t-1)
    if derived.max_degree > cover.D * (t - 1):
        raise GraphError(f"vertex connector degree {derived.max_degree} exceeds "
                         f"D(t-1) = {cover.D}*{t - 1}")
    return derived
