"""Edge coloring through edge-connectors and star-partitions, without
materializing the line graph.

Each vertex splits its incident edges into groups of size at most t and
hands each group to a virtual vertex, so the connector has degree at most
t.  A proper edge coloring of the connector pulls back to an edge partition
of the base graph whose per-vertex stars have size at most ceil(Delta/t);
recursing and combining gives the 4*Delta and 2^(x+1)*Delta schemes.
A level colors its connector in one pass over the base edges and never
builds it as a graph.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .basecolor import _int_floor_root, _require_proper
from .graph import Coloring, Graph, GraphError, VerificationError, norm_edge
from .sim import RoundTrace


@dataclass
class StarPartitionReport(RoundTrace):
    """The run's round trace plus its top-level partition: the number of
    nonempty classes and the largest star."""

    class_count: int = 0
    max_star: int = 0


class _FirstFit:
    """A proper partial edge coloring plus, per vertex, an int bitmask of
    the colors on its colored edges.  The first-fit color of an edge is
    the lowest bit clear in both endpoint masks, ignoring the edge's own
    color; an improper state cannot be represented and is rejected."""

    def __init__(self, assign: dict | None = None):
        self.assign: dict[tuple[int, int], int] = {}
        self.mask: dict[int, int] = {}
        for e, c in (assign or {}).items():
            self.paint(e, c)

    def _used(self, e: tuple[int, int]) -> tuple[int, int]:
        """Endpoint masks of ``e`` with its own color cleared."""
        mask = self.mask
        mu, mv = mask.get(e[0], 0), mask.get(e[1], 0)
        own = self.assign.get(e)
        if own is not None:
            keep = ~(1 << own)
            mu, mv = mu & keep, mv & keep
        return mu, mv

    def paint(self, e: tuple[int, int], c: int) -> None:
        """Color ``e`` with ``c``, which no adjacent edge may have."""
        mu, mv = self._used(e)
        bit = 1 << c
        if (mu | mv) & bit:
            raise GraphError(f"improper partial coloring: color {c} is already "
                             f"at an endpoint of {e}")
        self.mask[e[0]], self.mask[e[1]] = mu | bit, mv | bit
        self.assign[e] = c

    def fill(self, e: tuple[int, int], palette: int) -> int:
        """Paint ``e`` with the smallest color in [palette] on no colored
        edge adjacent to it, and return that color."""
        mu, mv = self._used(e)
        used = mu | mv
        c = (~used & (used + 1)).bit_length() - 1  # lowest clear bit
        if c >= palette:
            raise GraphError(f"no free color for edge {e} in a palette of {palette}")
        bit = 1 << c
        self.mask[e[0]], self.mask[e[1]] = mu | bit, mv | bit
        self.assign[e] = c
        return c


def greedy_edge_coloring(g: Graph) -> Coloring:
    """Greedy by normalized edge order; at most 2*Delta-1 colors.  Each
    edge takes the lowest bit clear in both endpoint masks; no edge is
    colored twice, so unlike _FirstFit no own color is cleared first."""
    adj = g.adj
    mask = dict.fromkeys(adj, 0)
    assign: dict[tuple[int, int], int] = {}
    for u in sorted(adj):
        mu = mask[u]
        for v in adj[u]:  # ascending, so (u, v) comes in sorted order
            if v > u:
                used = mu | mask[v]
                bit = ~used & (used + 1)
                mu |= bit
                mask[v] |= bit
                assign[(u, v)] = bit.bit_length() - 1
        mask[u] = mu
    # the palette check is Coloring's: only an inconsistent adjacency
    # (v lists u but u does not list v) can exceed it
    return Coloring("edge", assign, max(2 * g.max_degree - 1, 1))


def reduce_edge_colors(g: Graph, c: Coloring,
                       target: int) -> tuple[Coloring, int]:
    """Basic color reduction on edges: one top class per round recolors
    greedily from [target].  Needs target >= 2*Delta-1.  Returns the new
    coloring and the simulated round count (palette - target)."""
    if target >= c.palette_size:
        return c, 0
    if target < max(2 * g.max_degree - 1, 1):
        raise GraphError(f"edge reduction target {target} below 2*Delta-1")
    ff = _FirstFit(c.assignment)
    top: dict[int, list[tuple[int, int]]] = {}  # edges colored >= target
    for e, col in c.assignment.items():
        if col >= target:
            top.setdefault(col, []).append(e)
    for col in range(c.palette_size - 1, target - 1, -1):
        for e in sorted(top.get(col, ())):
            ff.fill(e, target)
    return Coloring("edge", ff.assign, target), c.palette_size - target


def _pullback_classes(conn, phi: Coloring, palette: int):
    """Base edges grouped by the color of their connector edge."""
    classes: list[list[tuple[int, int]]] = [[] for _ in range(palette)]
    for e, ce in conn.edge_map.items():
        classes[phi.assignment[ce]].append(e)
    return classes


def _class_graph(cls) -> Graph:
    """The graph of the distinct normalized edges in ``cls`` and their
    endpoints only.  Appended in sorted edge order, every vertex gets its
    lower neighbors and then its higher ones, each ascending, so no list
    needs a sort of its own."""
    adj: dict[int, list[int]] = {}
    for u, v in sorted(cls):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return Graph({v: tuple(adj[v]) for v in sorted(adj)})


def _star_classes(g: Graph, t: int) -> list[list[tuple[int, int]]]:
    """One star-partition level: the base edges grouped by their color in
    the greedy coloring of the degree-t edge-connector, computed in one
    pass over the edges without building the connector.

    The virtual v_i (part i of v) holds v's edges of rank i*t..i*t+t-1 in
    v's ascending neighbor list and has id first[v] + i.  Walking u and
    then its neighbors v > u in ascending order visits the connector edges
    (u_i, v_j) in sorted order, the order greedy colors them in, and lists
    each class's edges in sorted order.  A connector of degree at most t
    needs at most 2t-1 colors, so the result has 2t-1 classes."""
    if t <= 1:
        raise GraphError(f"edge connector needs t >= 2, got {t}")
    adj = g.adj
    order = sorted(adj)
    first: dict[int, int] = {}
    count = 0
    for v in order:
        first[v] = count
        count += -(-len(adj[v]) // t)
    mask = [0] * count  # per virtual: the colors on its connector edges
    palette = 2 * t - 1
    classes: list[list[tuple[int, int]]] = [[] for _ in range(palette)]
    for u in order:
        fu = first[u]
        for lu, v in enumerate(adj[u]):
            if v > u:
                a = fu + lu // t
                b = first[v] + bisect_left(adj[v], u) // t
                used = mask[a] | mask[b]
                bit = ~used & (used + 1)
                c = bit.bit_length() - 1
                if c >= palette:  # a or b already had t edges
                    raise GraphError(
                        f"edge connector degree "
                        f"{max(mask[a].bit_count(), mask[b].bit_count()) + 1} exceeds t={t}")
                mask[a] |= bit
                mask[b] |= bit
                classes[c].append((u, v))
    # greedy colors at one virtual are distinct: its degree is its popcount
    worst = max(map(int.bit_count, mask), default=0)
    if worst > t:
        raise GraphError(f"edge connector degree {worst} exceeds t={t}")
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
    col, report = _star_edge_coloring(g, x)
    _require_proper(g, col, "recursive_star_edge_coloring output")
    return col, report


def _star_edge_coloring(g: Graph, x: int) -> tuple[Coloring, StarPartitionReport]:
    """recursive_star_edge_coloring without its properness check, for
    callers that check their own whole output."""
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
        if star > bounds[depth]:
            raise VerificationError(f"class star {star} at level {depth} exceeds "
                                    f"{bounds[depth]}")
        if depth == 1:
            report.max_star = max(report.max_star, star)
        if depth == x:  # star <= bounds[x] keeps greedy within leaf_radix
            return greedy_edge_coloring(sub).assignment
        if sub.m == 0:
            return {}
        classes = _star_classes(sub, t)
        radix = leaf_radix * (2 * t - 1) ** (x - depth - 1)
        if depth == 0:
            report.class_count = sum(1 for c in classes if c)
        out: dict[tuple[int, int], int] = {}
        for i, cls in enumerate(classes):
            if not cls:
                continue
            child = rec(_class_graph(cls), depth + 1)
            for e in cls:
                out[e] = i * radix + child[e]
        return out

    assign = rec(g, 0)
    combined = leaf_radix * (2 * t - 1) ** x
    col = Coloring("edge", assign, combined)
    bound = 2 ** (x + 1) * delta
    if combined > bound:
        col, r = reduce_edge_colors(g, col, bound)
        report.add_phase("trim", r)
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
