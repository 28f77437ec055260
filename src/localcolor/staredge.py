"""Edge coloring through edge-connectors and star-partitions, without
materializing the line graph.

Each vertex splits its incident edges into groups of size at most t and
hands each group to a virtual vertex, so the connector has degree at most
t.  A proper edge coloring of the connector pulls back to an edge partition
of the base graph whose per-vertex stars have size at most ceil(Delta/t);
recursing and combining gives the 4*Delta and 2^(x+1)*Delta schemes.
Every level works on a sorted list of normalized edges: it colors its
connector in one pass over the list, never building the connector or a
per-class graph, and hands each class on as a sorted sublist.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .basecolor import _int_floor_root, _require_proper
from .graph import Coloring, Graph, GraphError, VerificationError
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
        if assign:
            self.paint(assign.items())

    def paint(self, items, shift: int = 0) -> None:
        """Color each e of the pairs (e, c) in ``items`` with shift + c,
        which no adjacent edge may have; a colored e is recolored."""
        mask, assign = self.mask, self.assign
        for e, c in items:
            c += shift
            u, v = e
            mu, mv = mask.get(u, 0), mask.get(v, 0)
            own = assign.get(e)
            if own is not None:
                keep = ~(1 << own)
                mu, mv = mu & keep, mv & keep
            bit = 1 << c
            if (mu | mv) & bit:
                raise GraphError(f"improper partial coloring: color {c} is already "
                                 f"at an endpoint of {e}")
            mask[u], mask[v] = mu | bit, mv | bit
            assign[e] = c

    def fill(self, edges, palette: int) -> None:
        """Color each of ``edges``, in the given order, with the smallest
        color in [palette] on no colored edge adjacent to it; a colored
        edge is recolored."""
        mask, assign = self.mask, self.assign
        for e in edges:
            u, v = e
            mu, mv = mask.get(u, 0), mask.get(v, 0)
            own = assign.get(e)
            if own is not None:
                keep = ~(1 << own)
                mu, mv = mu & keep, mv & keep
            used = mu | mv
            bit = ~used & (used + 1)  # lowest clear bit
            c = bit.bit_length() - 1
            if c >= palette:
                raise GraphError(f"no free color for edge {e} in a palette of {palette}")
            mask[u], mask[v] = mu | bit, mv | bit
            assign[e] = c


def _greedy_edges(edges, mask) -> list[int]:
    """The first-fit colors of ``edges``, colored in the given order: each
    edge takes the lowest bit clear in both endpoint masks.  ``mask`` maps
    every endpoint to its colors so far (a dict, or a list for ids
    0..n-1) and is updated in place.  First-fit colors at a vertex are
    distinct, so afterwards a vertex's popcount is its degree."""
    colors = []
    append = colors.append
    for u, v in edges:
        mu, mv = mask[u], mask[v]
        used = mu | mv
        bit = ~used & (used + 1)  # lowest clear bit
        mask[u], mask[v] = mu | bit, mv | bit
        append(bit.bit_length() - 1)
    return colors


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
        ff.fill(sorted(top.get(col, ())), target)
    return Coloring("edge", ff.assign, target), c.palette_size - target


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


def _star_level(edges, t: int) -> tuple[list[list[tuple[int, int]]], int]:
    """One star-partition level: the sorted normalized ``edges`` grouped by
    their color in the greedy coloring of the degree-t edge-connector,
    plus the largest degree among them, in one pass without building the
    connector.

    The virtual (v, r // t) holds v's edges of rank r, where an edge's
    rank at v is the number of v's edges before it in the list.  In
    sorted order that is v's index in its ascending neighbor tuple, and
    the connector edges come in the order greedy colors them.  A vertex's
    virtuals fill one after another, so only the mask of its current one
    (the colors on that virtual's connector edges) is kept.  A connector
    of degree at most t needs at most 2t-1 colors, so the result has 2t-1
    classes, each a sorted sublist."""
    if t <= 1:
        raise GraphError(f"edge connector needs t >= 2, got {t}")
    palette = 2 * t - 1
    classes: list[list[tuple[int, int]]] = [[] for _ in range(palette)]
    rank: dict[int, int] = {}
    mask: dict[int, int] = {}
    for e in edges:
        u, v = e
        ru, rv = rank.get(u, 0), rank.get(v, 0)
        rank[u], rank[v] = ru + 1, rv + 1
        mu = mask[u] if ru % t else 0  # rank 0 mod t opens a new virtual
        mv = mask[v] if rv % t else 0
        used = mu | mv
        bit = ~used & (used + 1)
        c = bit.bit_length() - 1
        if c >= palette:  # a virtual already had t edges
            raise GraphError(f"edge connector degree "
                             f"{max(mu.bit_count(), mv.bit_count()) + 1} exceeds t={t}")
        mask[u], mask[v] = mu | bit, mv | bit
        classes[c].append(e)
    # a virtual's popcount is its degree; every virtual but a vertex's last
    # was closed at exactly t edges
    worst = max(map(int.bit_count, mask.values()), default=0)
    if worst > t:
        raise GraphError(f"edge connector degree {worst} exceeds t={t}")
    return classes, max(rank.values(), default=0)


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
    col, report = _star_edge_coloring(sorted(g.edges()), x)
    _require_proper(g, col, "recursive_star_edge_coloring output")
    return col, report


def _star_edge_coloring(edges, x: int) -> tuple[Coloring, StarPartitionReport]:
    """recursive_star_edge_coloring of the graph of the sorted normalized
    ``edges``, without its properness check, for callers that check their
    own whole output."""
    if x < 1:
        raise GraphError("x must be at least 1")
    delta = max(Counter(chain.from_iterable(edges)).values(), default=0)
    report = StarPartitionReport()
    if delta < 2:  # a matching: one class, one color
        report.class_count = 1 if edges else 0
        report.max_star = delta
        return Coloring("edge", dict.fromkeys(edges, 0), 1), report
    t = max(2, _int_floor_root(delta, x + 1))

    # per-level star-size bounds: b[0]=Delta, b[j+1]=ceil(b[j]/t)
    bounds = [delta]
    for _ in range(x):
        bounds.append(-(-bounds[-1] // t))
    leaf_radix = max(2 * bounds[x] - 1, 1)
    assign: dict[tuple[int, int], int] = {}

    def check_star(star: int, depth: int) -> None:
        if star > bounds[depth]:
            raise VerificationError(f"class star {star} at level {depth} exceeds "
                                    f"{bounds[depth]}")
        if depth == 1:
            report.max_star = max(report.max_star, star)

    def rec(cls, depth: int, base: int) -> None:
        """Color the sorted edges ``cls`` of a depth-``depth`` class into
        ``assign``, offset by ``base``."""
        if depth == x:  # star <= bounds[x] keeps greedy within leaf_radix
            mask = dict.fromkeys(chain.from_iterable(cls), 0)
            colors = _greedy_edges(cls, mask)
            check_star(max(map(int.bit_count, mask.values())), depth)
            assign.update(zip(cls, [base + c for c in colors]))
            return
        classes, star = _star_level(cls, t)
        check_star(star, depth)
        radix = leaf_radix * (2 * t - 1) ** (x - depth - 1)
        if depth == 0:
            report.class_count = sum(1 for c in classes if c)
        for i, sub in enumerate(classes):
            if sub:
                rec(sub, depth + 1, base + i * radix)

    rec(edges, 0, 0)
    combined = leaf_radix * (2 * t - 1) ** x
    col = Coloring("edge", assign, combined)
    bound = 2 ** (x + 1) * delta
    if combined > bound:  # the trim is the one step that needs adjacency
        col, r = reduce_edge_colors(_class_graph(edges), col, bound)
        report.add_phase("trim", r)
    return col, report
