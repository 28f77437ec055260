"""Edge coloring through edge-connectors and star-partitions, without
materializing the line graph.

Each vertex splits its incident edges into groups of size at most t and
hands each group to a virtual vertex, so the connector has degree at most
t.  A proper edge coloring of the connector pulls back to an edge partition
of the base graph whose per-vertex stars have size at most ceil(Delta/t);
``graph._recurse``, the recursion shared with the vertex family, splits
and combines them into the 4*Delta and 2^(x+1)*Delta schemes.
Every level works on a sorted list of normalized edges: it colors its
connector in one pass over the list, never building the connector or a
per-class graph, and hands each class on as a sorted sublist.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .basecolor import _int_floor_root, _require_proper
from .graph import Coloring, Graph, GraphError, VerificationError, _recurse
from .sim import RoundTrace


@dataclass
class StarPartitionReport(RoundTrace):
    """The run's round trace plus its top-level partition: the number of
    nonempty classes and the largest star."""

    class_count: int = 0
    max_star: int = 0


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


def _star_depth(delta: int, x: int) -> int:
    """The star scheme's level count: x capped at the largest value with
    2^(x+1) <= Delta, or at 1 when Delta < 4."""
    return min(x, max(1, delta.bit_length() - 2))


def star_palette_bound(delta: int, x: int) -> int:
    """The star scheme's palette bound: max(2^(x+1)*Delta, 1), x capped by _star_depth."""
    return max(2 ** (_star_depth(delta, x) + 1) * delta, 1)


def star_edge_coloring_4delta(g: Graph) -> tuple[Coloring, StarPartitionReport]:
    """The two-stage 4*Delta scheme, which is recursive_star_edge_coloring
    with x=1: t = max(2, floor(sqrt(Delta))), 2t-1 classes whose stars of
    size at most ceil(Delta/t) get 2*ceil(Delta/t)-1 colors each, at most
    4*Delta in all."""
    return recursive_star_edge_coloring(g, 1)


def recursive_star_edge_coloring(g: Graph,
                                 x: int) -> tuple[Coloring, StarPartitionReport]:
    """x connector levels with a single t = max(2, floor(Delta^(1/(x+1)))),
    leaves colored greedily.  x is capped at the largest value with
    2^(x+1) <= Delta (or 1), so (2*ceil(Delta/t^x)-1)(2t-1)^x <= 2^(x+1)*Delta:
    with u = Delta/t^x >= t the ratio is at most (1+1/2u)(1-1/2t)^x < 1, and
    Delta = 2, 3 give 3 and 9 colors.  The report's max_star is the largest
    star of the top-level partition."""
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
    x = _star_depth(delta, x)
    t = max(2, _int_floor_root(delta, x + 1))

    # per-level star-size bounds: b[0]=Delta, b[j+1]=ceil(b[j]/t)
    bounds = [delta]
    for _ in range(x):
        bounds.append(-(-bounds[-1] // t))

    def check_star(star: int, depth: int) -> None:
        if star > bounds[depth]:
            raise VerificationError(f"class star {star} at level {depth} exceeds "
                                    f"{bounds[depth]}")
        if depth == 1:
            report.max_star = max(report.max_star, star)

    def split(part, depth: int):
        classes, star = _star_level(part, t)
        check_star(star, depth)
        if depth == 0:
            report.class_count = sum(1 for c in classes if c)
        return classes, 0

    def leaf(part):  # star <= bounds[x] keeps greedy within the leaf palette
        mask = dict.fromkeys(chain.from_iterable(part), 0)
        colors = _greedy_edges(part, mask)
        check_star(max(map(int.bit_count, mask.values())), x)
        return zip(part, colors), 0

    col, _ = _recurse("edge", edges, [2 * t - 1] * x + [max(2 * bounds[x] - 1, 1)], split,
                      leaf, star_palette_bound(delta, x), "star_palette_bound")
    return col, report
