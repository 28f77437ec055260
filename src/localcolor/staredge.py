"""Edge coloring through edge-connectors and star-partitions, without
materializing the line graph.

Each vertex splits its incident edges into groups of size at most t and
hands each group to a virtual vertex, so the connector has degree at most
t.  A proper edge coloring of the connector pulls back to an edge partition
of the base graph whose per-vertex stars have size at most ceil(Delta/t);
``graph._recurse``, the recursion shared with the vertex family, splits
and combines them into the 4*Delta and 2^(x+1)*Delta schemes.
Every star level works on a sorted list of normalized edges.
_connector_level colors its connector first-fit in one pass over the
list, never building the connector or a per-class graph, and hands each
class on as a sublist in list order.  The powered scheme's bipartite
orientation-connector levels run through it too, on (tail, head) arcs
whose tails go down (H-set, ID), so every class keeps that order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .basecolor import _int_floor_root, _require_proper
from .graph import Coloring, Graph, GraphError, VerificationError, _depth, _recurse
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
    every endpoint to its colors so far and is updated in place.
    First-fit colors at a vertex are distinct, so afterwards a vertex's
    popcount is its degree."""
    colors = []
    append = colors.append
    for u, v in edges:
        mu, mv = mask[u], mask[v]
        used = mu | mv
        bit = ~used & (used + 1)  # lowest clear bit
        mask[u], mask[v] = mu | bit, mv | bit
        append(bit.bit_length() - 1)
    return colors


def _connector_level(pairs, t_tail: int, t_head: int, bipartite: bool):
    """One connector level in one pass over ``pairs``, without building the
    connector: the pairs grouped by their first-fit color on it, colored
    in list order, plus each tail's and each head's pair count.

    A pair's rank at an endpoint is the number of that endpoint's pairs
    before it in the list, and the virtual (v, rank // t) holds it.  The
    star connector ranks a vertex's pairs at both ends in one sequence
    (t_tail = t_head = t); the bipartite orientation connector ranks a
    tail's out-arcs apart from a head's in-arcs, so the two rank maps
    differ.  A vertex's virtuals fill one after another, so only the mask
    of its current one (the colors on its connector edges) is kept.  A
    virtual holds at most its t pairs, so first fit needs at most
    t_tail + t_head - 1 colors, and that many classes are returned, each
    a sublist in list order."""
    if min(t_tail, t_head) < 2:
        raise GraphError(f"connector needs t >= 2, got {t_tail} and {t_head}")
    palette = t_tail + t_head - 1
    classes: list[list[tuple[int, int]]] = [[] for _ in range(palette)]
    tail_rank: dict[int, int] = {}
    tail_mask: dict[int, int] = {}
    head_rank, head_mask = ({}, {}) if bipartite else (tail_rank, tail_mask)
    for p in pairs:
        u, v = p
        ru, rv = tail_rank.get(u, 0), head_rank.get(v, 0)
        tail_rank[u], head_rank[v] = ru + 1, rv + 1
        mu = tail_mask[u] if ru % t_tail else 0  # rank 0 mod t opens a new virtual
        mv = head_mask[v] if rv % t_head else 0
        used = mu | mv
        bit = ~used & (used + 1)
        c = bit.bit_length() - 1
        if c >= palette:
            raise GraphError(f"connector color {c} of {p} outside its palette {palette}")
        tail_mask[u], head_mask[v] = mu | bit, mv | bit
        classes[c].append(p)
    # a virtual's popcount is its degree; every virtual but a vertex's last
    # was closed at exactly t pairs
    for mask, t in ((tail_mask, t_tail), (head_mask, t_head)):
        worst = max(map(int.bit_count, mask.values()), default=0)
        if worst > t:
            raise GraphError(f"connector degree {worst} exceeds t={t}")
    return classes, tail_rank, head_rank


def star_palette_bound(delta: int, x: int) -> int:
    """The star scheme's palette bound: max(2^(x+1)*Delta, 1), x capped by graph._depth."""
    return max(2 ** (_depth(x, delta) + 1) * delta, 1)


def star_edge_coloring_4delta(g: Graph) -> tuple[Coloring, StarPartitionReport]:
    """The two-stage 4*Delta scheme, which is recursive_star_edge_coloring
    with x=1: t = max(2, floor(sqrt(Delta))), 2t-1 classes whose stars of
    size at most ceil(Delta/t) get 2*ceil(Delta/t)-1 colors each, at most
    4*Delta in all."""
    return recursive_star_edge_coloring(g, 1)


def recursive_star_edge_coloring(g: Graph,
                                 x: int) -> tuple[Coloring, StarPartitionReport]:
    """x connector levels with a single t = max(2, floor(Delta^(1/(x+1)))),
    leaves colored greedily.  graph._depth caps x at the largest value with
    2^(x+1) <= Delta (or 1), so (2*ceil(Delta/t^x)-1)(2t-1)^x <= 2^(x+1)*Delta:
    with u = Delta/t^x >= t the ratio is at most (1+1/2u)(1-1/2t)^x, below 1, and
    Delta = 2, 3 give 3 and 9 colors.  The report's max_star is the largest
    star of the top-level partition."""
    col, report = _star_edge_coloring(sorted(g.edges()), x, g.max_degree)
    _require_proper(g, col, "recursive_star_edge_coloring output")
    return col, report


def _star_edge_coloring(edges, x: int,
                        delta: int | None = None) -> tuple[Coloring, StarPartitionReport]:
    """recursive_star_edge_coloring of the graph of the sorted normalized
    ``edges``, whose largest degree is ``delta`` (counted if not given),
    without its properness check, for callers that check their own whole
    output."""
    if delta is None:
        delta = max(Counter(chain.from_iterable(edges)).values(), default=0)
    x = _depth(x, delta)
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

    def check_star(star: int, depth: int) -> None:
        if star > bounds[depth]:
            raise VerificationError(f"class star {star} at level {depth} exceeds "
                                    f"{bounds[depth]}")
        if depth == 1:
            report.max_star = max(report.max_star, star)

    def split(part, depth: int):
        classes, rank, _ = _connector_level(part, t, t, bipartite=False)
        check_star(max(rank.values()), depth)
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
