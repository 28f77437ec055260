"""Recursive clique-decomposition coloring.

CD-Coloring and the refined family run on ``graph._recurse``, the
recursion the edge family shares.  A level builds the vertex connector for
part size t, properly colors it (its degree is at most D(t-1)), checks
that each class keeps at most ceil(S/t) vertices of any clique, and splits
the part into the classes; class i's color c becomes i*radix + c.  Both
families declare the product of their level palettes and differ only in
how t is chosen: CD-Coloring keeps one t, the refined family takes
t = floor(S^(1/(x+1))) per level.  Each checks its declared palette against
its theory bound, CD-Coloring's coarse envelope and the refined family's
D^(x+1)*S.  Each of these functions caps x at S with ``graph._depth``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .basecolor import _int_floor_root, _require_proper, delta_plus_one
from .cliques import CliqueCover, build_vertex_connector
from .graph import (Coloring, Graph, GraphError, VerificationError, _depth, _recurse,
                    induced_subgraph)
from .sim import RoundTrace

# below this clique size the refined family's arithmetic loses to the
# direct D(S-1)+1 coloring, so we fall back to it
REFINED_SMALL_S = 16


@dataclass
class LevelStats:
    subgraph_count: int = 0
    max_degree: int = 0
    max_clique: int = 0  # the most vertices of one cover clique in one class


@dataclass
class DecompositionReport(RoundTrace):
    """The run's round trace plus per-level class statistics."""

    levels: list[LevelStats] = field(default_factory=list)

    def leaf_count(self) -> int:
        return self.levels[-1].subgraph_count if self.levels else 1


def choose_params(S: int, x: int) -> int:
    """t = max(2, floor(S^(1/(x+1)))); past x's cap the root is below 2."""
    return max(2, _int_floor_root(S, _depth(x, S) + 1))


def _decompose(g: Graph, cover: CliqueCover, x: int, pick_t, bound: int,
               name: str) -> tuple[Coloring, DecompositionReport]:
    """Both families on the shared recursion.  Every part at one depth has
    the same clique bound, so the level table is built once: level j
    splits with t_j = ``pick_t(S_j, x - j)`` into classes of clique bound
    S_{j+1} = ceil(S_j/t_j), for up to x levels or until ``pick_t`` is
    None, and leaves take D(S_L-1)+1 colors.  ``bound``, named ``name``,
    caps the declared palette.  A part is a (graph, parent cover) pair."""
    report = DecompositionReport()
    D = cover.D
    if D == 0 or g.m == 0:  # one color; every family's bound is at least 1
        return Coloring("vertex", {v: 0 for v in g.adj}, 1), report
    ts, ks = [], [cover.S]
    while len(ts) < x and (t := pick_t(ks[-1], x - len(ts))) is not None:
        ts.append(t)
        ks.append(-(-ks[-1] // t))  # ceil(S/t)
    report.levels = [LevelStats() for _ in ts]

    def split(part, depth: int):
        sub, subcover = part
        if depth:  # a class gets its parent's cover cut down to it
            subcover = subcover.restrict(sub)
        t, k = ts[depth], ks[depth + 1]
        phi, trace = delta_plus_one(build_vertex_connector(sub, subcover, t))
        if not depth:  # the top connector's phases open the run's trace
            report.extend(trace)

        # the connector lemma: a part is a clique of the connector, so a
        # class meets each of a clique's ceil(|q|/t) <= k parts at most
        # once, and a class vertex, in at most D cliques, has class degree
        # at most (k-1)D.  share is the most vertices of one clique in one
        # class; a clique's is at most |q| and |q| - (colors in q) + 1.
        color = phi.assignment
        share = 0
        for q in subcover.cliques:
            if len(q) > share:
                cs = list(map(color.__getitem__, q))
                if len(cs) - len(set(cs)) >= share:
                    share = max(share, *Counter(cs).values())
        if share > k:
            raise VerificationError(f"class clique {share} exceeds k={k}")
        members: list[list[int]] = [[] for _ in range(D * (t - 1) + 1)]
        for v, c in color.items():
            members[c].append(v)
        classes = [vs and (induced_subgraph(sub, vs), subcover) for vs in members]
        graphs = [cls for cls, _ in filter(None, classes)]
        level = report.levels[depth]
        level.subgraph_count += len(graphs)
        level.max_degree = max(level.max_degree, *(cls.max_degree for cls in graphs))
        level.max_clique = max(level.max_clique, share)
        return classes, trace.rounds

    def leaf(part):
        psi, trace = delta_plus_one(part[0])
        if not ts:  # the root is the leaf, so its phases are the run's
            report.extend(trace)
        return psi.assignment.items(), trace.rounds

    palettes = [D * (t - 1) + 1 for t in ts] + [D * (ks[-1] - 1) + 1]
    col, rounds = _recurse("vertex", (g, cover), palettes, split, leaf, bound, name)
    if ts:
        report.add_phase("level-0-classes", rounds - report.rounds)
    _require_proper(g, col, "clique-decomposition coloring output")
    return col, report


def cd_envelope(D: int, S: int, t: int, x: int) -> int:
    """CD-Coloring's coarse palette envelope (tD)^x * D(S/t^x + 2) + (tD)^x,
    which is the integer D^(x+1)*S + (2D+1)(tD)^x, and at least 1, the one
    color of an edgeless graph."""
    x = _depth(x, S)
    return max(D ** (x + 1) * S + (2 * D + 1) * (t * D) ** x, 1)


def cd_palette_bound(D: int, S: int, t: int, x: int) -> int:
    """CD-Coloring's declared palette, the product of its level palettes:
    (D(t-1)+1)^x * (D(ceil(S/t^x)-1)+1), as ceil(ceil(S/t)/t) = ceil(S/t^2)."""
    x = _depth(x, S)
    return (D * (t - 1) + 1) ** x * (D * (-(-S // t ** x) - 1) + 1)


def cd_coloring(g: Graph, cover: CliqueCover, t: int,
                x: int) -> tuple[Coloring, DecompositionReport]:
    """CD-Coloring: x connector levels with one part size t, leaves colored
    with D(ceil(S/t^x)-1)+1 colors, colors combined as (branch index, leaf
    color) flattened with per-level padded radixes."""
    x = _depth(x, cover.S)
    if t < 2:
        raise GraphError(f"part size t must be at least 2, got {t}")
    return _decompose(g, cover, x, lambda S_cur, x_cur: t,
                      cd_envelope(cover.D, cover.S, t, x), "cd_envelope")


def refined_palette_bound(D: int, S: int, x: int) -> int:
    """The refined family's theory bound: D^(x+1)*S above the small-case
    threshold, else the direct D(S-1)+1.  The product of its level
    palettes never exceeds it."""
    x = _depth(x, S)
    if D < 2 or S < REFINED_SMALL_S:
        return D * max(S - 1, 0) + 1
    return D ** (x + 1) * S


def refined_coloring(g: Graph, cover: CliqueCover,
                     x: int) -> tuple[Coloring, DecompositionReport]:
    """The refined recursive family: per-level t = floor(S^(1/(x+1))),
    direct coloring of parts with D < 2 or S below REFINED_SMALL_S, and
    at most refined_palette_bound(D, S, x) colors."""
    x = _depth(x, cover.S)
    D = cover.D

    def pick_t(S_cur: int, x_cur: int) -> int | None:
        return None if D < 2 or S_cur < REFINED_SMALL_S else choose_params(S_cur, x_cur)

    return _decompose(g, cover, x, pick_t, refined_palette_bound(D, cover.S, x),
                      "refined_palette_bound")
