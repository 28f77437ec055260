"""Recursive clique-decomposition coloring.

CD-Coloring and the refined family are one recursion.  A level builds the
vertex connector for part size t, properly colors it (its degree is at
most D(t-1)), checks that each class keeps at most ceil(S/t) vertices of
any clique, and recurses on the classes; class i's color c becomes
i*radix + c.  The families differ only in how t and the declared palette
are chosen: CD-Coloring keeps one t and declares the product of its level
palettes, the refined family takes t = floor(S^(1/(x+1))) per level and
declares D^(x+1)*S, which the product of its level palettes never
exceeds, so no level needs a color reduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .basecolor import _int_floor_root, _require_proper, delta_plus_one
from .cliques import CliqueCover, build_vertex_connector
from .graph import Coloring, Graph, GraphError, VerificationError, induced_subgraph
from .sim import RoundTrace

# below this clique size the refined family's arithmetic loses to the
# direct D(S-1)+1 coloring, so we fall back to it
REFINED_SMALL_S = 16


@dataclass
class LevelStats:
    subgraph_count: int = 0
    max_degree: int = 0
    max_clique: int = 0  # the most vertices of one cover clique in one class

    def absorb(self, other: "LevelStats") -> None:
        self.subgraph_count += other.subgraph_count
        self.max_degree = max(self.max_degree, other.max_degree)
        self.max_clique = max(self.max_clique, other.max_clique)


@dataclass
class DecompositionReport(RoundTrace):
    """The run's round trace plus per-level class statistics."""

    levels: list[LevelStats] = field(default_factory=list)

    def leaf_count(self) -> int:
        return self.levels[-1].subgraph_count if self.levels else 1


def choose_params(S: int, x: int) -> int:
    """t = max(2, floor(S^(1/(x+1))))."""
    if S < 2 or x < 1:
        raise GraphError("choose_params needs S >= 2 and x >= 1")
    return max(2, _int_floor_root(S, x + 1))


def _decompose(g: Graph, cover: CliqueCover, x: int, pick_t,
               palette) -> tuple[Coloring, DecompositionReport]:
    """The recursion of both families.  A part with cliques of at most S
    vertices and x levels to go is split with part size ``pick_t(S, x)``,
    or colored directly with Delta+1 colors when that is None, and declares
    ``palette(S, x)`` colors; a leaf (x = 0) declares D(S-1)+1."""
    report = DecompositionReport()
    D = cover.D
    if D == 0 or g.m == 0:
        return Coloring("vertex", {v: 0 for v in g.adj}, 1), report

    def declared(S_cur: int, x_cur: int) -> int:
        return palette(S_cur, x_cur) if x_cur else D * (S_cur - 1) + 1

    def rec(sub: Graph, subcover: CliqueCover, S_cur: int, x_cur: int,
            depth: int):
        target = declared(S_cur, x_cur)
        t = pick_t(S_cur, x_cur) if x_cur else None
        if t is None:
            psi, trace = delta_plus_one(sub)
            if psi.palette_size > target:
                raise VerificationError(f"part needs {psi.palette_size} colors, "
                                        f"declared {target}")
            return psi.assignment, trace
        if depth:  # a class gets its parent's cover cut down to it
            subcover = subcover.restrict(sub)
        phi, trace = delta_plus_one(build_vertex_connector(sub, subcover, t))
        gamma = D * (t - 1) + 1
        k = -(-S_cur // t)  # ceil(S/t)
        radix = declared(k, x_cur - 1)
        if gamma * radix > target:
            raise VerificationError(f"level palette {gamma}*{radix} exceeds the "
                                    f"declared {target}")

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
        members: list[list[int]] = [[] for _ in range(gamma)]
        for v, c in color.items():
            members[c].append(v)
        classes = [(i, induced_subgraph(sub, vs))
                   for i, vs in enumerate(members) if vs]
        stats = LevelStats(len(classes), max(cls.max_degree for _, cls in classes), share)
        while len(report.levels) <= depth:
            report.levels.append(LevelStats())
        report.levels[depth].absorb(stats)

        assignment: dict[int, int] = {}
        traces = []
        for i, cls in classes:
            child, ctr = rec(cls, subcover, k, x_cur - 1, depth + 1)
            traces.append(ctr)
            for v, c in child.items():
                assignment[v] = i * radix + c
        trace.merge_parallel(f"level-{depth}-classes", traces)
        return assignment, trace

    assignment, trace = rec(g, cover, cover.S, x, 0)
    col = Coloring("vertex", assignment, declared(cover.S, x))
    _require_proper(g, col, "clique-decomposition coloring output")
    report.extend(trace)
    return col, report


def cd_envelope(D: int, S: int, t: int, x: int) -> int:
    """CD-Coloring's coarse palette envelope (tD)^x * D(S/t^x + 2) + (tD)^x,
    which is the integer D^(x+1)*S + (2D+1)(tD)^x."""
    return D ** (x + 1) * S + (2 * D + 1) * (t * D) ** x


def cd_palette_bound(D: int, S: int, t: int, x: int) -> int:
    """CD-Coloring's declared palette, the product of its level palettes:
    (D(t-1)+1)^x * (D(ceil(S/t^x)-1)+1), as ceil(ceil(S/t)/t) = ceil(S/t^2)."""
    return (D * (t - 1) + 1) ** x * (D * (-(-S // t ** x) - 1) + 1)


def cd_coloring(g: Graph, cover: CliqueCover, t: int,
                x: int) -> tuple[Coloring, DecompositionReport]:
    """CD-Coloring: x connector levels with one part size t, leaves colored
    with D(ceil(S/t^x)-1)+1 colors, colors combined as (branch index, leaf
    color) flattened with per-level padded radixes."""
    if t < 2:
        raise GraphError(f"part size t must be at least 2, got {t}")
    if x < 1:
        raise GraphError(f"recursion depth x must be at least 1, got {x}")
    D, S = cover.D, cover.S
    col, report = _decompose(g, cover, x, lambda S_cur, x_cur: t,
                             lambda S_cur, x_cur: cd_palette_bound(D, S_cur, t, x_cur))
    envelope = cd_envelope(D, S, t, x)
    if g.m and col.palette_size > envelope:
        raise VerificationError(f"palette {col.palette_size} exceeds the "
                                f"envelope {envelope}")
    return col, report


def refined_palette_bound(D: int, S: int, x: int) -> int:
    """Declared palette of the refined family: D^(x+1)*S above the
    small-case threshold, else the direct D(S-1)+1."""
    if D < 2 or S < REFINED_SMALL_S:
        return D * max(S - 1, 0) + 1
    return D ** (x + 1) * S


def refined_coloring(g: Graph, cover: CliqueCover,
                     x: int) -> tuple[Coloring, DecompositionReport]:
    """The refined recursive family: per-level t = floor(S^(1/(x+1))),
    direct coloring of parts with D < 2 or S below REFINED_SMALL_S, and
    at most refined_palette_bound(D, S, x) colors."""
    if x < 1:
        raise GraphError("x must be at least 1")
    D = cover.D

    def pick_t(S_cur: int, x_cur: int) -> int | None:
        if D < 2 or S_cur < REFINED_SMALL_S:
            return None
        return choose_params(S_cur, x_cur)

    return _decompose(g, cover, x, pick_t,
                      lambda S_cur, x_cur: refined_palette_bound(D, S_cur, x_cur))
