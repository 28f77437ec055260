"""Recursive clique-decomposition coloring.

One level: build the vertex connector for part size t, properly color it
(its degree is at most D(t-1)), and recurse on the color classes, whose
cliques shrink by a factor of t.  The refined family trims the combined
palette with basic color reduction at every level, which pins the exact
D^(x+1)*S color count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basecolor import _int_floor_root, _require_proper, delta_plus_one, reduce_colors
from .cliques import CliqueCover, build_vertex_connector
from .graph import Coloring, Graph, GraphError, induced_subgraph
from .sim import RoundTrace

# below this clique size the refined family's arithmetic loses to the
# direct D(S-1)+1 coloring, so we fall back to it
REFINED_SMALL_S = 16


@dataclass
class LevelStats:
    subgraph_count: int = 0
    max_degree: int = 0
    max_clique: int = 0      # audit only (0 = not measured)
    max_diversity: int = 0   # audit only

    def absorb(self, other: "LevelStats") -> None:
        self.subgraph_count += other.subgraph_count
        self.max_degree = max(self.max_degree, other.max_degree)
        self.max_clique = max(self.max_clique, other.max_clique)
        self.max_diversity = max(self.max_diversity, other.max_diversity)


@dataclass
class DecompositionReport:
    levels: list[LevelStats] = field(default_factory=list)
    rounds: int = 0

    def leaf_count(self) -> int:
        return self.levels[-1].subgraph_count if self.levels else 1


def choose_params(S: int, x: int) -> int:
    """t = max(2, floor(S^(1/(x+1))))."""
    if S < 2 or x < 1:
        raise GraphError("choose_params needs S >= 2 and x >= 1")
    return max(2, _int_floor_root(S, x + 1))


def _audit_level(classes: list[Graph], k: int, D: int,
                 stats: LevelStats) -> None:
    from .cliques import enumerate_maximal_cliques

    for sub in classes:
        if sub.n == 0:
            continue
        cover = enumerate_maximal_cliques(sub)
        stats.max_clique = max(stats.max_clique, cover.S)
        stats.max_diversity = max(stats.max_diversity, cover.D)
        assert cover.S <= k, f"class clique {cover.S} exceeds k={k}"
        assert cover.D <= D, f"class diversity {cover.D} exceeds D={D}"


def _one_level(g: Graph, cover: CliqueCover, t: int, D: int, S: int,
               audit: bool, report: DecompositionReport, depth: int):
    """Connector stage shared by the plain and refined variants.  Returns
    (gamma, per-class (subgraph, subcover), k, trace)."""
    conn = build_vertex_connector(g, cover, t)
    phi, trace = delta_plus_one(conn.derived)
    gamma = D * (t - 1) + 1
    assert phi.palette_size <= gamma, (phi.palette_size, gamma)
    k = -(-S // t)  # ceil(S/t)

    classes = []
    for i in range(gamma):
        keep = [v for v in g.adj if phi.assignment[v] == i]
        sub = induced_subgraph(g, keep)
        classes.append((sub, cover.restrict(sub) if sub.n else None))

    while len(report.levels) <= depth:
        report.levels.append(LevelStats())
    stats = LevelStats(
        subgraph_count=sum(1 for sub, _ in classes if sub.n),
        max_degree=max((sub.max_degree for sub, _ in classes), default=0))
    assert stats.max_degree <= (k - 1) * D, \
        f"class degree {stats.max_degree} exceeds (k-1)D = {(k - 1) * D}"
    if audit:
        _audit_level([sub for sub, _ in classes], k, D, stats)
    report.levels[depth].absorb(stats)
    return gamma, classes, k, trace


def _leaf_colorer(radix: int):
    """Class colorer of the last level: Delta+1 colors, at most ``radix``."""
    def color(cls: Graph, _cover):
        psi, trace = delta_plus_one(cls)
        assert psi.palette_size <= radix, (psi.palette_size, radix)
        return psi.assignment, trace
    return color


def _color_classes(classes, radix: int, color_class, label: str,
                   trace: RoundTrace) -> dict[int, int]:
    """Color every nonempty class i with ``color_class(subgraph, subcover)``
    -> (assignment, trace), flatten its color c to i*radix + c, and charge
    the classes to ``trace`` as one parallel phase."""
    assignment: dict[int, int] = {}
    traces = []
    for i, (cls, ccover) in enumerate(classes):
        if cls.n == 0:
            continue
        child, ctr = color_class(cls, ccover)
        traces.append(ctr)
        for v, c in child.items():
            assignment[v] = i * radix + c
    trace.merge_parallel(label, traces)
    return assignment


def cd_coloring(g: Graph, cover: CliqueCover, t: int, x: int,
                audit: bool = False) -> tuple[Coloring, DecompositionReport]:
    """CD-Coloring: x connector levels, leaves colored with D(ceil(S/t)-1)+1
    colors, colors combined as (branch index, leaf color) flattened with
    per-level padded radixes."""
    if t < 2:
        raise GraphError(f"part size t must be at least 2, got {t}")
    if x < 1:
        raise GraphError(f"recursion depth x must be at least 1, got {x}")
    report = DecompositionReport()
    D, S = cover.D, cover.S
    if D == 0 or g.m == 0:
        return Coloring("vertex", {v: 0 for v in g.adj}, 1), report

    def leaf_palette(S_cur: int) -> int:
        return D * (-(-S_cur // t) - 1) + 1

    def total_palette(S_cur: int, x_cur: int) -> int:
        gamma = D * (t - 1) + 1
        if x_cur == 1:
            return gamma * leaf_palette(S_cur)
        return gamma * total_palette(-(-S_cur // t), x_cur - 1)

    def rec(sub: Graph, subcover: CliqueCover, S_cur: int, x_cur: int,
            depth: int):
        _, classes, k, trace = _one_level(
            sub, subcover, t, D, S_cur, audit, report, depth)
        if x_cur == 1:
            radix = leaf_palette(S_cur)
            color_class = _leaf_colorer(radix)
        else:
            radix = total_palette(k, x_cur - 1)

            def color_class(cls, ccover):
                return rec(cls, ccover, k, x_cur - 1, depth + 1)
        assignment = _color_classes(classes, radix, color_class,
                                    f"level-{depth}-classes", trace)
        return assignment, trace

    assignment, trace = rec(g, cover, S, x, 0)
    palette = total_palette(S, x)
    col = Coloring("vertex", assignment, palette)
    _require_proper(g, col, "cd_coloring output")
    report.rounds = trace.rounds
    # palette stays inside the coarse decomposition envelope
    assert palette <= (t * D) ** x * ((S / t ** x + 2) * D) + (t * D) ** x
    return col, report


def refined_palette_bound(D: int, S: int, x: int) -> int:
    """Declared palette of the refined family: D^(x+1)*S above the
    small-case threshold, else the direct D(S-1)+1."""
    if D < 2 or S < REFINED_SMALL_S:
        return D * max(S - 1, 0) + 1
    return D ** (x + 1) * S


def refined_coloring(g: Graph, cover: CliqueCover, x: int,
                     audit: bool = False) -> tuple[Coloring, DecompositionReport]:
    """The refined recursive family: per-level t = floor(S^(1/(x+1))) and a
    basic-reduction trim at every level, giving at most D^(x+1)*S colors."""
    if x < 1:
        raise GraphError("x must be at least 1")
    report = DecompositionReport()
    D, S = cover.D, cover.S
    if D == 0 or g.m == 0:
        return Coloring("vertex", {v: 0 for v in g.adj}, 1), report

    def rec(sub: Graph, subcover: CliqueCover, S_cur: int, x_cur: int,
            depth: int):
        target = refined_palette_bound(D, S_cur, x_cur)
        if D < 2 or S_cur < REFINED_SMALL_S:
            psi, trace = delta_plus_one(sub)
            assert psi.palette_size <= target
            return dict(psi.assignment), target, trace
        t = choose_params(S_cur, x_cur)
        gamma, classes, k, trace = _one_level(
            sub, subcover, t, D, S_cur, audit, report, depth)
        if x_cur == 1:
            radix = D * (k - 1) + 1
            color_class = _leaf_colorer(radix)
        else:
            radix = refined_palette_bound(D, k, x_cur - 1)

            def color_class(cls, ccover):
                child, child_pal, ctr = rec(cls, ccover, k, x_cur - 1, depth + 1)
                assert child_pal == radix
                return child, ctr
        assignment = _color_classes(classes, radix, color_class,
                                    f"level-{depth}-classes", trace)
        combined_palette = gamma * radix
        if combined_palette > target:
            # the appendix trim: basic reduction down to the exact bound
            assert target >= sub.max_degree + 1
            col = Coloring("vertex", assignment, combined_palette)
            col, rtr = reduce_colors(sub, col, target)
            trace.extend(rtr, f"trim-{depth}:")
            assignment = col.assignment
        return assignment, target, trace

    assignment, palette, trace = rec(g, cover, S, x, 0)
    col = Coloring("vertex", assignment, palette)
    _require_proper(g, col, "refined_coloring output")
    report.rounds = trace.rounds
    assert palette <= refined_palette_bound(D, S, x)
    return col, report
