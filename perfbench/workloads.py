"""The four benchmark workloads: inputs made from a seed, and the jobs that
run on them.

Each workload is chosen so that one layer of ``localcolor`` does most of
its work there and almost none on another workload:

- ``vertex-deep``: many simulated rounds over a few thousand vertices
  (``sim`` round loop, ``basecolor.reduce_colors``, ``cliques``,
  ``cdcolor`` recursion); no I/O and no edge kernels.
- ``vertex-wide``: two rounds over ~90k vertices (per-vertex ``sim`` cost
  and the Linial polynomial kernel).
- ``edge-lib``: every edge-coloring entry point called as a library
  (``staredge``/``arbedge`` connectors, greedy first-free-color loops,
  ``graph.edge_subgraph``); ``sim.run`` is never called.
- ``cli-file``: ``cli.main`` on files written during set-up (``io``
  parsing, ``arbedge.estimate_arboricity``, report assembly, verifier).

A job returns a :class:`Result`; :func:`check` decides whether it is
correct, independently of the job, with ``localcolor.verify``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as pyio
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from localcolor import arbedge, basecolor, cdcolor, cli, cliques, staredge, verify
from localcolor import io as lio
from localcolor.graph import Coloring, Graph

# Input sizes.  "full" is what the benchmark measures; "toy" keeps every
# job and code path but finishes in well under a second (smoke test).
SIZES = {
    "full": {
        "deep_random": (1000, 24), "deep_line": (100, 30),
        "wide_path": 60_000, "wide_grid": (170, 170),
        "edge_random": (1000, 32), "edge_forest": (2000, 500),
        "cli_random": (700, 16),
    },
    "toy": {
        "deep_random": (60, 6), "deep_line": (20, 6),
        "wide_path": 300, "wide_grid": (12, 12),
        "edge_random": (60, 8), "edge_forest": (60, 20),
        "cli_random": (40, 6),
    },
}


@dataclass
class Result:
    """What a job hands back: the coloring (None for CLI jobs, which hand
    back their JSON report instead), the rounds its trace reports and the
    bound its palette must respect."""

    rounds: int
    bound: int
    coloring: Coloring | None = None
    report: dict | None = None
    exit_code: int = 0
    report_bytes: int = 0


@dataclass
class Job:
    name: str
    graph: Graph | None  # input to check the coloring against
    items: int           # vertices or edges colored
    run: Callable[[], Result]


def relabel(g: Graph, seed: int) -> Graph:
    """The same graph with vertex IDs permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(range(g.n), [(perm[u], perm[v]) for u, v in g.edges()])


def _vertex_deep(seed: int, size: dict, workdir: Path) -> list[Job]:
    g = lio.gen_random(*size["deep_random"], seed)
    lg, lcover = lio.gen_line_of(*size["deep_line"], seed)

    def cd() -> Result:
        cover = cliques.enumerate_maximal_cliques(g)
        t = cdcolor.choose_params(cover.S, 1)
        col, rep = cdcolor.cd_coloring(g, cover, t, 1)
        D, S = cover.D, cover.S
        bound = int((t * D) * (D * (S / t + 2)) + t * D)  # the CLI's theory bound, x=1
        return Result(rep.rounds, bound, col)

    def refined() -> Result:
        col, rep = cdcolor.refined_coloring(lg, lcover, 2)
        return Result(rep.rounds,
                      cdcolor.refined_palette_bound(lcover.D, lcover.S, 2), col)

    return [Job("cd_coloring", g, g.n, cd),
            Job("refined_coloring", lg, lg.n, refined)]


def _vertex_wide(seed: int, size: dict, workdir: Path) -> list[Job]:
    path = relabel(lio.gen_path(size["wide_path"]), seed)
    grid = relabel(lio.gen_grid(*size["wide_grid"]), seed + 1)

    def linial(g: Graph) -> Callable[[], Result]:
        def job() -> Result:
            col, trace = basecolor.linial_coloring(g)
            return Result(trace.rounds, basecolor.LINIAL_CL * g.max_degree ** 2, col)
        return job

    return [Job("linial_path", path, path.n, linial(path)),
            Job("linial_grid", grid, grid.n, linial(grid))]


def _edge_lib(seed: int, size: dict, workdir: Path) -> list[Job]:
    g = lio.gen_random(*size["edge_random"], seed)
    forest = lio.gen_forest(*size["edge_forest"], seed)
    a = arbedge.estimate_arboricity(g)
    q = arbedge.DEFAULT_Q
    delta = g.max_degree

    def star4() -> Result:
        col, rep = staredge.star_edge_coloring_4delta(g)
        return Result(rep.rounds, 4 * delta, col)

    def recstar() -> Result:
        col, rep = staredge.recursive_star_edge_coloring(g, 2)
        return Result(rep.rounds, 2 ** 3 * delta, col)

    def arb() -> Result:
        col, trace = arbedge.arb_edge_coloring(g, a, q)
        return Result(trace.rounds, arbedge.arb_palette_bound(delta, a, q), col)

    def little_o(h: Graph, a_h: int) -> Callable[[], Result]:
        def job() -> Result:
            col, trace = arbedge.delta_plus_little_o(h, a_h, q)
            return Result(trace.rounds,
                          arbedge.little_o_palette_bound(h.max_degree, a_h, q), col)
        return job

    def powered() -> Result:
        col, trace = arbedge.powered_edge_coloring(g, a, q, 2)
        return Result(trace.rounds,
                      arbedge.powered_palette_bound(delta, a, q, 2), col)

    return [Job("star_edge_4delta", g, g.m, star4),
            Job("recursive_star_x2", g, g.m, recstar),
            Job("arb_edge", g, g.m, arb),
            Job("delta_plus_little_o", g, g.m, little_o(g, a)),
            Job("powered_x2", g, g.m, powered),
            Job("little_o_forest", forest, forest.m, little_o(forest, 1))]


def _cli_file(seed: int, size: dict, workdir: Path) -> list[Job]:
    g = lio.gen_random(*size["cli_random"], seed)
    edges = g.edges()
    el = workdir / "graph.el"
    el.write_text("".join(f"{u} {v}\n" for u, v in edges))
    dimacs = workdir / "graph.col"
    dimacs.write_text(f"p edge {g.n} {g.m}\n"
                      + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges))

    def run_cli(argv: list[str]) -> Callable[[], Result]:
        def job() -> Result:
            out = pyio.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            text = out.getvalue()
            report = json.loads(text)
            return Result(report["rounds"]["total"], report["theory_bound"],
                          report=report, exit_code=code, report_bytes=len(text))
        return job

    return [Job("cli_star_edge_x2", None, g.m,
                run_cli(["star-edge", "--input", str(el), "--x", "2"])),
            Job("cli_arb_edge_dimacs", None, g.m,
                run_cli(["arb-edge", "--input", str(dimacs), "--format", "dimacs"]))]


MAKE_JOBS = {
    "vertex-deep": _vertex_deep,
    "vertex-wide": _vertex_wide,
    "edge-lib": _edge_lib,
    "cli-file": _cli_file,
}


def build(workload: str, seed: int, scale: str, workdir: Path) -> list[Job]:
    """Generate the workload's inputs from ``seed`` and return its jobs."""
    return MAKE_JOBS[workload](seed, SIZES[scale], workdir)


def check(job: Job, res: Result) -> str | None:
    """None if the job's output is correct, else why not.  Library jobs are
    re-verified with ``localcolor.verify``; CLI jobs by their exit code and
    the report's own verdicts and bounds."""
    if res.report is not None:
        r = res.report
        if res.exit_code != 0 or not r["ok"] or not r["verdicts"]["proper"]:
            return f"report not ok (exit {res.exit_code})"
        used, palette = r["colors_used"], r["declared_palette"]
    else:
        col = res.coloring
        checker = verify.is_proper_vertex if col.kind == "vertex" else verify.is_proper_edge
        verdict = checker(job.graph, col)
        if not verdict.ok:
            return f"improper: {len(verdict.violations)} violations"
        used, palette = col.colors_used(), col.palette_size
    if used > palette:
        return f"{used} colors used above palette {palette}"
    if palette > res.bound:
        return f"palette {palette} above bound {res.bound}"
    return None


def digest(res: Result) -> str:
    """Short hash of a job's output: the coloring, or the CLI report
    without its wall time and input path."""
    if res.report is not None:
        body = {k: v for k, v in res.report.items() if k != "wall_time_s"}
        body["params"] = {k: v for k, v in body["params"].items() if k != "input"}
        text = json.dumps(body, sort_keys=True)
    else:
        text = repr(sorted(res.coloring.assignment.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summary(res: Result) -> tuple[int, int]:
    """(colors used, declared palette) of a job's output."""
    if res.report is not None:
        return res.report["colors_used"], res.report["declared_palette"]
    return res.coloring.colors_used(), res.coloring.palette_size
