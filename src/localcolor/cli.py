"""Command-line front end: run an algorithm on a graph, verify the result,
and emit a JSON report.

Exit codes: 0 = all checks passed, 1 = verification or bound failure,
2 = usage / input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import arbedge, cdcolor, staredge
from .cliques import CliqueCover, enumerate_maximal_cliques
from .graph import (Coloring, GraphError, VerificationError, hypergraph_line_graph, line_graph,
                    norm_edge)
from .io import GENERATORS, ParseError, load_graph
from .verify import count_colors, is_proper_edge, is_proper_vertex


def _q_arg(text: str) -> float:
    """--q as the float it parses to, refused when its typed decimal value
    is below 2.5 (2.49999999999999999 rounds to the float 2.5).  A
    non-finite q passes through to arbedge's own check."""
    try:
        q = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if math.isfinite(q) and Fraction(text) < arbedge.DEFAULT_Q:
        raise argparse.ArgumentTypeError(f"q must be at least {arbedge.DEFAULT_Q}, got {text}")
    return q


# the options an algorithm subcommand may read, in the order they are added
OPTIONS = {
    "x": {"type": int, "default": 1},
    "cover": {"default": "intrinsic", "help": "intrinsic | line | provided:PATH"},
    "t": {"type": int},
    "a": {"type": int},
    "q": {"type": _q_arg, "default": arbedge.DEFAULT_Q},
}


# subcommand -> (module, its coloring, its theory bound, the options it
# reads in call order).  With "cover", the coloring takes (g, cover, *opts)
# and the bound (D, S, *opts); otherwise (g, *opts) and (Delta, *opts).
ALGORITHMS = {
    "cd-color": (cdcolor, "cd_coloring", "cd_envelope", ("cover", "t", "x")),
    "refined": (cdcolor, "refined_coloring", "refined_palette_bound", ("cover", "x")),
    "star-edge": (staredge, "recursive_star_edge_coloring", "star_palette_bound", ("x",)),
    "arb-edge": (arbedge, "arb_edge_coloring", "arb_palette_bound", ("a", "q")),
    "delta-little-o": (arbedge, "delta_plus_little_o", "little_o_palette_bound", ("a", "q")),
    "powered": (arbedge, "powered_edge_coloring", "powered_palette_bound", ("a", "q", "x")),
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="localcolor")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*ALGORITHMS, "verify"):
        p = sub.add_parser(name)
        p.add_argument("--input", help="input graph file")
        p.add_argument("--format", default="edgelist",
                       choices=["edgelist", "dimacs", "hyper"])
        p.add_argument("--json", dest="json_path", help="also write the report here")
        if name == "verify":
            p.add_argument("--coloring", help="JSON coloring file to check")
            continue
        for opt, spec in OPTIONS.items():
            if opt in ALGORITHMS[name][3]:
                p.add_argument(f"--{opt}", **spec)
    g = sub.add_parser("gen")
    g.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    for opt in ("n", "delta", "rows", "cols"):
        g.add_argument(f"--{opt}", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output path (default stdout)")
    return ap


def _load(args):
    """(graph, cover): the input graph and the clique cover that --cover
    asks for, or None on a subcommand without --cover.  A hypergraph
    (--format hyper) becomes the intersection graph of its hyperedges,
    with one clique per original vertex as its cover."""
    if not args.input:
        raise ParseError("--input is required for this command")
    loaded = load_graph(args.input, args.format)
    cover_mode = getattr(args, "cover", None)
    if args.format == "hyper":
        if cover_mode not in (None, "intrinsic"):
            raise ParseError(f"--cover {cover_mode}: a hypergraph brings its own cover")
        return hypergraph_line_graph(loaded)
    if cover_mode is None:
        return loaded, None
    if cover_mode == "line":
        return line_graph(loaded)
    if cover_mode == "intrinsic":
        return loaded, enumerate_maximal_cliques(loaded)
    if cover_mode.startswith("provided:"):
        # one clique per line, the hypergraph format: a bad token is a
        # ParseError naming the cover file and line
        cliques = load_graph(cover_mode.split(":", 1)[1], "hyper")
        return loaded, CliqueCover.from_cliques(loaded, cliques)
    raise ParseError(f"unknown cover mode {cover_mode!r}")


def _report(args, g, a_estimate, col, trace, theory_bound, extra):
    """The JSON report of one run; ``trace`` is its RoundTrace and the
    declared bound is the coloring's palette."""
    declared = col.palette_size
    used, declared_palette = count_colors(col)
    verdict = (is_proper_vertex if col.kind == "vertex" else is_proper_edge)(g, col)
    bound_ok = used <= declared <= theory_bound
    report = {
        "algorithm": args.command,
        "params": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command", "json_path") and v is not None},
        "graph": {"n": g.n, "m": g.m, "delta": g.max_degree, "a_estimate": a_estimate},
        "colors_used": used,
        "declared_palette": declared_palette,
        "declared_bound": declared,
        "theory_bound": theory_bound,
        "rounds": {"total": trace.rounds, "phases": trace.phase_breakdown},
        "verdicts": {"proper": verdict.ok, "violations": len(verdict.violations),
                     "bound_ok": bound_ok},
        "ok": verdict.ok and bound_ok,
    }
    report.update(extra)
    return report, (0 if report["ok"] else 1)


def _emit(report, args, wall):
    report["wall_time_s"] = round(wall, 6)
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    path = getattr(args, "json_path", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_gen(args):
    params = {k: getattr(args, k) for k in ("n", "delta", "rows", "cols")
              if getattr(args, k) is not None}
    try:
        g = GENERATORS[args.kind](params, args.seed)
    except KeyError as e:
        raise ParseError(f"generator {args.kind} needs parameter {e}") from None
    lines = ["# generated by localcolor gen kind=%s seed=%d" % (args.kind, args.seed)]
    lines += ["%d %d" % e for e in sorted(g.edges())]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_coloring(path) -> Coloring:
    """A coloring from a JSON file with "kind", "palette" and "assignment";
    anything else is a ParseError naming the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            kind, items = data["kind"], data["assignment"].items()
            if kind == "vertex":
                assignment = {int(k): int(v) for k, v in items}
            else:  # keys "u,w"
                assignment = {norm_edge(*map(int, k.split(","))): int(v) for k, v in items}
            return Coloring(kind, assignment, int(data["palette"]))
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise ParseError(f"{path}: not a coloring file: {e!r}") from None


def _cmd_verify(args):
    start = time.monotonic()
    g, _ = _load(args)
    if not args.coloring:
        report = {
            "algorithm": "verify",
            "graph": {"n": g.n, "m": g.m, "delta": g.max_degree,
                      "a_estimate": arbedge.estimate_arboricity(g) if g.m else 0},
            "ok": True,
        }
        _emit(report, args, time.monotonic() - start)
        return 0
    col = _load_coloring(args.coloring)
    verdict = (is_proper_vertex if col.kind == "vertex" else is_proper_edge)(g, col)
    report = {
        "algorithm": "verify",
        "graph": {"n": g.n, "m": g.m, "delta": g.max_degree},
        "colors_used": count_colors(col)[0],
        "verdicts": {"proper": verdict.ok,
                     "violations": len(verdict.violations)},
        "ok": verdict.ok,
    }
    _emit(report, args, time.monotonic() - start)
    return 0 if verdict.ok else 1


def _run_algorithm(args):
    start = time.monotonic()
    module, coloring, bound, options = ALGORITHMS[args.command]
    g, cover = _load(args)
    a_estimate = arbedge.estimate_arboricity(g) if g.m else 0
    # the defaults worked out from the input stay out of args, so the
    # report's params list only what was given
    opts = {k: cover if k == "cover" else getattr(args, k) for k in options}
    if opts.get("t", 0) is None:
        opts["t"] = cdcolor.choose_params(cover.S, opts["x"])
    if opts.get("a", 0) is None:
        opts["a"] = max(a_estimate, 1)  # a_estimate is 0 on an edgeless graph
    # looked up at call time: a tracer wraps a function by rebinding its module attribute
    col, trace = getattr(module, coloring)(g, *opts.values())
    if opts.pop("cover", None) is not None:
        theory = getattr(module, bound)(cover.D, cover.S, *opts.values())
        extra = {"cover": {"D": cover.D, "S": cover.S, "cliques": len(cover.cliques)},
                 "leaf_count": trace.leaf_count()}
    else:
        theory = getattr(module, bound)(g.max_degree, *opts.values())
        extra = ({"a": opts["a"]} if "a" in opts
                 else {"class_count": trace.class_count, "max_star": trace.max_star})
    report, code = _report(args, g, a_estimate, col, trace, theory, extra)
    _emit(report, args, time.monotonic() - start)
    return code


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _run_algorithm(args)
    except VerificationError as e:  # a result failed its own check
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ParseError, GraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
