"""Per-layer tracing of ``localcolor`` from outside the package.

:class:`Tracer` replaces the layer-boundary functions of every
``localcolor`` module with timing wrappers.  Modules bind functions with
``from .x import f``, so a wrapper replaces every module's binding of the
target, and the class attribute for methods.  Each call becomes a span
(name, start, end, parent); a span's self time is its duration minus the
time of the wrapped calls it made.  ``sim.run`` is wrapped one level
deeper: the ``make_program`` factory it receives is wrapped so that every
program's ``init`` and ``step`` is timed and counted.

Functions called once per edge or vertex (``graph.norm_edge`` and the
``Graph``/``Coloring`` methods) are not wrapped: their time stays in their
caller's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from localcolor import arbedge, basecolor, cdcolor, cli, cliques, graph, io, sim, staredge, verify

MODULES = (arbedge, basecolor, cdcolor, cli, cliques, graph, io, sim, staredge, verify)
SKIP = {"graph.norm_edge"}
METHODS = (
    (cliques.CliqueCover, "from_cliques"),
    (cliques.CliqueCover, "restrict"),
    (arbedge.Orientation, "restrict"),
    (arbedge.Orientation, "topo_order"),
    (arbedge.HPartition, "validate"),
)


def _instrument(prog, acc: list):
    """Time and count ``prog``'s init and step into ``acc`` = [init s,
    step s, steps, steps that sent a message, messages]."""
    clock = time.perf_counter
    init, step = prog.init, prog.step

    def timed_init(view):
        t0 = clock()
        out, halted = init(view)
        acc[0] += clock() - t0
        acc[4] += len(out)
        return out, halted

    def timed_step(round_no, inbox):
        t0 = clock()
        out, halted = step(round_no, inbox)
        acc[1] += clock() - t0
        acc[2] += 1
        if out:
            acc[3] += 1
            acc[4] += len(out)
        return out, halted

    prog.init, prog.step = timed_init, timed_step
    return prog


def _lines_in(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


@dataclass(frozen=True)
class Target:
    """How one wrapped function feeds the per-layer metrics.

    ``group``: inclusive seconds are added to this metric, counting only
    calls not nested in another call of the same group.  ``self_metric``:
    the call's self time is added here.  ``hook(tracer, args, result,
    outer)`` adds counts; ``outer`` is true when the call is not nested in
    its group.
    """

    group: str | None = None
    self_metric: str | None = None
    hook: Callable | None = None


def _count(metric: str, of: Callable) -> Callable:
    def hook(tr, args, result, outer):
        tr.add(metric, of(args, result))
    return hook


def _outer_count(metric: str, of: Callable) -> Callable:
    def hook(tr, args, result, outer):
        if outer:
            tr.add(metric, of(args, result))
    return hook


_subgraph = Target("graph.subgraph_s", hook=_count("graph.subgraph_calls", lambda a, r: 1))
_orient = Target("arbedge.orient_s")
_arb_algo = Target("arbedge.algorithm_s", "arbedge.self_s",
                   _outer_count("arbedge.rounds_reported", lambda a, r: r[1].rounds))
_star_algo = Target("staredge.algorithm_s", None,
                    _outer_count("staredge.rounds_reported", lambda a, r: r[1].rounds))
_cd_algo = Target(None, "cdcolor.self_s", _count("cdcolor.leaves", lambda a, r: r[1].leaf_count()))
_check = Target("verify.check_s", hook=lambda tr, a, r, outer: (
    tr.add("verify.checks", 1), tr.add("verify.items_checked", len(a[1].assignment))))
_parse = Target("io.parse_s", hook=_outer_count("io.lines_parsed", lambda a, r: _lines_in(a[0])))

TARGETS = {
    "io.load_graph": _parse,
    "io.load_edgelist": _parse,
    "io.load_dimacs": _parse,
    "io.load_hypergraph": _parse,
    "io.gen_path": Target("io.gen_s"),
    "io.gen_grid": Target("io.gen_s"),
    "io.gen_random": Target("io.gen_s"),
    "io.gen_forest": Target("io.gen_s"),
    "io.gen_line_of": Target("io.gen_s"),
    "graph.induced_subgraph": _subgraph,
    "graph.edge_subgraph": _subgraph,
    "graph.line_graph": _subgraph,
    "graph.hypergraph_line_graph": _subgraph,
    "cliques.enumerate_maximal_cliques": Target(
        "cliques.cover_s", hook=_count("cliques.maximal_cliques", lambda a, r: len(r.cliques))),
    "cliques.CliqueCover.from_cliques": Target("cliques.cover_s"),
    "cliques.CliqueCover.restrict": Target("cliques.cover_s"),
    "cliques.build_vertex_connector": Target("cliques.connector_s"),
    "basecolor.reduce_colors": Target(
        "basecolor.reduce_s", hook=_count("basecolor.reduce_rounds", lambda a, r: r[1].rounds)),
    "basecolor.linial_coloring": Target(
        "basecolor.linial_s", hook=_count("basecolor.linial_rounds", lambda a, r: r[1].rounds)),
    "cdcolor.cd_coloring": _cd_algo,
    "cdcolor.refined_coloring": _cd_algo,
    "staredge.build_edge_connector": Target("staredge.connector_s"),
    "staredge.greedy_edge_coloring": Target(
        "staredge.greedy_s", hook=_count("staredge.greedy_edges", lambda a, r: len(r.assignment))),
    "staredge.reduce_edge_colors": Target("staredge.trim_s"),
    "staredge.star_edge_coloring_4delta": _star_algo,
    "staredge.recursive_star_edge_coloring": _star_algo,
    "arbedge.h_partition": Target(
        "arbedge.hpartition_s", hook=_count("arbedge.hsets", lambda a, r: r.ell)),
    "arbedge.acyclic_orientation": _orient,
    "arbedge.build_orientation_connector": _orient,
    "arbedge.Orientation.restrict": _orient,
    "arbedge.estimate_arboricity": Target("arbedge.degeneracy_s"),
    "arbedge.arb_edge_coloring": _arb_algo,
    "arbedge.delta_plus_little_o": _arb_algo,
    "arbedge.powered_edge_coloring": _arb_algo,
    "arbedge.merge_cross_coloring": _arb_algo,
    "verify.is_proper_vertex": _check,
    "verify.is_proper_edge": _check,
    "verify.count_colors": Target("verify.check_s"),
    "cli.main": Target(None, "cli.self_s"),
}


def _public_functions(mod):
    """(name, function) for every public function defined in ``mod``."""
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


class Tracer:
    """Wraps ``localcolor`` while installed; keeps spans and metrics in
    memory.  ``phase`` tags what is being traced ("setup", "pass" or
    "check"); metrics are kept per phase."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, parent id, name, phase, start, end)
        self.metrics: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # open calls: [span id, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    def add(self, metric: str, value: float) -> None:
        self.metrics[self.phase][metric] += value

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(mod):
                qual = f"{short}.{name}"
                if qual not in SKIP:
                    originals[fn] = qual
        wrappers = {fn: (self._wrap_run(fn) if fn is sim.run
                         else self._wrap(fn, qual, TARGETS.get(qual, Target())))
                    for fn, qual in originals.items()}
        # rebind every module's reference to each wrapped function
        for mod in (sys.modules[n] for n in list(sys.modules)
                    if n == "localcolor" or n.startswith("localcolor.")):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for cls, name in METHODS:
            raw = cls.__dict__[name]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            qual = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{name}"
            wrapped = self._wrap(fn, qual, TARGETS.get(qual, Target()))
            self._undo.append((cls, name, raw))
            setattr(cls, name, staticmethod(wrapped) if isinstance(raw, staticmethod)
                    else wrapped)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _enter(self, group: str | None) -> tuple[int, bool]:
        span_id = len(self.spans)
        self.spans.append(None)  # filled on exit
        self._stack.append([span_id, 0.0])
        outer = True
        if group is not None:
            outer = self._depth[group] == 0
            self._depth[group] += 1
        return span_id, outer

    def _exit(self, span_id: int, name: str, target: Target, outer: bool,
              start: float, end: float) -> None:
        _, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[span_id] = (span_id, parent, name, self.phase, start, end)
        if target.group is not None:
            self._depth[target.group] -= 1
            if outer:
                self.add(target.group, dur)
        if target.self_metric is not None:
            self.add(target.self_metric, dur - child_s)

    def _wrap(self, fn: Callable, name: str, target: Target) -> Callable:
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id, outer = self._enter(target.group)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span_id, name, target, outer, start, clock())
            if target.hook is not None:
                target.hook(self, args, result, outer)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_run(self, run: Callable) -> Callable:
        """``sim.run`` with each program's init/step timed and counted.

        The per-call counters live in a local list and are added once per
        run, which keeps the wrapper cheap on runs of millions of steps.
        What it still costs outside its own clock reads is measured once
        (:meth:`_call_overhead`) and taken out of ``sim.engine_s``."""
        target = Target("sim.run_s")

        def traced_run(g, make_program, *args, **kwargs):
            acc = [0.0, 0.0, 0, 0, 0]  # init s, step s, steps, useful steps, messages

            def make(v):
                return _instrument(make_program(v), acc)

            span_id, outer = self._enter(target.group)
            start = time.perf_counter()
            try:
                outputs, trace = run(g, make, *args, **kwargs)
            finally:
                self._exit(span_id, "sim.run", target, outer, start, time.perf_counter())
            for name, value in zip(("sim.init_s", "sim.step_s", "sim.vertex_steps",
                                    "sim.useful_steps", "sim.messages"), acc):
                self.add(name, value)
            self.add("sim.inits", g.n)
            self.add("sim.runs", 1)
            self.add("sim.rounds", trace.rounds)
            return outputs, trace

        traced_run.__wrapped__ = run
        return traced_run

    @staticmethod
    def _call_overhead(calls: int = 20_000) -> float:
        """Seconds the instrumentation adds to a step outside its own clock
        reads, per call: an instrumented idle step, less its timed part,
        against a plain one, best of five."""
        class Idle(sim.VertexProgram):
            def step(self, round_no, inbox):
                return {}, False

        def loop(step) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                step(1, {})
            return time.perf_counter() - start

        best = float("inf")
        for _ in range(5):
            acc = [0.0, 0.0, 0, 0, 0]
            instrumented = loop(_instrument(Idle(), acc).step) - acc[1]
            best = min(best, (instrumented - loop(Idle().step)) / calls)
        return best

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the timed pass (and ``io.gen_s`` of set-up)."""
        m = defaultdict(int, self.metrics["pass"])
        m["io.gen_s"] = self.metrics["setup"]["io.gen_s"]
        calls = m["sim.inits"] + m["sim.vertex_steps"]
        if calls:
            m["sim.engine_s"] = (m["sim.run_s"] - m["sim.init_s"] - m["sim.step_s"]
                                 - calls * self._call_overhead())
        if m["sim.vertex_steps"]:
            m["sim.useful_step_ratio"] = m["sim.useful_steps"] / m["sim.vertex_steps"]
        return dict(m)

    def span_records(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "phase": ph, "start": s, "end": e}
                for i, p, n, ph, s, e in self.spans]

