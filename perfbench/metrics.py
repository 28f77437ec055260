"""Every metric the benchmark reports: name -> (unit, better, meaning).

End-to-end metrics are measured with tracing off.  The raw seconds of a
pass and the elements colored per second are printed, not reported (see
``run.print_seconds``); ``wall_cal`` is the gated wall time.  Per-layer
metrics come from the traced run, and each names the end-to-end metric and
workload it should move.  ``BENCHMARK.json`` lists the same names and units.
"""

END_TO_END = {
    "wall_cal": ("ratio", "lower",
                 "seconds of the timed pass over the seconds of a fixed pure-Python "
                 "calibration loop sampled while each job runs"),
    "setup_s": ("s", "lower",
                "import of the package plus generating or writing the inputs, in "
                "seconds on a machine where one calibration sample takes 1 ms"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the process that ran the workload"),
    "colors_used": ("count", "lower", "sum over jobs of the colors actually used"),
    "palette": ("count", "lower", "sum over jobs of the declared palettes"),
}

PER_LAYER = {
    "rounds": ("count", "lower",
               "total rounds the jobs' traces report (the paper's measure); "
               "sim-stepped on vertex-deep and vertex-wide"),
    "io.parse_s": ("s", "lower", "wall_cal on cli-file"),
    "io.lines_parsed": ("count", "lower", "wall_cal on cli-file"),
    "io.gen_s": ("s", "lower", "setup_s on vertex-wide"),
    "graph.subgraph_s": ("s", "lower", "wall_cal on edge-lib and vertex-deep"),
    "graph.subgraph_calls": ("count", "lower", "wall_cal on edge-lib and vertex-deep"),
    "cliques.cover_s": ("s", "lower", "wall_cal on vertex-deep"),
    "cliques.connector_s": ("s", "lower", "wall_cal on vertex-deep"),
    "cliques.maximal_cliques": ("count", "lower", "wall_cal on vertex-deep"),
    "sim.run_s": ("s", "lower", "wall_cal on vertex-deep (per round) and vertex-wide (per vertex)"),
    "sim.init_s": ("s", "lower", "wall_cal on vertex-deep and vertex-wide"),
    "sim.step_s": ("s", "lower", "wall_cal on vertex-deep and vertex-wide"),
    "sim.engine_s": ("s", "lower",
                     "sim.run_s minus init and step; wall_cal on vertex-deep and vertex-wide"),
    "sim.runs": ("count", "lower", "rounds and wall_cal on vertex-deep"),
    "sim.rounds": ("count", "lower", "rounds and wall_cal on vertex-deep"),
    "sim.vertex_steps": ("count", "lower", "rounds and wall_cal on vertex-deep"),
    "sim.messages": ("count", "lower", "rounds and wall_cal on vertex-deep"),
    "sim.useful_step_ratio": ("ratio", "higher",
                              "steps that send a message over steps attempted; "
                              "rounds and wall_cal on vertex-deep"),
    "basecolor.reduce_s": ("s", "lower", "rounds and wall_cal on vertex-deep"),
    "basecolor.reduce_rounds": ("count", "lower", "rounds and wall_cal on vertex-deep"),
    "basecolor.linial_s": ("s", "lower", "wall_cal on vertex-wide"),
    "basecolor.linial_rounds": ("count", "lower", "wall_cal on vertex-wide"),
    "cdcolor.self_s": ("s", "lower", "wall_cal on vertex-deep"),
    "cdcolor.leaves": ("count", "lower", "wall_cal on vertex-deep"),
    "staredge.connector_s": ("s", "lower", "wall_cal on edge-lib"),
    "staredge.greedy_s": ("s", "lower", "wall_cal on edge-lib"),
    "staredge.greedy_edges": ("count", "lower", "wall_cal on edge-lib"),
    "staredge.trim_s": ("s", "lower", "wall_cal on edge-lib"),
    "staredge.rounds_reported": ("count", "lower", "wall_cal on edge-lib"),
    "arbedge.hpartition_s": ("s", "lower", "wall_cal on edge-lib"),
    "arbedge.orient_s": ("s", "lower",
                         "orientation plus orientation connector; wall_cal on edge-lib"),
    "arbedge.self_s": ("s", "lower", "wall_cal on edge-lib"),
    "arbedge.hsets": ("count", "lower", "wall_cal on edge-lib"),
    "arbedge.rounds_reported": ("count", "lower", "wall_cal on edge-lib"),
    "arbedge.degeneracy_s": ("s", "lower", "wall_cal on cli-file"),
    "verify.check_s": ("s", "lower", "wall_cal on all four workloads"),
    "verify.checks": ("count", "lower", "wall_cal on all four workloads"),
    "verify.items_checked": ("count", "lower", "wall_cal on all four workloads"),
    "cli.self_s": ("s", "lower", "argparse, report and JSON; wall_cal on cli-file"),
    "cli.report_bytes": ("count", "lower",
                         "wall_cal on cli-file; the wall_time_s digits make it vary by a byte"),
    "trace.overhead_s": ("s", "lower", "job seconds of the traced pass minus those of the untraced pass"),
}
