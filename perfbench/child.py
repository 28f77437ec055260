"""One pass of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 [--scale full|toy]

Imports ``localcolor`` from the ``src/`` next to this directory, builds the
workload's inputs (timed as set-up), runs every job once (timed as the
pass), checks every output, and prints one JSON line.  A calibration loop
is sampled during the set-up and every job.  ``run.py`` starts this process; it is not meant to be
called by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The calibration loop is sampled while the set-up and each job run: every
# SAMPLE_PERIOD_S a timer signal runs SAMPLE_ITERS iterations of it (about
# 1 ms).  Other tenants of a shared machine slow the work and the samples
# alike, so seconds over the mean sample seconds are steady where seconds
# alone are not.  The samples' own time is taken out of the work's.  Job
# time is expressed in units of CAL_ITERS iterations (about 0.3 s) of the
# loop; set-up time in seconds on a machine where one sample takes
# NOMINAL_SAMPLE_S.
SAMPLE_ITERS = 5_000
SAMPLE_PERIOD_S = 0.05
CAL_ITERS = 1_500_000
NOMINAL_SAMPLE_S = 0.001


def calibrate(iterations: int) -> float:
    """Seconds taken by a fixed pure-Python loop of dict and set work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        table[i & 1023] = i
        acc += len({i & 7, i & 3})
    return time.perf_counter() - start


class Window:
    """Times a block while sampling the calibration loop.  On exit,
    ``seconds`` holds the block's seconds less the samples' and ``sample``
    the mean seconds of one sample taken meanwhile."""

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = self.sample = 0.0

    def _take(self, signum, frame):
        self.samples.append(calibrate(SAMPLE_ITERS))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = elapsed - sum(self.samples)
        self.sample = (statistics.fmean(self.samples) if self.samples
                       else calibrate(SAMPLE_ITERS))
        return False


def timed_pass(jobs, tracer):
    """Run each job once.  Returns [(job, result or None, error or None,
    seconds, wall_cal)]."""
    outcomes = []
    if tracer is not None:
        tracer.phase = "pass"
    for job in jobs:
        gc.collect()
        with Window() as w:
            try:
                res, err = job.run(), None
            except Exception:  # a failing job is counted, not fatal
                res, err = None, traceback.format_exc()
        outcomes.append((job, res, err, w.seconds,
                         w.seconds / (w.sample * CAL_ITERS / SAMPLE_ITERS)))
    if tracer is not None:
        tracer.phase = "check"
    return outcomes


def job_records(outcomes, workloads) -> list[dict]:
    records = []
    for job, res, err, seconds, wall_cal in outcomes:
        if err is None:
            try:
                err = workloads.check(job, res)
            except Exception:
                err = traceback.format_exc()
        rec = {"name": job.name, "items": job.items, "seconds": seconds,
               "wall_cal": wall_cal, "error": err}
        if res is not None:
            used, palette = workloads.summary(res)
            rec.update(rounds=res.rounds, colors_used=used, palette=palette,
                       bound=res.bound, digest=workloads.digest(res),
                       report_bytes=res.report_bytes)
        if err is not None:
            print(f"job {job.name} failed: {err}", file=sys.stderr)
        records.append(rec)
    return records


def run(workload: str, seed: int, trace: bool, scale: str) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        with Window() as setup:
            sys.path.insert(0, str(SRC))
            import workloads
            from tracer import Tracer

            tracer = None
            if trace:
                tracer = Tracer()
                tracer.install()
            jobs = workloads.build(workload, seed, scale, Path(workdir))
        gc.collect()
        records = job_records(timed_pass(jobs, tracer), workloads)
    out = {
        "wall_s": sum(r["seconds"] for r in records),
        "wall_cal": sum(r["wall_cal"] for r in records),
        "setup_raw_s": setup.seconds,
        "setup_s": setup.seconds * NOMINAL_SAMPLE_S / setup.sample,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.report_bytes"] = sum(r.get("report_bytes", 0) for r in records)
        out["layers"] = layers
        out["spans"] = tracer.span_records()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, bool(args.trace), args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
