"""Benchmark of localcolor: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload vertex-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Workloads: vertex-deep, vertex-wide, edge-lib, cli-file (see
``workloads.py``); ``--workload all`` runs the four in turn.  Every pass runs in a fresh child process, one after
another, one thread each.

``--trace 0`` starts passes until ``--seconds`` is used up (at least
three) and reports the median of each end-to-end metric.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics of
the traced one; the spans go to ``perfbench/out/``.  Either way every
job's output is checked, failures are counted, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names, units and what each should move
are in ``metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("vertex-deep", "vertex-wide", "edge-lib", "cli-file")
MIN_PASSES = 3
DEADLINE_S = 170  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh process and return its parsed result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace)), "--scale", args.scale]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def job_key(rec: dict) -> tuple:
    """What must be identical between passes of one seed."""
    return tuple(rec.get(k) for k in ("name", "rounds", "colors_used", "palette", "digest"))


def tally(passes: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, consistent) over every job of every pass."""
    records = [r for p in passes for r in p["jobs"]]
    failed = sum(1 for r in records if r["error"] is not None)
    keys = {tuple(job_key(r) for r in p["jobs"]) for p in passes}
    return len(records), failed, len(keys) == 1


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Medians over the passes; colors and palettes are the same in all."""
    def med(key):
        return statistics.median(p[key] for p in passes)

    jobs = passes[0]["jobs"]
    return {
        "wall_cal": med("wall_cal"),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "colors_used": sum(r.get("colors_used", 0) for r in jobs),
        "palette": sum(r.get("palette", 0) for r in jobs),
    }


def print_seconds(passes: list[dict]) -> None:
    """Raw seconds, printed but not reported as metrics: on a shared
    machine other tenants slow whole runs by up to 2x, more than any bound
    a gate could use.  wall_cal and setup_s divide that slowdown out."""
    walls = [p["wall_s"] for p in passes]
    items = sum(r["items"] for r in passes[0]["jobs"])
    setup = statistics.median(p["setup_raw_s"] for p in passes)
    print(f"  passes: {len(passes)}, one per fresh process; wall_s median "
          f"{statistics.median(walls):.4f} s, fastest {min(walls):.4f} s; "
          f"elements_per_s at the median {items / statistics.median(walls):.6g} 1/s; "
          f"set-up median {setup:.4f} s")


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    layers = traced["layers"]
    out = {name: layers.get(name, 0) for name in PER_LAYER}
    out["rounds"] = sum(r.get("rounds", 0) for r in traced["jobs"])
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return out


def print_jobs(passes: list[dict]) -> None:
    for rec in passes[0]["jobs"]:
        fields = " ".join(f"{k}={rec.get(k)}" for k in
                          ("rounds", "colors_used", "palette", "bound", "digest"))
        print(f"  job {rec['name']}: {fields}")


def write_spans(args, untraced: dict, traced: dict, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    body = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "python": platform.python_version(), "optimize": sys.flags.optimize,
            "jobs": traced["jobs"], "untraced_jobs": untraced["jobs"],
            "metrics": metrics, "spans": traced["spans"]}
    path.write_text(json.dumps(body))
    return path


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    print(f"localcolor benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale} python={platform.python_version()} "
          f"optimize={sys.flags.optimize}")
    if args.trace:
        untraced = spawn(args, False, deadline)
        traced = spawn(args, True, deadline)
        passes, table = [untraced, traced], PER_LAYER
        metrics = per_layer(untraced, traced)
        print(f"  spans: {write_spans(args, untraced, traced, metrics).relative_to(ROOT)}")
    else:
        passes, table = [], END_TO_END
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(spawn(args, False, deadline))
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and (now - start) + (now - t0) > args.seconds:
                break
        metrics = end_to_end(passes)
        print_seconds(passes)
    attempted, failed, consistent = tally(passes)
    print_jobs(passes)
    for name, (unit, _, _) in table.items():
        print(f"  {name:26s} {metrics[name]:14.6g} {unit}")
    print(f"  fail_rate {failed / attempted:g} ({failed} of {attempted} jobs failed); "
          f"outputs identical across passes: {consistent}")
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, (unit, _, _) in table.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: localcolor's asserts, verifier "
              "calls among them, would vanish", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "localcolor" / "__init__.py").is_file():
        print(f"no localcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = measure(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as e:
            print(f"benchmark failed: {e}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
