"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from localcolor.graph import Coloring  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, flags=()):
    return subprocess.run([sys.executable, *flags, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.MAKE_JOBS) == set(run.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == \
            {name: (unit, better) for name, (unit, better, _) in table.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--scale", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_injected_improper_coloring_raises_fail_rate(tmp_path):
    jobs = workloads.build("vertex-deep", 1, "toy", tmp_path)
    g = jobs[0].graph

    def improper():
        return workloads.Result(0, 1, Coloring("vertex", {v: 0 for v in g.adj}, 1))

    def raises():
        raise RuntimeError("injected")

    jobs += [workloads.Job("improper", g, g.n, improper),
             workloads.Job("raises", g, g.n, raises)]
    records = child.job_records(child.timed_pass(jobs, None), workloads)
    assert [r["error"] is None for r in records] == [True, True, False, False]
    assert "improper" in records[2]["error"]
    attempted, failed, consistent = run.tally([{"jobs": records}])
    assert (attempted, failed, consistent) == (4, 2, True)


def test_refuses_to_run_under_optimize():
    proc = bench("--workload", "cli-file", "--seed", "1", "--seconds", "0",
                 "--scale", "toy", flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "edge-lib",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
