"""Every algorithm subcommand of ``cli.ALGORITHMS`` on one small corpus:
each run exits 0 with a proper coloring within its declared palette, and
the declared palette within the theory bound.  The corpus holds an
edgeless edge list, also under ``--cover line``, and a hypergraph file
with no hyperedges: each is the empty graph, colored with 1 color.

Every subcommand that reads ``--x`` runs past its depth cap as at the cap."""

import argparse
import json

import pytest

from localcolor.cli import ALGORITHMS, _build_parser, main

# name -> (file body, --format); the gen graphs are written by the fixture
CORPUS = {
    "random": (None, "edgelist"),
    "forest": (None, "edgelist"),
    "k5": (None, "edgelist"),
    "hyper": ("0 1 2\n2 3 4\n4 5\n0 5 6\n1 3 5\n", "hyper"),
    "edgeless": ("# no edges\n", "edgelist"),
    "no-hyperedges": ("# no hyperedges\n", "hyper"),
}
GEN = {
    "random": ["--kind", "random", "--n", "40", "--delta", "7", "--seed", "3"],
    "forest": ["--kind", "forest", "--n", "40", "--delta", "5", "--seed", "1"],
    "k5": ["--kind", "complete", "--n", "5"],
}
RUNS = [(command, name, cover)
        for command, (*_, options) in ALGORITHMS.items()
        for name, (_, fmt) in CORPUS.items()
        for cover in (["intrinsic", "line"] if "cover" in options and fmt == "edgelist"
                      else [None])]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name, (body, _) in CORPUS.items():
        path = root / name
        if body is None:
            assert main(["gen", *GEN[name], "--out", str(path)]) == 0
        else:
            path.write_text(body)
    return root


@pytest.mark.parametrize("command,name,cover", RUNS, ids=str)
def test_every_algorithm_within_its_bounds(inputs, capsys, command, name, cover):
    argv = [command, "--input", str(inputs / name), "--format", CORPUS[name][1]]
    if cover is not None:
        argv += ["--cover", cover]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == command
    assert report["ok"] and report["verdicts"]["proper"]
    assert report["colors_used"] <= report["declared_bound"] <= report["theory_bound"]
    if name in ("edgeless", "no-hyperedges"):
        assert report["graph"] == {"n": 0, "m": 0, "delta": 0, "a_estimate": 0}
        assert report["declared_bound"] == 1


def test_subcommands_are_the_table_plus_gen_and_verify():
    ap = _build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(ALGORITHMS) | {"gen", "verify"}


X_COMMANDS = [command for command, (*_, options) in ALGORITHMS.items() if "x" in options]
DEEP_RUNS = [(command, name, cover)
             for command in X_COMMANDS for name in ("triangle", "random-300")
             for cover in (["intrinsic", "line"] if "cover" in ALGORITHMS[command][3]
                           else [None])]


@pytest.fixture(scope="module")
def deep_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    (root / "triangle").write_text("0 1\n1 2\n0 2\n")
    assert main(["gen", "--kind", "random", "--n", "300", "--delta", "16", "--seed", "1",
                 "--out", str(root / "random-300")]) == 0
    return root


@pytest.mark.parametrize("command,name,cover", DEEP_RUNS, ids=str)
def test_x_past_its_cap_runs_as_the_cap(deep_inputs, capsys, command, name, cover):
    # the cap is the largest x with 2^(x+1) <= Delta, or S under a cover,
    # or 1; x = 10000 keeps its params.x, and everything else is the cap's
    argv = [command, "--input", str(deep_inputs / name)]
    if cover is not None:
        argv += ["--cover", cover]

    def run(x):
        assert main([*argv, "--x", str(x)]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["wall_time_s"]
        return report

    deep = run(10000)
    top = deep["cover"]["S"] if cover else deep["graph"]["delta"]
    capped = run(max(1, top.bit_length() - 2))
    assert deep["ok"] and deep["params"].pop("x") == 10000
    assert len(str(deep["theory_bound"])) <= 40
    del capped["params"]["x"]
    assert deep == capped
