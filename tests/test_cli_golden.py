"""Golden CLI reports: the sha256 of each subcommand's JSON report on one
small generated graph, without ``wall_time_s`` and ``params.input`` (the
only fields that depend on the run rather than on the code).  A change that
is meant to keep reports byte-identical must leave every entry as it is.
"""

import hashlib
import json

import pytest

from localcolor.cli import main

# subcommand argv (after --input) -> sha256 of the report
GOLDEN = {
    ("star-edge", "--x", "1"):
        "a48ceb4325a556698d78cea3248dcdf9d7ddacd66dc3d0f5c05b63d34c28e2b3",
    ("star-edge", "--x", "2"):
        "271f62697409f24fae36c04036258ec6cb1c99f6fe861ac90fdec1509ced7c1b",
    ("arb-edge",):
        "885121a109343f7f2d10d76f7734f7d3778c987fd9fc4221296f0605ae4731cf",
    ("delta-little-o",):
        "a9bb77e651965da9b89595e14ec8db1e3089950b80d22cf786ae9d4c4bb60dc4",
    ("powered", "--x", "2"):
        "c8a5901818f25988b85a6820438968315ff8a119f06e112659a8403357c4f2e4",
    ("cd-color",):
        "a62a216d0def27cfebd7cbbe194ef897da57c5f49283644dffe24ab27ba4f379",
    ("refined", "--cover", "line"):
        "9ee2d62fdebc1b2ae8ed6ced8a7ef3deefe758007af89bac8430d217fb64da79",
    ("verify",):
        "f2d23b71c092ebf4595adac89fb049fac4b19d17317dbfa5cfe0211bb80bc51f",
}


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "g.el"
    assert main(["gen", "--kind", "random", "--n", "80", "--delta", "10",
                 "--seed", "5", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_cli_report_digest(graph_file, capsys, argv):
    command, *rest = argv
    assert main([command, "--input", graph_file, *rest]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    report.get("params", {}).pop("input", None)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[argv]
