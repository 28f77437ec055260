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
        "3af6c35037c3fd53da736a358d0475d08853e4ba9c4ea24c13b38f10ad7511cd",
    ("star-edge", "--x", "2"):
        "002a2afa08c3a02d8483ecd8596a956655c1e13a6c58d20304bfb3a3d6c6d24c",
    ("arb-edge",):
        "28ef3ce6432864872e86f0a8ffaab447524d156f85a4f45b3a63038839b019f2",
    ("delta-little-o",):
        "0609f00f6d385dabaf4d356c5f970b166c0a43b253f43de5d531596573489c85",
    ("powered", "--x", "2"):
        "3d05be9b124ed6626158b3a64daa999167a2ca3e29f9d195fd11df54f28b74cc",
    ("cd-color",):
        "2ec1c8ba15f1448c3440533ddb57c24a5021e1e22b19aa2751db1ae4f6ffe55e",
    ("refined", "--cover", "line"):
        "9462c58511e47335b7e86729f84d98acfb5c0766d835cc3848cf6dfd420d0eaa",
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
