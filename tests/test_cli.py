import json
import re

import pytest

from localcolor import io as lio
from localcolor.cli import main
from localcolor.io import load_dimacs, load_edgelist, load_hypergraph, ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_load_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "30",
                      "--delta", "6", "--seed", "4", "--out", str(path))
    assert code == 0
    g = load_edgelist(path)
    assert g.max_degree == 6


def test_edgelist_errors(tmp_path):
    p = tmp_path / "bad.el"
    p.write_text("1 2\n5 5\n")
    with pytest.raises(ParseError, match="self-loop"):
        load_edgelist(p)
    p.write_text("1 2\n2 1\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_edgelist(p)
    p.write_text("1 2 3\n")
    with pytest.raises(ParseError, match=":1:"):
        load_edgelist(p)


def test_duplicate_edge_on_last_line(tmp_path):
    p = tmp_path / "dup.el"
    p.write_text("1 2\n2 3\n3 4\n# comment\n3 2\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:5: duplicate edge (2, 3)")):
        load_edgelist(p)
    p = tmp_path / "dup.col"
    p.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 2\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:4: duplicate edge (2, 3)")):
        load_dimacs(p)


def test_edgelist_comments_blank_lines_and_reversed_repeats(tmp_path):
    p = tmp_path / "c.el"
    p.write_text("# header\n\n5 1  # first edge\n   \n1 2\n# 2 0 is commented out\n0 1 # trailing\n")
    g = load_edgelist(p)
    assert list(g.adj.items()) == [(0, (1,)), (1, (0, 2, 5)), (2, (1,)), (5, (1,))]
    p.write_text("\n# c\n0 1\n\n1 0  # the same edge reversed\n2 3\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:5: duplicate edge (0, 1)")):
        load_edgelist(p)


def test_dimacs_comments_blank_lines_and_reversed_repeats(tmp_path):
    p = tmp_path / "c.col"
    p.write_text("c a comment\n\np edge 5 3  # five vertices\n# note\ne 4 2\n\n"
                 "c more\ne 2 3 # trailing\ne 2 1\n")
    g = load_dimacs(p)
    assert list(g.adj.items()) == [(1, (2,)), (2, (1, 3, 4)), (3, (2,)), (4, (2,)), (5, ())]
    p.write_text("p edge 3 2\n\ne 1 2\nc x\ne 2 1 # reversed\ne 2 3\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:5: duplicate edge (1, 2)")):
        load_dimacs(p)


def test_dimacs_second_problem_line(tmp_path):
    p = tmp_path / "two.col"
    p.write_text("p edge 3 1\ne 1 2\n# again\np edge 3 1\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:4: second problem line")):
        load_dimacs(p)


@pytest.mark.parametrize("counts", ["-3 0", "3 -1", "+3 0"])
def test_dimacs_signed_count(tmp_path, counts):
    p = tmp_path / "signed.col"
    p.write_text(f"c negative counts\np edge {counts}\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:2: bad problem line")):
        load_dimacs(p)


def test_dimacs_k4(tmp_path):
    p = tmp_path / "k4.col"
    lines = ["c complete graph", "p edge 4 6"]
    lines += [f"e {u} {v}" for u in range(1, 5) for v in range(u + 1, 5)]
    p.write_text("\n".join(lines) + "\n")
    g = load_dimacs(p)
    assert g.n == 4 and g.m == 6 and g.max_degree == 3


def test_dimacs_header_mismatch(tmp_path):
    p = tmp_path / "bad.col"
    p.write_text("p edge 3 2\ne 1 2\n")
    with pytest.raises(ParseError, match="header"):
        load_dimacs(p)


def test_hypergraph_format(tmp_path):
    p = tmp_path / "h.hg"
    p.write_text("0 1 2\n2 3 4\n")
    h = load_hypergraph(p)
    assert len(h) == 2 and max(map(len, h)) == 3


@pytest.mark.parametrize("fmt,body", [
    ("edgelist", "-2 -1\n-1 0\n0 1\n1 2\n-2 2\n"),
    ("hyper", "-2 -1 0\n0 1 2\n"),
])
def test_negative_vertex_id_exits_2(tmp_path, capsys, fmt, body):
    p = tmp_path / "neg.txt"
    p.write_text(body)
    code = main(["cd-color", "--input", str(p), "--format", fmt])
    assert code == 2
    assert f"{p}:1: negative vertex id" in capsys.readouterr().err


def test_failed_post_condition_exits_1(tmp_path, capsys, monkeypatch):
    # exit 1 is "verification or bound failed", exit 2 is "bad input"
    from localcolor import basecolor
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "200", "--delta", "6",
                      "--seed", "1", "--out", str(path))
    assert code == 0
    monkeypatch.setattr(basecolor, "_first_free", lambda *args: 0)
    code = main(["cd-color", "--input", str(path)])
    assert code == 1
    assert "improper" in capsys.readouterr().err


def test_failed_leaf_check_exits_1(tmp_path, capsys, monkeypatch):
    # the recursion checks every leaf color against the leaf palette; at
    # x=1 the first delta_plus_one call colors the root connector and every
    # later one a leaf, whose colors are pushed past the palette here
    from localcolor import cdcolor
    from localcolor.graph import Coloring
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "60", "--delta", "6",
                      "--seed", "1", "--out", str(path))
    assert code == 0
    real, calls = cdcolor.delta_plus_one, []

    def leaves_past_the_palette(g):
        col, trace = real(g)
        calls.append(g)
        if len(calls) == 1:
            return col, trace
        big = 10 ** 6
        shifted = {v: c + big for v, c in col.assignment.items()}
        return Coloring("vertex", shifted, col.palette_size + big), trace

    monkeypatch.setattr(cdcolor, "delta_plus_one", leaves_past_the_palette)
    code = main(["cd-color", "--input", str(path), "--x", "1"])
    assert code == 1
    assert "outside the leaf palette" in capsys.readouterr().err
    assert len(calls) > 1


def test_subcommands_run_clean(tmp_path, capsys):
    path = tmp_path / "g.el"
    run_cli(capsys, "gen", "--kind", "random", "--n", "40", "--delta", "9",
            "--seed", "1", "--out", str(path))
    for argv in (
        ["cd-color", "--input", str(path), "--x", "1"],
        ["refined", "--input", str(path), "--cover", "line", "--x", "2"],
        ["star-edge", "--input", str(path), "--x", "1"],
        ["star-edge", "--input", str(path), "--x", "2"],
        ["arb-edge", "--input", str(path)],
        ["delta-little-o", "--input", str(path)],
        ["powered", "--input", str(path), "--x", "2"],
        ["verify", "--input", str(path)],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, (argv, out)
        report = json.loads(out)
        assert report["ok"]


def test_report_schema(tmp_path, capsys):
    path = tmp_path / "g.el"
    run_cli(capsys, "gen", "--kind", "forest", "--n", "50", "--delta", "5",
            "--out", str(path))
    code, out = run_cli(capsys, "arb-edge", "--input", str(path), "--a", "1")
    report = json.loads(out)
    for key in ("algorithm", "graph", "colors_used", "declared_bound",
                "theory_bound", "rounds", "verdicts", "wall_time_s"):
        assert key in report
    assert report["colors_used"] <= report["declared_bound"] <= report["theory_bound"]


def test_json_file_written(tmp_path, capsys):
    path = tmp_path / "g.el"
    out_json = tmp_path / "report.json"
    run_cli(capsys, "gen", "--kind", "path", "--n", "20", "--out", str(path))
    code, out = run_cli(capsys, "star-edge", "--input", str(path),
                        "--json", str(out_json))
    assert code == 0
    assert json.loads(out_json.read_text())["algorithm"] == "star-edge"


def test_verify_coloring_file(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "vertex", "palette": 2,
                                "assignment": {"0": 0, "1": 1, "2": 0}}))
    code, out = run_cli(capsys, "verify", "--input", str(path),
                        "--coloring", str(good))
    assert code == 0 and json.loads(out)["ok"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "vertex", "palette": 2,
                               "assignment": {"0": 1, "1": 1, "2": 0}}))
    code, out = run_cli(capsys, "verify", "--input", str(path),
                        "--coloring", str(bad))
    assert code == 1 and not json.loads(out)["ok"]


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "cd-color", "--input", "/no/such/file")
    assert code == 2
    code, _ = run_cli(capsys, "bogus-subcommand")
    assert code == 2
    code, _ = run_cli(capsys, "gen", "--kind", "grid")  # missing rows/cols
    assert code == 2


@pytest.mark.parametrize("lines", ["p edge 3 1\ne 1", "p edge 3 1\ne 1 x",
                                   "p edge 3 1\ne 1 2 3", "c\np edge 3 x"])
def test_bad_dimacs_line_exits_2(tmp_path, capsys, lines):
    p = tmp_path / "bad.col"
    p.write_text(lines + "\n")
    code = main(["star-edge", "--input", str(p), "--format", "dimacs"])
    assert code == 2
    assert f"{p}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    json.dumps({"palette": 2, "assignment": {}}),
    json.dumps({"kind": "vertex", "assignment": {}}),
    json.dumps({"kind": "vertex", "palette": 2}),
    json.dumps({"kind": "edge", "palette": 2, "assignment": {"0": 1}}),
    json.dumps([1, 2]),
    "not json",
], ids=["no-kind", "no-palette", "no-assignment", "bad-edge-key", "list", "non-json"])
def test_bad_coloring_file_exits_2(tmp_path, capsys, body):
    graph = tmp_path / "g.el"
    graph.write_text("0 1\n1 2\n")
    coloring = tmp_path / "c.json"
    coloring.write_text(body)
    code = main(["verify", "--input", str(graph), "--coloring", str(coloring)])
    assert code == 2
    assert f"{coloring}:" in capsys.readouterr().err


@pytest.mark.parametrize("kind,assignment,stray", [
    ("edge", {"0,1": 0, "1,2": 1, "5,9": 2}, "(5, 9)"),
    ("vertex", {"0": 0, "1": 1, "2": 0, "7": 4}, "[7]"),
])
def test_verify_rejects_stray_items(tmp_path, capsys, kind, assignment, stray):
    graph = tmp_path / "g.el"
    graph.write_text("0 1\n1 2\n")
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"kind": kind, "palette": 5, "assignment": assignment}))
    code = main(["verify", "--input", str(graph), "--coloring", str(coloring)])
    assert code == 2
    assert stray in capsys.readouterr().err


def test_round_cap_flag_rejected(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n")
    code = main(["cd-color", "--input", str(path), "--round-cap", "1"])
    assert code == 2
    assert "--round-cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cd-color"], ["refined", "--cover", "line", "--x", "2"], ["star-edge", "--x", "2"],
    ["arb-edge"], ["delta-little-o", "--a", "1"], ["powered", "--x", "2"],
], ids=lambda argv: argv[0])
def test_round_total_is_the_sum_of_phases(tmp_path, capsys, argv):
    path = tmp_path / "f.el"
    code, _ = run_cli(capsys, "gen", "--kind", "forest", "--n", "200", "--delta", "20",
                      "--seed", "2", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, *argv, "--input", str(path))
    assert code == 0
    rounds = json.loads(out)["rounds"]
    assert rounds["total"] == sum(r for _, r in rounds["phases"])


@pytest.mark.parametrize("delta,argv", [
    (12, ["cd-color", "--cover", "line"]),
    (16, ["refined", "--format", "hyper"]),
], ids=["cd-color-line", "refined-hyper"])
def test_audit_passes_on_a_provided_cover(tmp_path, capsys, delta, argv):
    # a line graph has triangles outside its star cover; the per-level
    # clique check reads the cover the classes inherit, not their own
    # maximal cliques
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "200",
                      "--delta", str(delta), "--seed", "3", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, *argv, "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["cover"]["D"] == 2
    assert report["leaf_count"] > 1  # the check ran on at least one level


def test_provided_cover(tmp_path, capsys):
    g = tmp_path / "g.el"
    g.write_text("0 1\n1 2\n0 2\n2 3\n")
    cover = tmp_path / "cov.txt"
    cover.write_text("0 1 2  # a triangle\n2 3\n")
    code, out = run_cli(capsys, "cd-color", "--input", str(g), "--cover", f"provided:{cover}")
    assert code == 0
    assert json.loads(out)["cover"] == {"D": 2, "S": 3, "cliques": 2}
    # a bad token names the cover file and line
    cover.write_text("0 1 2\n2 x\n")
    assert main(["cd-color", "--input", str(g), "--cover", f"provided:{cover}"]) == 2
    assert f"{cover}:2: non-integer vertex id" in capsys.readouterr().err


@pytest.mark.parametrize("n,delta", [(10, 1), (2, 0)])
def test_gen_forest_below_tree_degree_exits_2(capsys, n, delta):
    # a tree on n >= 3 vertices has a vertex of degree 2, on 2 vertices one
    # of degree 1
    code = main(["gen", "--kind", "forest", "--n", str(n), "--delta", str(delta)])
    assert code == 2
    assert f"error: no tree on n={n} vertices has max degree delta={delta}" in \
        capsys.readouterr().err


def test_arboricity_estimated_once_per_run(tmp_path, capsys, monkeypatch):
    from localcolor import arbedge
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "60", "--delta", "8",
                      "--seed", "2", "--out", str(path))
    assert code == 0
    calls = []
    estimate = arbedge.estimate_arboricity

    def counting(g):
        calls.append(g.n)
        return estimate(g)

    monkeypatch.setattr(arbedge, "estimate_arboricity", counting)
    code, out = run_cli(capsys, "arb-edge", "--input", str(path))
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    assert report["a"] == report["graph"]["a_estimate"] == estimate(load_edgelist(path))


def test_clique_cap_exits_2(tmp_path, capsys, monkeypatch):
    from localcolor import cliques
    path = tmp_path / "p.el"
    path.write_text("0 1\n1 2\n")  # two maximal cliques
    monkeypatch.setattr(cliques.enumerate_maximal_cliques, "__defaults__", (1,))
    assert main(["cd-color", "--input", str(path)]) == 2
    assert "error: more than 1 maximal cliques" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["star-edge", "arb-edge", "delta-little-o",
                                     "powered", "verify"])
def test_edge_subcommands_run_on_a_hypergraph(tmp_path, capsys, command):
    path = tmp_path / "h.hg"
    path.write_text("0 1 2\n2 3 4\n4 5\n0 5 6\n")  # intersection graph: a 4-cycle
    code, out = run_cli(capsys, command, "--input", str(path), "--format", "hyper")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["graph"] == {"n": 4, "m": 4, "delta": 2,
                                                "a_estimate": 1}


# the options each algorithm subcommand reads, all given below
READS = {
    "cd-color": {"input", "format", "x", "cover", "t"},
    "refined": {"input", "format", "x", "cover"},
    "star-edge": {"input", "format", "x"},
    "arb-edge": {"input", "format", "a", "q"},
    "delta-little-o": {"input", "format", "a", "q"},
    "powered": {"input", "format", "x", "a", "q"},
}


@pytest.mark.parametrize("command", sorted(READS))
def test_report_params_are_the_options_read(tmp_path, capsys, monkeypatch, command):
    from localcolor.cliques import CliqueCover
    path = tmp_path / "f.el"
    code, _ = run_cli(capsys, "gen", "--kind", "forest", "--n", "40", "--delta", "5",
                      "--seed", "1", "--out", str(path))
    assert code == 0
    covers = []
    from_cliques = CliqueCover.from_cliques
    monkeypatch.setattr(CliqueCover, "from_cliques",
                        staticmethod(lambda *a: covers.append(1) or from_cliques(*a)))
    given = {"x": "1", "cover": "intrinsic", "t": "2", "a": "1", "q": "2.5"}
    argv = [f"--{k}={v}" for k, v in given.items() if k in READS[command]]
    code, out = run_cli(capsys, command, "--input", str(path), *argv)
    assert code == 0
    assert set(json.loads(out)["params"]) == READS[command]
    # only the vertex colorings build a clique cover
    assert bool(covers) == (command in ("cd-color", "refined"))


@pytest.mark.parametrize("argv", [
    ["star-edge", "--seed", "1"], ["star-edge", "--audit"], ["arb-edge", "--seed", "1"],
    ["delta-little-o", "--audit"], ["powered", "--seed", "1"], ["verify", "--seed", "1"],
    ["verify", "--audit"], ["cd-color", "--seed", "1"], ["refined", "--seed", "1"],
    ["refined", "--t", "3"], ["cd-color", "--audit"], ["refined", "--audit"],
], ids=" ".join)
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n")
    assert main([*argv, "--input", str(path)]) == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_star_edge_bound_uses_the_capped_depth(tmp_path, capsys):
    # Delta = 12 caps x at 2 (2^3 <= 12 < 2^4), so --x 5 runs, and is
    # bounded, as --x 2
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "60", "--delta", "12",
                      "--seed", "7", "--out", str(path))
    assert code == 0
    reports = []
    for x in ("2", "5"):
        code, out = run_cli(capsys, "star-edge", "--input", str(path), "--x", x)
        assert code == 0
        reports.append(json.loads(out))
    for r in reports:
        assert (r["declared_palette"], r["theory_bound"]) == (45, 96)


@pytest.mark.parametrize("cover", ["line", "provided:/nonexistent"])
def test_cover_with_a_hypergraph_exits_2(tmp_path, capsys, cover):
    path = tmp_path / "h.hg"
    path.write_text("0 1 2\n2 3 4\n4 5\n0 5 6\n")
    assert main(["cd-color", "--input", str(path), "--format", "hyper", "--cover", cover]) == 2
    assert f"--cover {cover}: a hypergraph brings its own cover" in capsys.readouterr().err
    code, out = run_cli(capsys, "cd-color", "--input", str(path), "--format", "hyper",
                        "--cover", "intrinsic")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("q", ["inf", "1e308", "nan"])
@pytest.mark.parametrize("command", ["arb-edge", "delta-little-o", "powered"])
def test_non_finite_q_exits_2(tmp_path, capsys, command, q):
    # a triangle reaches h_partition; an edgeless graph does not
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n0 2\n")
    empty = tmp_path / "e.col"
    empty.write_text("p edge 3 0\n")
    for argv in (["--input", str(path)], ["--input", str(empty), "--format", "dimacs"]):
        assert main([command, *argv, "--a", "2", "--q", q]) == 2
        assert "error: q*a must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["arb-edge", "delta-little-o", "powered"])
def test_a_below_one_exits_2(tmp_path, capsys, command):
    # a matching and an edgeless graph are colored without an H-partition,
    # but a is checked first
    path = tmp_path / "m.el"
    path.write_text("0 1\n2 3\n4 5\n")
    empty = tmp_path / "e.col"
    empty.write_text("p edge 3 0\n")
    for argv in (["--input", str(path)], ["--input", str(empty), "--format", "dimacs"]):
        assert main([command, *argv, "--a", "0"]) == 2
        assert "error: a must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["2.49999999999999999", "2.4"])
def test_q_below_its_floor_as_typed_exits_2(tmp_path, capsys, q):
    # float("2.49999999999999999") is 2.5; the typed value is below it
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n0 2\n")
    assert main(["arb-edge", "--input", str(path), "--q", q]) == 2
    assert f"q must be at least 2.5, got {q}" in capsys.readouterr().err


def test_q_is_taken_at_its_decimal_value(tmp_path, capsys):
    # 2.51 * 100 is 250.99999999999997 in binary floats, but d = 251
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "40", "--delta", "6",
                      "--seed", "1", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "arb-edge", "--input", str(path), "--a", "100", "--q", "2.51")
    assert code == 0
    report = json.loads(out)
    assert report["theory_bound"] == 6 + 251 - 1 + 4 * 251 == 1260
    assert report["params"]["q"] == 2.51


@pytest.mark.parametrize("n", [0, 1])
def test_gen_random_below_two_vertices_exits_2(monkeypatch, capsys, n):
    # a pair drawn from fewer than two vertices never ends: fail, not hang
    monkeypatch.setattr(lio, "_pairs", lambda rng, n: pytest.fail("drew a pair"))
    code = main(["gen", "--kind", "random", "--n", str(n), "--delta", "0"])
    assert code == 2
    assert f"error: need n >= 2 for a random graph, got n={n}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cd-color", "refined"])
@pytest.mark.parametrize("big", [10 ** 36, 10 ** 400], ids=["10**36", "10**400"])
def test_huge_vertex_ids_color_properly(tmp_path, capsys, command, big):
    # the IDs are Linial's initial colors: its schedule takes integer roots
    # of max ID + 1, past the float range at 10**400
    path = tmp_path / "huge.el"
    path.write_text(f"0 1\n1 {big}\n")
    code, out = run_cli(capsys, command, "--input", str(path))
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["verdicts"]["proper"] and report["verdicts"]["violations"] == 0


def test_gen_random_negative_delta_exits_2(capsys):
    assert main(["gen", "--kind", "random", "--n", "5", "--delta", "-1"]) == 2
    assert "error: need 0 <= delta < n, got delta=-1, n=5" in capsys.readouterr().err


@pytest.mark.parametrize("kind,sizes,message", [
    ("path", ["--n", "-1"], "need n >= 0, got n=-1"),
    ("complete", ["--n", "-2"], "need n >= 0, got n=-2"),
    ("star", ["--n", "-1"], "need n >= 0, got n=-1"),
    ("matching", ["--n", "-3"], "need k >= 0, got k=-3"),
    ("grid", ["--rows", "-2", "--cols", "3"], "need rows >= 0, got rows=-2"),
    ("grid", ["--rows", "2", "--cols", "-3"], "need cols >= 0, got cols=-3"),
], ids=["path", "complete", "star", "matching", "grid-rows", "grid-cols"])
def test_gen_negative_size_exits_2(capsys, kind, sizes, message):
    assert main(["gen", "--kind", kind, *sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    # size 0 is the empty graph
    zero = [s if s.startswith("--") else "0" for s in sizes]
    code, out = run_cli(capsys, "gen", "--kind", kind, *zero)
    assert code == 0 and out == f"# generated by localcolor gen kind={kind} seed=0\n"


@pytest.mark.parametrize("name,body,argv", [
    ("e.col", "p edge 5 0\n", ["--format", "dimacs"]),
    ("two.hg", "0 1\n2 3\n", ["--format", "hyper"]),
    ("empty.el", "", ["--t", "2"]),
], ids=["dimacs", "hyper", "empty-t2"])
def test_cd_color_on_an_edgeless_graph(tmp_path, capsys, name, body, argv):
    # S < 2 still picks t = 2, and the envelope is at least the one color
    path = tmp_path / name
    path.write_text(body)
    code, out = run_cli(capsys, "cd-color", "--input", str(path), *argv)
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["declared_bound"] == 1 <= report["theory_bound"]


def test_cd_color_depth_zero_names_x(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n")
    assert main(["cd-color", "--input", str(path), "--x", "0"]) == 2
    assert "error: x must be at least 1, got x=0" in capsys.readouterr().err


def test_refined_declares_the_product_of_its_level_palettes(tmp_path, capsys):
    # S = 20 >= 16 splits once at x = 2 (t = 2, then ceil(20/2) = 10 < 16):
    # (2*1+1) * (2*9+1) = 57 colors declared, within D^(x+1)*S = 160
    path = tmp_path / "g.el"
    code, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "80", "--delta", "20",
                      "--seed", "5", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "refined", "--input", str(path), "--cover", "line", "--x", "2")
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert (report["declared_bound"], report["theory_bound"]) == (57, 160)
    assert (report["colors_used"], report["rounds"]["total"]) == (41, 791)
