from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from localcolor import cdcolor
from localcolor.arbedge import arb_palette_bound, little_o_palette_bound, powered_palette_bound
from localcolor.cdcolor import (REFINED_SMALL_S, cd_coloring, cd_envelope, cd_palette_bound,
                                choose_params, refined_coloring, refined_palette_bound)
from localcolor.cliques import enumerate_maximal_cliques
from localcolor.graph import Coloring, Graph, GraphError, VerificationError
from localcolor.io import gen_complete, gen_hyper_line, gen_line_of, gen_random
from localcolor.staredge import star_palette_bound
from localcolor.verify import brute_force_max_clique, is_proper_vertex


def _within_cap(xs, bound):
    """The depths of ``xs`` that graph._depth leaves as they are at ``bound``."""
    return [x for x in xs if x == 1 or 2 ** (x + 1) <= bound]


def test_choose_params():
    assert choose_params(81, 1) == 9
    assert choose_params(81, 3) == 3
    assert choose_params(5, 10) == 2


def test_k9_t3_x1_uses_nine_colors():
    g = gen_complete(9)
    cover = enumerate_maximal_cliques(g)
    col, report = cd_coloring(g, cover, t=3, x=1)
    assert is_proper_vertex(g, col).ok
    assert col.colors_used() == 9
    assert report.leaf_count() <= (3 * cover.D) ** 1


def test_cd_decomposition_bounds():
    g = gen_random(40, 10, seed=4)
    cover = enumerate_maximal_cliques(g)
    t, x = 2, 2
    col, report = cd_coloring(g, cover, t, x)
    assert is_proper_vertex(g, col).ok
    assert report.leaf_count() <= (t * cover.D) ** x


def test_cd_leaf_cliques_via_oracle():
    # reconstruct leaves from the flattened colors and check their max
    # cliques against the brute-force oracle
    g = gen_complete(16)
    cover = enumerate_maximal_cliques(g)
    t, x = 2, 2
    col, report = cd_coloring(g, cover, t, x)
    leaf_radix = col.palette_size // (cover.D * (t - 1) + 1) ** x
    leaves = {}
    for v, c in col.assignment.items():
        leaves.setdefault(c // leaf_radix, []).append(v)
    assert len(leaves) <= (t * cover.D) ** x
    from localcolor.graph import induced_subgraph
    for vs in leaves.values():
        assert brute_force_max_clique(induced_subgraph(g, vs)) <= \
            cover.S / t ** x + 2


def test_refined_line_graph_bounds():
    g, cover = gen_line_of(60, 25, seed=1)
    assert cover.D == 2
    for x in (1, 2, 3):
        col, report = refined_coloring(g, cover, x)
        assert is_proper_vertex(g, col).ok
        assert col.palette_size <= 2 ** (x + 1) * cover.S


def test_refined_hyper_line_graph_bounds():
    g, cover = gen_hyper_line(30, 3, 40, seed=2)
    assert cover.D <= 3
    for x in (1, 2):
        col, report = refined_coloring(g, cover, x)
        assert is_proper_vertex(g, col).ok
        assert col.palette_size <= refined_palette_bound(cover.D, cover.S, x)


def test_refined_small_s_fallback():
    g = gen_complete(5)  # S=5 falls below the recursion threshold
    cover = enumerate_maximal_cliques(g)
    col, report = refined_coloring(g, cover, 2)
    assert is_proper_vertex(g, col).ok
    assert col.palette_size <= cover.D * (cover.S - 1) + 1


def test_bad_params_rejected():
    g = gen_complete(4)
    cover = enumerate_maximal_cliques(g)
    with pytest.raises(GraphError):
        cd_coloring(g, cover, t=1, x=1)
    with pytest.raises(GraphError):
        refined_coloring(g, cover, 0)


def test_improper_leaf_coloring_raises(monkeypatch):
    real = cdcolor.delta_plus_one
    calls = []

    def clashing(g):
        calls.append(g)
        col, trace = real(g)
        if len(calls) == 1:  # the connector coloring stays proper
            return col, trace
        return Coloring("vertex", dict.fromkeys(col.assignment, 0), col.palette_size), trace

    monkeypatch.setattr(cdcolor, "delta_plus_one", clashing)
    g = gen_complete(9)
    with pytest.raises(GraphError, match="improper"):
        cd_coloring(g, enumerate_maximal_cliques(g), t=3, x=1)


def test_refined_level_palette_within_target():
    # a level's palette (D(t-1)+1) times the child's theory bound never
    # exceeds the parent's, so by induction the product of the level
    # palettes, which the refined family declares, stays within its bound.
    # Within the cap at S, x - 1 is within the cap at k.
    for D in range(2, 25):
        for S in range(REFINED_SMALL_S, 2000):
            for x in _within_cap(range(1, 7), S):
                t = choose_params(S, x)
                k = -(-S // t)
                radix = D * (k - 1) + 1 if x == 1 else refined_palette_bound(D, k, x - 1)
                assert (D * (t - 1) + 1) * radix <= refined_palette_bound(D, S, x), (D, S, x)


def test_level_palette_over_declared_raises(monkeypatch):
    # line_34 at x=1 declares (2*4+1) * (2*6+1) = 117 > 136 // 2
    real = cdcolor.refined_palette_bound
    monkeypatch.setattr(cdcolor, "refined_palette_bound",
                        lambda D, S, x: real(D, S, x) // 2)
    g, cover = gen_line_of(40, 34, seed=3)
    with pytest.raises(VerificationError,
                       match="^palette 117 exceeds refined_palette_bound = 68$"):
        refined_coloring(g, cover, 1)


def test_class_clique_check_fires(monkeypatch):
    # an edgeless connector lets phi put all of K9 in one class, 9 > k=3
    monkeypatch.setattr(cdcolor, "build_vertex_connector",
                        lambda sub, cover, t: Graph({v: () for v in sub.adj}))
    g = gen_complete(9)
    with pytest.raises(VerificationError, match="class clique 9 exceeds k=3"):
        cd_coloring(g, enumerate_maximal_cliques(g), t=3, x=1)


def test_class_clique_check_fires_one_over_k(monkeypatch):
    # K3 in one class at t=2 has share 3, one over k = ceil(3/2) = 2
    monkeypatch.setattr(cdcolor, "build_vertex_connector",
                        lambda sub, cover, t: Graph({v: () for v in sub.adj}))
    g = gen_complete(3)
    with pytest.raises(VerificationError, match="class clique 3 exceeds k=2"):
        cd_coloring(g, enumerate_maximal_cliques(g), t=2, x=1)


def _cover(kind, seed):
    # line and hyper-line covers reach S >= REFINED_SMALL_S, so the refined
    # family splits them too
    if kind == "line":
        return gen_line_of(40, 18, seed=seed)
    if kind == "hyper":
        return gen_hyper_line(20, 3, 120, seed=seed)
    g = gen_random(30, 8, seed=seed)
    return g, enumerate_maximal_cliques(g)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["line", "hyper", "intrinsic"]), st.integers(0, 1000),
       st.integers(2, 4), st.integers(1, 3))
def test_class_cliques_within_k_on_every_level(kind, seed, t, x):
    g, cover = _cover(kind, seed)
    _, report = cd_coloring(g, cover, t, x)
    for i, level in enumerate(report.levels):
        k = -(-cover.S // t ** (i + 1))
        assert 1 <= level.max_clique <= k and level.max_degree <= (k - 1) * cover.D
    _, report = refined_coloring(g, cover, x)
    k = cover.S
    for i, level in enumerate(report.levels):
        k = -(-k // choose_params(k, x - i))
        assert 1 <= level.max_clique <= k and level.max_degree <= (k - 1) * cover.D


def _total_palette(D, S, t, x):
    """CD-Coloring's declared palette by its level-by-level recursion."""
    k = -(-S // t)
    child = _total_palette(D, k, t, x - 1) if x > 1 else D * (k - 1) + 1
    return (D * (t - 1) + 1) * child


def test_palette_bounds_are_exact_ints():
    for D in range(1, 8):
        for S in range(1, 60):
            for t in range(2, 12):
                for x in _within_cap(range(1, 5), S):
                    env = cd_envelope(D, S, t, x)
                    exact = Fraction(t * D) ** x * D * (Fraction(S, t ** x) + 2) + (t * D) ** x
                    assert type(env) is int and env == exact, (D, S, t, x)
                    bound = cd_palette_bound(D, S, t, x)
                    assert type(bound) is int and bound == _total_palette(D, S, t, x)
            for x in range(1, 4):
                assert type(refined_palette_bound(D, S, x)) is int
    assert cd_envelope(1, 16, 11, 3) == 4009
    for delta in range(0, 40):
        assert type(star_palette_bound(delta, 2)) is int
        for a in range(1, 6):
            for q in (2.5, 2.51, 3, 7.25):
                assert type(arb_palette_bound(delta, a, q)) is int
                assert type(little_o_palette_bound(delta, a, q)) is int
                assert type(powered_palette_bound(delta, a, q, 2)) is int


def _refined_ts(cover, x):
    """The refined family's part size per split level, from its level table."""
    ts, k = [], cover.S
    while len(ts) < x and cover.D >= 2 and k >= REFINED_SMALL_S:
        ts.append(choose_params(k, x - len(ts)))
        k = -(-k // ts[-1])
    return ts


def _wide_cover(kind, seed, size):
    # clique sizes around 16..40, so the refined family splits on one or
    # two levels
    if kind == "line":
        return gen_line_of(40, size, seed=seed)
    if kind == "hyper":
        return gen_hyper_line(size, 3, 8 * size, seed=seed)
    # two overlapping cliques of size at least 16: D = 2, S = their larger
    a, b = size, 16 + seed % 25
    lap = 1 + seed % 15
    cliques = [range(a), range(a - lap, a - lap + b)]
    g = Graph.from_edges(range(a - lap + b),
                         {(u, v) for q in cliques for u in q for v in q if u < v})
    return g, enumerate_maximal_cliques(g)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["line", "hyper", "intrinsic"]), st.integers(0, 1000),
       st.integers(16, 36), st.integers(1, 3))
def test_refined_is_cd_when_its_level_table_repeats_one_t(kind, seed, size, x):
    g, cover = _wide_cover(kind, seed, size)
    ts = _refined_ts(cover, x)
    assume(ts and len(set(ts)) == 1)
    col, report = refined_coloring(g, cover, x)
    cd_col, cd_report = cd_coloring(g, cover, ts[0], len(ts))
    assert col.assignment == cd_col.assignment
    assert col.palette_size == cd_col.palette_size <= refined_palette_bound(cover.D, cover.S, x)
    assert report.rounds == cd_report.rounds
    assert report.leaf_count() == cd_report.leaf_count()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["line", "hyper", "intrinsic"]), st.integers(0, 1000),
       st.integers(2, 4), st.integers(1, 3))
def test_declared_palette_is_the_product_of_the_level_palettes(kind, seed, t, x):
    g, cover = _cover(kind, seed)
    D, S = cover.D, cover.S
    assume(x in _within_cap([x], S))
    col, report = cd_coloring(g, cover, t, x)
    assert col.palette_size == cd_palette_bound(D, S, t, x)
    assert len(report.levels) == x
    col, report = refined_coloring(g, cover, x)
    ts = _refined_ts(cover, x)
    k, product = S, 1
    for t in ts:
        k = -(-k // t)
        product *= D * (t - 1) + 1
    assert col.palette_size == product * (D * (k - 1) + 1) <= refined_palette_bound(D, S, x)
    assert len(report.levels) == len(ts)
