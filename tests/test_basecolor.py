import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from localcolor import basecolor
from localcolor.basecolor import (LINIAL_CL, delta_plus_one, linial_coloring,
                                  linial_schedule, reduce_colors)
from localcolor.graph import Coloring, Graph, GraphError
from localcolor.io import gen_grid, gen_path, gen_random
from localcolor.verify import is_proper_vertex
from helpers import cycle, relabel


def test_linial_on_path():
    g = gen_path(200)
    col, trace = linial_coloring(g)
    assert is_proper_vertex(g, col).ok
    assert col.palette_size <= LINIAL_CL * g.max_degree ** 2


def test_linial_rejects_negative_labels():
    # labels are the initial colors, so a label below 0 has no place in
    # any palette; the vertex is named instead of coloring out of range
    g = Graph.from_edges(range(-5, 6), [(i, i + 1) for i in range(-5, 5)])
    with pytest.raises(GraphError, match="vertex -5 has negative label -5"):
        linial_coloring(g)
    with pytest.raises(GraphError, match="negative label"):
        delta_plus_one(g)


def test_linial_schedule_shrinks():
    steps = linial_schedule(10 ** 6, 2)
    sizes = [10 ** 6] + [q * q for _, q in steps]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= LINIAL_CL * 4


def test_reduce_colors_round_count_exact():
    g = cycle(4)
    col = Coloring("vertex", {0: 0, 1: 1, 2: 0, 3: 3}, 4)
    out, trace = reduce_colors(g, col)  # target Delta+1 = 3
    assert out.palette_size == 3
    assert trace.rounds == 4 - 3
    assert is_proper_vertex(g, out).ok


def _record_messages(monkeypatch):
    """Patch ``basecolor.run`` so that every program logs what it sends:
    one (round, sender, recipients) entry per init (round 0) and per step."""
    log = []
    real_run = basecolor.run

    def recording_run(g, make_program, *args, **kwargs):
        def make(v):
            prog = make_program(v)
            init, step = prog.init, prog.step

            def logged_init(neighbors):
                out, halted = init(neighbors)
                log.append((0, v, tuple(out)))
                return out, halted

            def logged_step(round_no, inbox):
                out, halted = step(round_no, inbox)
                log.append((round_no, v, tuple(out)))
                return out, halted

            prog.init, prog.step = logged_init, logged_step
            return prog
        return real_run(g, make, *args, **kwargs)

    monkeypatch.setattr(basecolor, "run", recording_run)
    return log


def test_reduce_colors_steps_only_due_vertices(monkeypatch):
    log = _record_messages(monkeypatch)
    g = gen_random(200, 10, seed=3)
    ids = Coloring("vertex", {v: v for v in g.adj}, g.n)
    out, trace = reduce_colors(g, ids)
    target = g.max_degree + 1
    assert trace.rounds == g.n - target
    assert is_proper_vertex(g, out).ok
    steps = [(r, v, to) for r, v, to in log if r > 0]
    # each vertex colored at or above the target is stepped once, at its
    # turn (round g.n - v), and no other vertex is stepped
    assert [(r, v) for r, v, _ in steps] == sorted((g.n - v, v) for v in g.adj if v >= target)
    # only colors below the target are announced at init, to every neighbor
    for r, v, to in log:
        if r == 0:
            assert to == (g.adj[v] if v < target else ())
    # a new color goes only to neighbors whose turn (round g.n - w) is to come
    for r, v, to in steps:
        assert all(w >= target and g.n - w > r for w in to)
    # an edge carries 2 messages if both ends start below the target, else 1
    expected = (sum(len(g.adj[v]) for v in g.adj if v < target)
                + sum(1 for u, v in g.edges() if u >= target and v >= target))
    assert sum(len(to) for _, _, to in log) == expected


@pytest.mark.parametrize("g, steps", [(relabel(gen_path(3000), 1), 2),
                                      (relabel(gen_grid(30, 30), 2), 1)])
def test_linial_sends_nothing_at_init(monkeypatch, g, steps):
    # round 1 reads the neighbors' IDs, their initial colors, from init's neighbors
    log = _record_messages(monkeypatch)
    _, trace = linial_coloring(g)
    schedule = linial_schedule(g.n, g.max_degree)
    assert len(schedule) == steps
    assert trace.rounds == len(schedule)
    assert sum(len(to) for r, _, to in log if r == 0) == 0
    assert sum(1 for r, _, _ in log if r > 0) == len(schedule) * g.n
    # every vertex tells every neighbor its color after each non-final round
    assert sum(len(to) for _, _, to in log) == (len(schedule) - 1) * 2 * g.m


def test_reduce_rejects_improper_input():
    g = cycle(4)
    bad = Coloring("vertex", {0: 1, 1: 1, 2: 0, 3: 2}, 3)
    with pytest.raises(GraphError):
        reduce_colors(g, bad)


def test_reduce_noop_when_target_covers_palette():
    g = cycle(4)
    col = Coloring("vertex", {0: 0, 1: 1, 2: 0, 3: 2}, 3)
    out, trace = reduce_colors(g, col)  # palette 3 is already Delta+1
    assert out.assignment == col.assignment
    assert trace.rounds == 0


def test_delta_plus_one_palette():
    g = gen_random(60, 7, seed=2)
    col, trace = delta_plus_one(g)
    assert col.palette_size == g.max_degree + 1
    assert is_proper_vertex(g, col).ok


def test_log_star_trend_on_paths():
    rounds = []
    for n in (2 ** 4, 2 ** 10, 2 ** 16):
        col, trace = linial_coloring(gen_path(n))
        assert is_proper_vertex(gen_path(n), col).ok
        rounds.append(trace.rounds)
    # log* growth: going from 16 to 65536 vertices adds only a step or two
    assert rounds[2] - rounds[0] <= 2


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 9))
def test_delta_plus_one_property(seed, delta):
    g = gen_random(3 * delta + 6, delta, seed=seed)
    col, _ = delta_plus_one(g)
    assert col.palette_size == delta + 1
    assert is_proper_vertex(g, col).ok


def test_next_prime_matches_a_sieve():
    n_max = 10 ** 5
    size = n_max + 100  # holds the first prime above n_max - 1
    sieve = bytearray([1]) * size
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, size, p)))
    expected = [0] * n_max
    above = next(p for p in range(n_max, size) if sieve[p])
    for n in range(n_max - 1, -1, -1):
        expected[n] = above
        if sieve[n]:
            above = n
    assert [basecolor._next_prime(n) for n in range(n_max)] == expected
    assert basecolor._next_prime(-5) == 2


def float_ceil_root(m, r):
    """The float-seeded _int_ceil_root that integer Newton steps replaced;
    exact while m converts to a float."""
    if m <= 1:
        return max(m, 0)
    x = int(round(m ** (1.0 / r)))
    while x ** r >= m:
        x -= 1
    while x ** r < m:
        x += 1
    return x


def reference_linial_schedule(m0, delta):
    """The schedule search that tried every k from 1 up, seeking a prime
    for each, kept as the reference for the pruned search."""
    steps = []
    m = m0
    while True:
        best = None
        kmax = max(1, int(math.log2(max(m, 2))) + 1)
        for k in range(1, kmax + 1):
            q = basecolor._next_prime(max(k * delta, float_ceil_root(m, k + 1) - 1))
            if q ** (k + 1) < m:
                q = basecolor._next_prime(q)
            if best is None or q * q < best[1] ** 2:
                best = (k, q)
        k, q = best
        if q * q >= m:
            return steps
        steps.append((k, q))
        m = q * q


def test_int_roots_match_the_float_seeded_reference():
    rng = random.Random(3)
    ms = list(range(300)) + [rng.getrandbits(b) for b in range(1, 64) for _ in range(8)]
    for m in ms:
        for r in range(1, 10):
            c = basecolor._int_ceil_root(m, r)
            assert c == float_ceil_root(m, r)
            assert basecolor._int_floor_root(m, r) == c - (c ** r != m)


@pytest.mark.parametrize("m", [10 ** 400, 10 ** 400 + 1, 7 ** 500 - 1, 2 ** 1500],
                         ids=["10**400", "10**400+1", "7**500-1", "2**1500"])
def test_int_roots_are_exact_past_the_float_range(m):
    for r in (1, 2, 3, 7, 64, 999):
        c = basecolor._int_ceil_root(m, r)
        f = basecolor._int_floor_root(m, r)
        assert c ** r >= m > (c - 1) ** r
        assert f ** r <= m < (f + 1) ** r


def test_linial_schedule_matches_the_unpruned_reference():
    rng = random.Random(8)
    cases = [(m0, delta) for m0 in range(1, 200) for delta in (0, 1, 2, 9, 64)]
    cases += [(rng.randrange(1, 2 ** rng.randrange(1, 41)), rng.randrange(65))
              for _ in range(400)]
    cases += [(2 ** 40, 1), (2 ** 40, 64), (3 ** 25, 7)]
    for m0, delta in cases:
        assert linial_schedule(m0, delta) == reference_linial_schedule(m0, delta)


@pytest.mark.parametrize("m0", [10 ** 36 + 1, 10 ** 400 + 1], ids=["10**36+1", "10**400+1"])
@pytest.mark.parametrize("delta", [1, 2, 64])
def test_linial_schedule_of_huge_palettes_is_fast(m0, delta):
    # no prime near the square root of m0 is sought: k = 1 cannot win
    start = time.perf_counter()
    steps = linial_schedule(m0, delta)
    assert time.perf_counter() - start < 1
    sizes = [m0] + [q * q for _, q in steps]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert all(q > k * delta for k, q in steps)
    assert sizes[-1] <= LINIAL_CL * max(delta, 1) ** 2


def reference_first_free(mine, theirs, q, k):
    """The cover-free step as written in the construction: each color's
    k+1 lowest base-q digits are its polynomial's coefficients, and the
    new color is x*q + p(x) for the least x where no neighbor agrees."""
    def digits(c):
        ds = []
        for _ in range(k + 1):
            ds.append(c % q)
            c //= q
        return ds

    def evaluate(ds, x):
        acc = 0
        for d in reversed(ds):
            acc = (acc * x + d) % q
        return acc

    theirs = [digits(c) for c in theirs]
    for x in range(q):
        y = evaluate(digits(mine), x)
        if all(evaluate(ds, x) != y for ds in theirs):
            return x * q + y
    return None


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 4))
def test_first_free_matches_the_digit_reference(data, q, k):
    palette = st.integers(0, q ** (k + 1) - 1)
    mine = data.draw(palette)
    theirs = data.draw(st.lists(palette.filter(lambda c: c != mine), max_size=2 * q))
    expected = reference_first_free(mine, theirs, q, k)
    if expected is None:
        with pytest.raises(GraphError, match="exhausted"):
            basecolor._first_free(mine, theirs, q, k)
    else:
        assert basecolor._first_free(mine, theirs, q, k) == expected


def test_exhausted_cover_free_family_raises():
    # with q = k*Delta the guarantee fails: over F_3, color 0 is the zero
    # polynomial and 3 = t, 4 = t+1, 5 = t+2 vanish at x = 0, 2, 1
    assert reference_first_free(0, [3, 4, 5], 3, 1) is None
    with pytest.raises(GraphError, match="cover-free family exhausted"):
        basecolor._first_free(0, [3, 4, 5], 3, 1)
    assert basecolor._first_free(0, [3, 4], 3, 1) == 1 * 3 + 0  # free at x = 1
