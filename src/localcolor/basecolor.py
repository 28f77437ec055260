"""Deterministic base colorings: iterated cover-free-family recoloring in
the style of Linial, basic color reduction, and their (Delta+1) composition.

The cover-free step encodes each color as a polynomial of degree <= k over
a prime field F_q with q > k*Delta.  A vertex's candidate set
{(x, p(x)) : x in F_q} meets each neighbor's set in at most k points, so
some candidate avoids all Delta neighbors and becomes the new color in
[q^2].  Iterating shrinks the palette to its fixpoint, which is at most
(the first prime above 2*Delta)^2 < 16*Delta^2.
"""

from __future__ import annotations

import math

from .graph import Coloring, Graph, GraphError, VerificationError
from .sim import Done, RoundTrace, Sleep, VertexProgram, run
from .verify import is_proper_edge, is_proper_vertex

# palette factor guaranteed by the construction ((2Delta)^2 with Bertrand slack)
LINIAL_CL = 16


def _int_floor_root(m: int, r: int) -> int:
    """Largest x with x**r <= m (m >= 0), by integer Newton steps down
    from a power of two above the root, so it is exact for any m."""
    if m <= 1:
        return m
    x = 1 << -(-m.bit_length() // r)
    while True:
        y = ((r - 1) * x + m // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _int_ceil_root(m: int, r: int) -> int:
    """Smallest x >= 0 with x**r >= m."""
    if m <= 1:
        return max(m, 0)
    x = _int_floor_root(m, r)
    return x if x ** r == m else x + 1


def _next_prime(n: int) -> int:
    """Smallest prime above ``n``, by trial division: the numbers asked
    for stay near k*Delta or sqrt(m0)."""
    p = n + 1
    while p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def linial_schedule(m0: int, delta: int) -> list[tuple[int, int]]:
    """The globally agreed (k, q) recoloring steps from palette m0 down to
    the fixpoint.  Every vertex derives the same schedule from (m0, delta)."""
    steps = []
    m = m0
    while True:
        best = None
        kmax = max(1, int(math.log2(max(m, 2))) + 1)
        # q > root, and root only grows as k falls: from the first k whose
        # root reaches the best q on, no k can win, so no prime is sought
        for k in range(kmax, 0, -1):
            root = _int_ceil_root(m, k + 1) - 1
            if best is not None and root >= best[1]:
                break
            q = _next_prime(max(k * delta, root))
            if best is None or q <= best[1]:  # a tie goes to the smaller k
                best = (k, q)
        k, q = best
        if q * q >= m:
            return steps
        steps.append((k, q))
        m = q * q


def _first_free(mine: int, theirs, q: int, k: int) -> int:
    """The new color x*q + p(x) of a vertex colored ``mine`` whose
    neighbors hold the colors ``theirs``, for the least x in F_q at which
    no neighbor's polynomial takes the value p(x).  A color's polynomial
    has its k+1 lowest base-q digits as coefficients, lowest first, and is
    evaluated straight from the integer."""
    y = mine % q  # p(0) is the lowest digit
    for c in theirs:
        if c % q == y:
            break
    else:
        return y
    for x in range(1, q):
        y, c, power = 0, mine, 1
        for _ in range(k + 1):
            y += c % q * power
            c //= q
            power = power * x % q
        y %= q
        for c in theirs:
            z, power = 0, 1
            for _ in range(k + 1):
                z += c % q * power
                c //= q
                power = power * x % q
            if z % q == y:
                break
        else:
            return x * q + y
    # q > k*Delta guarantees a free candidate
    raise GraphError("cover-free family exhausted")


class _LinialProgram(VertexProgram):
    """One schedule step per round.  The initial colors are the IDs, so
    round 1 reads the neighbors' colors from their IDs and nothing is sent
    at init; a KT0 vertex would learn those IDs in round 1, when they are
    first used, so the round count is the same.  Later rounds read the
    colors that every neighbor sent in the round before."""

    def __init__(self, vertex: int, schedule: list[tuple[int, int]]):
        self.schedule = schedule
        self.output = vertex  # the vertex's current color

    def init(self, neighbors: tuple[int, ...]):
        self.neighbors = neighbors
        return {}, not self.schedule

    def step(self, round_no: int, inbox: dict):
        k, q = self.schedule[round_no - 1]
        theirs = self.neighbors if round_no == 1 else inbox.values()
        self.output = _first_free(self.output, theirs, q, k)
        if round_no == len(self.schedule):
            return {}, True
        return dict.fromkeys(self.neighbors, self.output), False


def linial_coloring(g: Graph) -> tuple[Coloring, RoundTrace]:
    """Proper coloring with palette below LINIAL_CL * Delta^2 (Delta >= 1)
    in one recoloring round per schedule step."""
    col, trace = _linial(g)
    _require_proper(g, col, "linial_coloring output")
    return col, trace


def _linial(g: Graph) -> tuple[Coloring, RoundTrace]:
    """linial_coloring without its output check."""
    if g.n == 0:
        return Coloring("vertex", {}, 1), RoundTrace()
    lowest = min(g.adj)
    if lowest < 0:  # IDs are the initial colors
        raise GraphError(f"vertex {lowest} has negative label {lowest}; Linial's "
                         f"initial colors must be at least 0")
    m0 = max(g.adj) + 1
    delta = g.max_degree
    schedule = linial_schedule(m0, delta)
    outputs, trace = run(g, lambda v: _LinialProgram(v, schedule),
                         round_cap=len(schedule) + 1)
    final = m0 if not schedule else schedule[-1][1] ** 2
    return Coloring("vertex", outputs, final), trace


def _require_proper(g: Graph, col: Coloring, what: str) -> None:
    """Raise VerificationError unless ``col`` is a proper vertex or edge
    coloring of ``g``; a real check, unlike an assert, survives
    ``python -O``."""
    check = is_proper_vertex if col.kind == "vertex" else is_proper_edge
    verdict = check(g, col)
    if not verdict.ok:
        raise VerificationError(f"{what} improper: {verdict.violations[:3]}")


class _ReduceProgram(VertexProgram):
    """Color class ``palette - r`` recolors in round r, and each vertex is
    stepped at most once.  Only colors below the target can block a choice,
    so a vertex colored below it announces its color at init and is done.
    Any other vertex sleeps until its turn and recolors from the one inbox
    it is then handed: the held mail holds the initial announcements and
    every earlier turn's new color.  It sends its new color to the
    neighbors it has not heard from, which are exactly those whose turn is
    still to come, and is done.  Every vertex asks the run to last until
    the last turn, ``done``, one instance shared by the run, so the round
    count is fixed.  An edge thus carries 2 messages if both ends start
    below the target, else 1."""

    def __init__(self, palette: int, target: int, color: int, done: Done):
        self.target = target
        self.turn = palette - color
        self.output = color
        self.done = done

    def init(self, neighbors: tuple[int, ...]):
        if self.output < self.target:
            return dict.fromkeys(neighbors, self.output), self.done
        self.neighbors = neighbors
        return {}, Sleep(self.turn)

    def step(self, round_no: int, inbox: dict):
        used = set(inbox.values())
        self.output = next(c for c in range(self.target) if c not in used)
        outbox = {w: self.output for w in self.neighbors if w not in inbox}
        return outbox, True if round_no == self.done.until else self.done


def reduce_colors(g: Graph, c: Coloring) -> tuple[Coloring, RoundTrace]:
    """Basic color reduction: from palette Delta+r down to the target
    Delta+1 in exactly r rounds, one top color class recolored greedily
    per round."""
    if c.kind != "vertex":
        raise GraphError("reduce_colors expects a vertex coloring")
    _require_proper(g, c, "input coloring")
    target = g.max_degree + 1
    if target >= c.palette_size:
        return Coloring(c.kind, dict(c.assignment), c.palette_size), RoundTrace()

    done = Done(c.palette_size - target)

    def make(v):
        return _ReduceProgram(c.palette_size, target, c.assignment[v], done)

    outputs, trace = run(g, make, round_cap=done.until + 1)
    out = Coloring("vertex", outputs, target)
    _require_proper(g, out, "reduce_colors output")
    return out, trace


def delta_plus_one(g: Graph) -> tuple[Coloring, RoundTrace]:
    """Proper vertex coloring with palette exactly Delta+1 (Linial followed
    by basic reduction).  The reduction's input check is the one check of
    Linial's output."""
    base, trace = _linial(g)
    reduced, t2 = reduce_colors(g, base)
    trace.extend(t2, "reduce:")
    return reduced, trace
