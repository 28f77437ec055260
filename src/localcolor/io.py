"""Graph loading and benchmark generators.

Formats: plain edge lists (whitespace-separated integer pairs, '#'
comments), DIMACS 'p edge' files, and hypergraphs as one hyperedge per
line.  Generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import islice

from .graph import (Graph, GraphError, _freeze, _gc_paused, hypergraph_line_graph, line_graph,
                    norm_edge)


class ParseError(GraphError):
    pass


def _tokens(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


@_gc_paused
def load_edgelist(path) -> Graph:
    edges = set()
    adj: dict[int, list[int]] = {}
    for lineno, toks in _tokens(path):
        if len(toks) != 2:
            raise ParseError(f"{path}:{lineno}: expected two vertex ids, got {toks}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer vertex id") from None
        if u < 0 or v < 0:
            raise ParseError(f"{path}:{lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"{path}:{lineno}: self-loop {u}")
        e = norm_edge(u, v)
        if e in edges:
            raise ParseError(f"{path}:{lineno}: duplicate edge {e}")
        edges.add(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return _freeze(adj)


@_gc_paused
def load_dimacs(path) -> Graph:
    n = m = None
    edges = set()
    adj: dict[int, list[int]] = {}
    for lineno, toks in _tokens(path):
        if toks[0] == "c":
            continue
        if toks[0] == "p":
            if n is not None:
                raise ParseError(f"{path}:{lineno}: second problem line")
            if len(toks) != 4 or toks[1] != "edge" or not all(map(str.isdecimal, toks[2:])):
                raise ParseError(f"{path}:{lineno}: bad problem line {toks}")
            n, m = int(toks[2]), int(toks[3])
            adj = {v: [] for v in range(1, n + 1)}
        elif toks[0] == "e":
            if n is None:
                raise ParseError(f"{path}:{lineno}: edge before problem line")
            try:
                _, u, v = toks
                u, v = int(u), int(v)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: expected 'e u v', got {toks}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"{path}:{lineno}: vertex out of range")
            if u == v:
                raise ParseError(f"{path}:{lineno}: self-loop {u}")
            e = norm_edge(u, v)
            if e in edges:
                raise ParseError(f"{path}:{lineno}: duplicate edge {e}")
            edges.add(e)
            adj[u].append(v)
            adj[v].append(u)
        else:
            raise ParseError(f"{path}:{lineno}: unknown record {toks[0]!r}")
    if n is None:
        raise ParseError(f"{path}: missing problem line")
    if m is not None and m != len(edges):
        raise ParseError(f"{path}: header says {m} edges, found {len(edges)}")
    return _freeze(adj)


def load_hypergraph(path) -> list[tuple[int, ...]]:
    hyperedges = []
    for lineno, toks in _tokens(path):
        try:
            he = tuple(map(int, toks))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer vertex id") from None
        if min(he) < 0:
            raise ParseError(f"{path}:{lineno}: negative vertex id")
        if len(set(he)) != len(he):
            raise ParseError(f"{path}:{lineno}: repeated vertex in hyperedge")
        hyperedges.append(he)
    return hyperedges


def load_graph(path, fmt: str = "edgelist"):
    if fmt == "edgelist":
        return load_edgelist(path)
    if fmt == "dimacs":
        return load_dimacs(path)
    if fmt == "hyper":
        return load_hypergraph(path)
    raise ParseError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# generators

def _size(k: int, name: str = "n") -> int:
    if k < 0:
        raise GraphError(f"need {name} >= 0, got {name}={k}")
    return k


@_gc_paused
def gen_path(n) -> Graph:
    ids = list(range(_size(n)))  # one int object per vertex, shared by every list
    adj = {v: [u, w] for u, v, w in zip(ids, ids[1:], ids[2:])}
    if n > 1:
        adj[ids[0]], adj[ids[-1]] = [ids[1]], [ids[-2]]
    elif n == 1:
        adj[0] = []
    return _freeze(adj)


def gen_complete(n) -> Graph:
    return _freeze({i: [*range(i), *range(i + 1, n)] for i in range(_size(n))})


def gen_star(n) -> Graph:
    """Star K_{1,n-1} with the center as the highest ID."""
    hub = _size(n) - 1
    adj = {i: [hub] for i in range(hub)}
    if n > 0:
        adj[hub] = list(range(hub))
    return _freeze(adj)


def gen_matching(k) -> Graph:
    return _freeze({v: [v ^ 1] for v in range(2 * _size(k, "k"))})  # 2i <-> 2i+1


@_gc_paused
def gen_grid(rows, cols) -> Graph:
    # appended row by row, every list is in order before _freeze sorts it
    rows, cols = _size(rows, "rows"), _size(cols, "cols")
    ids = list(range(rows * cols))  # one int object per vertex, shared by every list
    adj = {v: [] for v in ids}
    for i in range(rows):
        end = (i + 1) * cols
        for v in range(i * cols, end):
            if v + 1 < end:
                adj[v].append(ids[v + 1])
                adj[v + 1].append(ids[v])
            if i + 1 < rows:
                adj[v].append(ids[v + cols])
                adj[v + cols].append(ids[v])
    return _freeze(adj)


@_gc_paused
def gen_forest(n, delta, seed=0) -> Graph:
    """Random forest hitting max degree exactly delta (needs n > delta)."""
    if n <= delta:
        raise GraphError(f"need n > delta to realize degree {delta}")
    if delta < min(n - 1, 2):  # a tree on n >= 3 vertices has a degree-2 vertex
        raise GraphError(f"no tree on n={n} vertices has max degree delta={delta}")
    rng = random.Random(seed)
    ids = list(range(n))  # one int object per vertex, shared by every list
    adj: dict[int, list[int]] = {v: [] for v in ids}
    unsaturated = [0]  # ascending: the u < v with deg(u) < delta
    for v in ids[1:]:
        if len(adj[0]) < delta:
            u = 0  # saturate one hub so the advertised Delta is exact
        else:
            u = rng.choice(unsaturated)
        adj[u].append(v)
        adj[v].append(u)
        if len(adj[u]) == delta:
            del unsaturated[bisect_left(unsaturated, u)]
        if len(adj[v]) < delta:
            unsaturated.append(v)
    return _freeze(adj)


def _pairs(rng, n):
    """Endless ``rng.sample(range(n), 2)`` draws (n >= 2), made from the
    same ``getrandbits`` calls as CPython's ``sample`` for a range and
    k = 2, without its per-call set-up.  ``randbelow(m)`` there draws
    ``m.bit_length()`` bits until the result is below m."""
    bits = rng.getrandbits
    k = n.bit_length()
    if n <= 21:  # sample's pool branch: slot u now holds n-1
        k1 = (n - 1).bit_length()
        while True:
            u = bits(k)
            while u >= n:
                u = bits(k)
            j = bits(k1)
            while j >= n - 1:
                j = bits(k1)
            yield u, (n - 1 if j == u else j)
    while True:  # its set branch: redraw v until it differs from u
        u = bits(k)
        while u >= n:
            u = bits(k)
        v = bits(k)
        while v >= n or v == u:
            v = bits(k)
        yield u, v


@_gc_paused
def gen_random(n, delta, seed=0) -> Graph:
    """Random graph with max degree exactly delta."""
    if n < 2:
        raise GraphError(f"need n >= 2 for a random graph, got n={n}")
    if not 0 <= delta < n:
        raise GraphError(f"need 0 <= delta < n, got delta={delta}, n={n}")
    rng = random.Random(seed)
    ids = list(range(n))  # one int object per vertex, shared by every list
    adj: dict[int, list[int]] = {v: [] for v in ids}
    edges = set()  # u * n + v for each accepted edge u < v
    # saturate vertex 0 first so the target Delta is attained
    for v in rng.sample(range(1, n), delta):
        edges.add(v)
        adj[0].append(ids[v])
        adj[v].append(0)
    for u, v in islice(_pairs(rng, n), 20 * n):
        nu, nv = adj[u], adj[v]
        if len(nu) >= delta or len(nv) >= delta:
            continue
        e = u * n + v if u < v else v * n + u
        if e in edges:
            continue
        edges.add(e)
        nu.append(ids[v])
        nv.append(ids[u])
    g = _freeze(adj)
    if g.max_degree != delta:  # vertex 0 is saturated first, so never
        raise GraphError(f"generated max degree {g.max_degree}, wanted {delta}")
    return g


def gen_line_of(n, delta, seed=0):
    """Line graph of a random graph, with its star cover (D = 2)."""
    base = gen_random(n, delta, seed)
    return line_graph(base)


def gen_hyper_line(n, rank, edge_count, seed=0):
    """Line graph of a random linear-ish rank-uniform hypergraph (D = rank)."""
    rng = random.Random(seed)
    hyperedges = []
    seen = set()
    for _ in range(20 * edge_count):
        if len(hyperedges) == edge_count:
            break
        he = frozenset(rng.sample(range(n), rank))
        if he in seen:
            continue
        seen.add(he)
        hyperedges.append(sorted(he))
    return hypergraph_line_graph(hyperedges)


GENERATORS = {
    "path": lambda params, seed: gen_path(int(params["n"])),
    "complete": lambda params, seed: gen_complete(int(params["n"])),
    "star": lambda params, seed: gen_star(int(params["n"])),
    "matching": lambda params, seed: gen_matching(int(params["n"])),
    "grid": lambda params, seed: gen_grid(int(params["rows"]), int(params["cols"])),
    "forest": lambda params, seed: gen_forest(int(params["n"]), int(params["delta"]), seed),
    "random": lambda params, seed: gen_random(int(params["n"]), int(params["delta"]), seed),
}
