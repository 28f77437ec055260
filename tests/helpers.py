"""Shared graph fixtures for the test suite."""

import random

from localcolor.graph import Graph
from localcolor.io import gen_complete, gen_forest, gen_grid, gen_hyper_line, gen_line_of, gen_path, gen_random


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(range(10), outer + inner + spokes)


def relabel(g, seed):
    """The same graph with vertex IDs permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(range(g.n), [(perm[u], perm[v]) for u, v in g.edges()])


def cycle(n):
    return Graph.from_edges(range(n), [(i, (i + 1) % n) for i in range(n)])


def corpus():
    """The ~100-graph acceptance corpus; (name, graph, cover-or-None, a)."""
    graphs = []
    deltas = [4, 7, 10, 13, 16, 20, 24, 28, 32]
    for i, delta in enumerate(deltas * 5):
        g = gen_random(2 * delta + 12, delta, seed=i)
        graphs.append((f"random-d{delta}-{i}", g, None, None))
    for i in range(12):
        g = gen_forest(40 + 5 * i, 3 + i, seed=i)
        graphs.append((f"forest-{i}", g, None, 1))
    for r, c in [(2, 2), (2, 5), (3, 3), (3, 7), (4, 4), (5, 5), (4, 9), (6, 6)]:
        graphs.append((f"grid-{r}x{c}", gen_grid(r, c), None, 2))
    for n in range(2, 13):
        graphs.append((f"K{n}", gen_complete(n), None, (n + 1) // 2))
    for i in range(12):
        g, cover = gen_line_of(14 + 2 * i, 5 + i // 2, seed=i)
        graphs.append((f"line-{i}", g, cover, None))
    for i in range(12):
        g, cover = gen_hyper_line(12 + i, 3, 10 + 2 * i, seed=i)
        graphs.append((f"hyperline-{i}", g, cover, None))
    return graphs
