"""Golden outputs of Linial's cover-free-family recoloring.

Each entry pins the sha256 of the sorted assignment, the rounds and the
palette of ``linial_coloring`` on one seeded graph whose vertex IDs are
shuffled, so that neighbors' colors share no pattern.  Every graph has a
schedule of at least one step, three have two, and on every one many
vertices find their first candidate (x = 0) taken and fall back to a
later x.  A change meant to keep colorings identical must leave every
entry as it is.
"""

import hashlib
import random

import pytest

from localcolor.basecolor import linial_coloring, linial_schedule
from localcolor.graph import Graph
from localcolor.io import gen_grid, gen_path, gen_random


def relabel(g: Graph, seed: int) -> Graph:
    """The same graph with vertex IDs permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(range(g.n), [(perm[u], perm[v]) for u, v in g.edges()])


GRAPHS = {
    "path_2000": lambda: relabel(gen_path(2000), 1),
    "path_20000": lambda: relabel(gen_path(20000), 2),
    "grid_60x60": lambda: relabel(gen_grid(60, 60), 3),
    "random_3000_8": lambda: relabel(gen_random(3000, 8, seed=4), 5),
}

# graph -> (schedule, sha256 of sorted assignment, rounds, palette)
GOLDEN = {
    "path_2000": ([(3, 7), (2, 5)],
                  "0cf24356d82ce97f61e613fa5abb817c9bac5db58700919dfc115cd42ccf8ea2", 2, 25),
    "path_20000": ([(4, 11), (2, 5)],
                   "4b8e84250115755fdf31cfe67ec8aa686baa8b7d1bd4f3a530d59babcf6a22f0", 2, 25),
    "grid_60x60": ([(3, 13), (2, 11)],
                   "bb2a6aac837df1b368c092a056dec7d04f32fc4bb4c1fbac1a81521a599ae2ef", 2, 121),
    "random_3000_8": ([(2, 17)],
                      "da8f190559e34e44fc495b075e2cda09b805463b2d9f2a74484f8ae1e438e884", 1, 289),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_linial_coloring_matches_golden(name):
    g = GRAPHS[name]()
    col, trace = linial_coloring(g)
    digest = hashlib.sha256(repr(sorted(col.assignment.items())).encode()).hexdigest()
    schedule = linial_schedule(g.n, g.max_degree)
    assert (schedule, digest, trace.rounds, col.palette_size) == GOLDEN[name]
