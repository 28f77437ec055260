"""Golden outputs of the clique-decomposition vertex colorings.

Each entry pins the sha256 of the sorted assignment, the reported rounds,
the declared palette and the leaf count of CD-Coloring or the refined
family on one seeded graph with a provided cover.  Both graphs have
S >= 16, so the refined family recurses rather than coloring directly
(at x=3 on two levels).  A change meant to keep colorings identical must
leave every entry as it is.
"""

import hashlib

import pytest

from localcolor.cdcolor import cd_coloring, refined_coloring
from localcolor.io import gen_hyper_line, gen_line_of

GRAPHS = {
    "line_34": lambda: gen_line_of(40, 34, seed=3),          # D=2, S=34
    "hyper_35": lambda: gen_hyper_line(40, 3, 300, seed=4),  # D=3, S=35
}

ALGORITHMS = {
    "cd_t2_x1": lambda g, cover: cd_coloring(g, cover, 2, 1),
    "cd_t2_x2": lambda g, cover: cd_coloring(g, cover, 2, 2),
    "cd_t3_x1": lambda g, cover: cd_coloring(g, cover, 3, 1),
    "refined_x1": lambda g, cover: refined_coloring(g, cover, 1),
    "refined_x2": lambda g, cover: refined_coloring(g, cover, 2),
    "refined_x3": lambda g, cover: refined_coloring(g, cover, 3),
}

# (graph, algorithm) -> (sha256 of sorted assignment, rounds, palette, leaf_count).
# On both graphs refined_x2 splits once with t = 3 and refined_x3 twice with
# t = 2, so they build the level tables of cd_t3_x1 and cd_t2_x2 and agree
# with them entry for entry.
GOLDEN = {
    ("line_34", "cd_t2_x1"): ("afcf554447d0e26e905ca6f7a6f67ab4a916ed5431d5317d3a7a20061a5325f0", 507, 99, 3),
    ("line_34", "cd_t2_x2"): ("dbad213ca2e74d88ca7a92c017d6310cdff381b3b9d18583861e3d70c9b39678", 541, 153, 9),
    ("line_34", "cd_t3_x1"): ("802b3adce62eacc8f44bb365c0fdea9e4804e2ba9168f58a2a3b0a5cef0d2eea", 606, 115, 5),
    ("line_34", "refined_x1"): ("aea73126d73337cc6823cae0fde4c1836feb8c761f4f3a01e6930325ecbf016f", 775, 117, 9),
    ("line_34", "refined_x2"): ("802b3adce62eacc8f44bb365c0fdea9e4804e2ba9168f58a2a3b0a5cef0d2eea", 606, 115, 5),
    ("line_34", "refined_x3"): ("dbad213ca2e74d88ca7a92c017d6310cdff381b3b9d18583861e3d70c9b39678", 541, 153, 9),
    ("hyper_35", "cd_t2_x1"): ("12ae49d354a0c1f25f38ba1a1313825cd8af86c0a9d6bd230bac714442e346c4", 331, 208, 4),
    ("hyper_35", "cd_t2_x2"): ("0f1b14fe6d5fe9d4dff9b3e66ff612a7d86196ba60f2c1ae07b8eaff69557def", 380, 400, 16),
    ("hyper_35", "cd_t3_x1"): ("7e83525c5582b73bbbe550bbdae7128212c3d52645f0bbb0b2e3a4ee2d6f2922", 444, 238, 7),
    ("hyper_35", "refined_x1"): ("75808b126665c9ecda0e9551d0ee6cad66cce09951969c53578866154169d692", 572, 247, 13),
    ("hyper_35", "refined_x2"): ("7e83525c5582b73bbbe550bbdae7128212c3d52645f0bbb0b2e3a4ee2d6f2922", 444, 238, 7),
    ("hyper_35", "refined_x3"): ("0f1b14fe6d5fe9d4dff9b3e66ff612a7d86196ba60f2c1ae07b8eaff69557def", 380, 400, 16),
}


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_vertex_colorings_match_golden(graph_name):
    g, cover = GRAPHS[graph_name]()
    for algo, run in ALGORITHMS.items():
        col, report = run(g, cover)
        digest = hashlib.sha256(repr(sorted(col.assignment.items())).encode()).hexdigest()
        assert (digest, report.rounds, col.palette_size, report.leaf_count()) == \
            GOLDEN[(graph_name, algo)], algo
