"""Golden outputs of the edge-coloring algorithms.

Each entry pins the sha256 of the sorted assignment, the reported rounds,
the declared palette and the phase breakdown of one algorithm on one
seeded graph; a star-partition entry also pins the report's class count
and largest top-level star.  A change that is meant to keep colorings
identical (a faster kernel, leaner class subgraphs) must leave every entry
as it is.
"""

import hashlib

import pytest

from localcolor import arbedge, staredge
from localcolor.io import gen_forest, gen_random

Q = arbedge.DEFAULT_Q

GRAPHS = {
    "random_9": lambda: gen_random(120, 9, seed=1),
    "random_16": lambda: gen_random(150, 16, seed=2),
    "random_27": lambda: gen_random(200, 27, seed=3),
    "forest_40": lambda: gen_forest(300, 40, seed=4),
}

ALGORITHMS = {
    "star_4delta": lambda g, a: staredge.star_edge_coloring_4delta(g),
    "recursive_x2": lambda g, a: staredge.recursive_star_edge_coloring(g, 2),
    "arb": lambda g, a: arbedge.arb_edge_coloring(g, a, Q),
    "little_o": lambda g, a: arbedge.delta_plus_little_o(g, a, Q),
    "powered_x2": lambda g, a: arbedge.powered_edge_coloring(g, a, Q, 2),
}

# (graph, algorithm) -> (sha256 of sorted assignment, rounds, palette,
#                        phases[, class_count, max_star])
GOLDEN = {
    ("random_9", "star_4delta"): ("dd855636f078f7327d944f27bccfe84106ceea3a3c713cd2e16ace66b6926029", 0, 25, [], 5, 3),
    ("random_9", "recursive_x2"): ("87915cbff81560a65fa8d4bd6ebe6af78aaefd1e4a25d98be339826f61503534", 0, 45, [], 3, 5),
    ("random_9", "arb"): ("c229a8db4740cda2fbe7f5ca74a21c4abdd9bc978fb2a471cf2188d5757ac015", 0, 58, [("hset-internal", 0), ("merge-sweep", 0)]),
    ("random_9", "little_o"): ("025950f35bd7e38b3985aa2caa93969fbfcdc9d0cb3d8248d67c39d795c11446", 0, 3136, [("phi:hset-internal", 0), ("phi:merge-sweep", 0), ("psi-classes", 0)]),
    ("random_9", "powered_x2"): ("c57c04a488488f1749d326a349f76a736cd2e97fafff3c855929b0b539975ca6", 0, 48, []),
    ("random_16", "star_4delta"): ("198f6b03ea5e13946acfb74a9bdcab1a1b7525c486cfaf7db7d6f0bc550389ab", 0, 49, [], 7, 4),
    ("random_16", "recursive_x2"): ("4b746e20ba27cbafe70eaec2f05be7d1ae92ebab37c1d897fb35a35eaae98965", 0, 63, [], 3, 8),
    ("random_16", "arb"): ("700062cc00f8f8ca4f6ff9412544a8076e1cdcaa2edfab783263cad4c0438488", 0, 100, [("hset-internal", 0), ("merge-sweep", 0)]),
    ("random_16", "little_o"): ("777012e8736fce113512e0a4aabe7705247a87d0c5ccf36a77240ca6e97cbde6", 0, 4624, [("phi:hset-internal", 0), ("phi:merge-sweep", 0), ("psi-classes", 0)]),
    ("random_16", "powered_x2"): ("41f503c8bcede652fe3509daf8db363ccbf35f8601464840653b868ba2eba112", 0, 90, []),
    ("random_27", "star_4delta"): ("5a3e6488196751b7dbba3981811870fbd537c92ec9d9dc7b981e25543fae7048", 0, 99, [], 8, 6),
    ("random_27", "recursive_x2"): ("60dd856a02fe0defc7badfacb32c9e8b1b07d8947f08439bfb1ab8cedd083484", 0, 125, [], 5, 9),
    ("random_27", "arb"): ("f10c613bcd685c8d0985c032ccd25b106b04cd634fccd38b600e14558ebd7e1c", 0, 161, [("hset-internal", 0), ("merge-sweep", 0)]),
    ("random_27", "little_o"): ("8592dc9d190a4a4dee362ca39316fa85fbc4a06389e7bed1b0af4d9917f76f6a", 0, 7310, [("phi:hset-internal", 0), ("phi:merge-sweep", 0), ("psi-classes", 0)]),
    ("random_27", "powered_x2"): ("216836386de03fbd2725e9b39e8b61d9a90cf46b20d52db4751c968fe67dd82a", 0, 143, []),
    ("forest_40", "star_4delta"): ("6367ab27f00e98ccbcfca6944e7e27fb02503a04368d5a20955a709d6734e095", 0, 143, [], 6, 7),
    ("forest_40", "recursive_x2"): ("175eab6a04a146e62ce376af270587a98c6e1657e638eaffa1e2aa50c67de166", 0, 225, [], 3, 14),
    ("forest_40", "arb"): ("a5b58054149d68675987a87cdc4192cc13d30e4cebc0b872621d06f1f3e6b6d4", 6, 49, [("hset-internal", 0), ("merge-sweep", 6)]),
    ("forest_40", "little_o"): ("1171b04fa8ce570a86f151555e00ec75d8601d007f1b3d9196354229de802020", 10, 1023, [("phi:hset-internal", 0), ("phi:merge-sweep", 5), ("psi-classes", 5)]),
    ("forest_40", "powered_x2"): ("742414407f9a48e313c938cb6955fe43e42d32698d9e2b0caea2b32174b50dc1", 0, 60, []),
}


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_edge_colorings_match_golden(graph_name):
    g = GRAPHS[graph_name]()
    a = 1 if graph_name.startswith("forest") else arbedge.estimate_arboricity(g)
    for algo, run in ALGORITHMS.items():
        col, report = run(g, a)
        digest = hashlib.sha256(repr(sorted(col.assignment.items())).encode()).hexdigest()
        got = (digest, report.rounds, col.palette_size, report.phase_breakdown)
        if isinstance(report, staredge.StarPartitionReport):
            got += (report.class_count, report.max_star)
        assert got == GOLDEN[(graph_name, algo)], algo
