"""Golden outputs of the seeded graph generators in ``localcolor.io``.

Each entry pins the first 16 hex digits of the sha256 of ``repr(g.edges())``
for one generator call.  The calls cover the benchmark's input sizes
(``perfbench/workloads.py`` ``SIZES``, full and toy, at seeds 1 and 11),
the quadratic-era forest ``gen_forest(8000, 64, 1)`` and a few small
``(n, delta, seed)`` cases, among them the sizes where ``random.sample``
switches branch.  A change to a generator meant to keep its output, such
as a faster ``gen_forest`` or ``gen_random`` that draws the same random
numbers, must leave every entry as it is; otherwise the benchmark inputs
drift silently.
"""

import hashlib

import pytest

from localcolor import io as lio

# (generator, arguments, digest of the edge list)
GOLDEN = [
    # full benchmark sizes, seed 1
    ("gen_random", (1000, 24, 1), "e7587c5cf7e60f95"),
    ("gen_line_of", (100, 30, 1), "bab86ff1285d2626"),
    ("gen_path", (60_000,), "94a954e3987b96a1"),
    ("gen_grid", (170, 170), "576c1496a24435e1"),
    ("gen_random", (1000, 32, 1), "8e45c5f488eec5f8"),
    ("gen_forest", (2000, 500, 1), "625e4a17e425d3f4"),
    ("gen_random", (700, 16, 1), "48469ab5da74e96b"),
    # full benchmark sizes, seed 11
    ("gen_random", (1000, 24, 11), "e5a3bb989f999a50"),
    ("gen_line_of", (100, 30, 11), "5449b60237da47b1"),
    ("gen_random", (1000, 32, 11), "d6205fe4e04cfb40"),
    ("gen_forest", (2000, 500, 11), "eadddbdc791ae039"),
    ("gen_random", (700, 16, 11), "e7fa44143629798d"),
    # toy benchmark sizes, seed 1
    ("gen_random", (60, 6, 1), "921ea9539ddbbb40"),
    ("gen_line_of", (20, 6, 1), "596fa4c83efb3901"),
    ("gen_path", (300,), "e7d0b0d617fbb728"),
    ("gen_grid", (12, 12), "5374813c8e60087d"),
    ("gen_random", (60, 8, 1), "0cc3466a6c5eebf7"),
    ("gen_forest", (60, 20, 1), "81a1b628877e52be"),
    ("gen_random", (40, 6, 1), "d636fb716200ad48"),
    # other forests and small cases
    ("gen_forest", (8000, 64, 1), "5ec4c95c98e49b8f"),
    ("gen_forest", (2000, 500, 0), "1f2bfce4d9818ab3"),
    ("gen_forest", (3, 2, 0), "d38dbf4bcc2b286c"),
    ("gen_forest", (10, 2, 5), "14b5f347386a7ed5"),
    ("gen_forest", (50, 3, 7), "d08ecfa28af57a6c"),
    ("gen_forest", (200, 4, 2), "f8fc5c94de0180df"),
    ("gen_random", (10, 3, 0), "a5a76eb97f41b0f5"),
    ("gen_random", (30, 5, 9), "ecce6b984c224971"),
    ("gen_line_of", (12, 4, 3), "29d32bf9977d7560"),
    ("gen_grid", (1, 5), "cf0f7807ca905815"),
    ("gen_path", (2,), "4c461d4a0ab0fe42"),
    # gen_random where random.sample switches from its pool to its set branch
    ("gen_random", (2, 1, 0), "4c461d4a0ab0fe42"),
    ("gen_random", (21, 4, 3), "e0a2463b6b3cfac3"),
    ("gen_random", (22, 4, 3), "5749f72cf9a4a919"),
]


@pytest.mark.parametrize("name,args,expected", GOLDEN,
                         ids=[f"{n}{a}" for n, a, _ in GOLDEN])
def test_generator_output_is_pinned(name, args, expected):
    g = getattr(lio, name)(*args)
    if name == "gen_line_of":  # (line graph, cover)
        g = g[0]
    assert hashlib.sha256(repr(g.edges()).encode()).hexdigest()[:16] == expected
