"""Boolean matrix product read off a layered distance instance.

Two d x d boolean matrices become a tripartite unit-distance graph;
(a @ b)[i][k] is set exactly when the graph distance from row vertex i
to column vertex 2d + k equals two.  One reachable-only single-source
run per row vertex reads the product row.
"""
from __future__ import annotations

from typing import Sequence

from .enumerators import OutputMode, make_enumerator
from .graph import gen_bmm_graph


def bmm_multiply(a: Sequence[Sequence[int]],
                 b: Sequence[Sequence[int]]) -> list[list[bool]]:
    d = len(a)
    g = gen_bmm_graph(a, b)
    out = [[False] * d for _ in range(d)]
    lo, hi = 2 * d, 3 * d
    for i in range(d):
        for _u, v, dist in make_enumerator(g, OutputMode(reachable_only=True),
                                           source=i):
            if dist == 2 and lo <= v < hi:
                out[i][v - lo] = True
    return out
