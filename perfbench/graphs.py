"""Seeded benchmark inputs, built with the standard library only.

The program under test receives only the graph text these helpers
write; the benchmark keeps the edge list for its own reference checks.
"""
from __future__ import annotations

import random


def random_edges(n: int, m: int, *, directed: bool, max_weight: int,
                 max_degree: int, rng: random.Random, planted=(),
                 no_in_arcs: int = 0) -> list[tuple]:
    """m distinct non-loop edges, the planted ones first, the rest uniform.

    Edges are (u, v) tuples, or (u, v, w) with w uniform in
    [0, max_weight] when max_weight > 0.  A uniform draw that would give
    a vertex more than max_degree arcs out (directed) or edges
    (undirected), or give a vertex below no_in_arcs an in-arc, is
    rejected.  With the cap a little above the degrees a uniform draw
    reaches, a few vertices sit at the cap on every seed, so the
    degree-driven step budgets, and with them the counted delays, do not
    change from seed to seed.  Rejection sampling keeps this linear in m
    for the sparse graphs the workloads use.
    """
    limit = n * (n - 1) if directed else n * (n - 1) // 2
    if m > limit // 2 or m > n * max_degree // (1 if directed else 2) // 2:
        raise ValueError(f"m={m} too dense for rejection sampling at n={n}")
    seen: set[tuple[int, int]] = set()
    degree = [0] * n
    edges: list[tuple] = []

    def add(u: int, v: int) -> None:
        seen.add((u, v) if directed or u < v else (v, u))
        degree[u] += 1
        if not directed:
            degree[v] += 1
        if max_weight > 0:
            edges.append((u, v, rng.randint(0, max_weight)))
        else:
            edges.append((u, v))

    for u, v in planted:
        add(u, v)
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(no_in_arcs, n)
        if u == v or degree[u] >= max_degree or \
                (not directed and degree[v] >= max_degree):
            continue
        if ((u, v) if directed or u < v else (v, u)) not in seen:
            add(u, v)
    return edges


def graph_text(n: int, edges: list[tuple], *, directed: bool,
               weighted: bool) -> str:
    """Graph in the text format `distenum enumerate` reads."""
    kind = "directed" if directed else "undirected"
    wkind = "weighted" if weighted else "unweighted"
    lines = [f"{n} {len(edges)} {kind} {wkind}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def adjacency(n: int, edges: list[tuple], *, directed: bool) -> list[list]:
    """(target, weight) lists per vertex; unweighted edges weigh 1."""
    adj: list[list] = [[] for _ in range(n)]
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) == 3 else 1
        adj[u].append((v, w))
        if not directed:
            adj[v].append((u, w))
    return adj
