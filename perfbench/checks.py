"""Correctness gates the benchmark applies to every output it times."""
from __future__ import annotations

import heapq
import math


def reference_prefix(adj: list[list], s: int, k: int):
    """Plain heapq Dijkstra from s, stopped once the k nearest are known.

    Returns (settled, nearest): settled maps every vertex settled so far
    to its distance, which includes every vertex tied with the k-th
    nearest; nearest lists the k smallest distances to vertices other
    than s (fewer when fewer are reachable).
    """
    best = {s: 0}
    settled: dict[int, int] = {}
    nearest: list[int] = []
    heap = [(0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        if len(nearest) >= k and d > nearest[k - 1]:
            break
        settled[v] = d
        if v != s:
            nearest.append(d)
        for w, wt in adj[v]:
            nd = d + wt
            if nd < best.get(w, math.inf):
                best[w] = nd
                heapq.heappush(heap, (nd, w))
    return settled, nearest[:k]


def check_prefix(triples, s: int, settled: dict, nearest: list) -> str | None:
    """Why a k-nearest prefix is wrong, or None when it is right.

    Ties at equal distance may come out in any order, so the check is on
    each triple's distance and on the multiset of distances.
    """
    if len(triples) != len(nearest):
        return f"source {s}: {len(triples)} triples, expected {len(nearest)}"
    targets = set()
    prev = -1
    for t in triples:
        if t.source != s:
            return f"source {s}: triple from source {t.source}"
        if t.target == s or t.target in targets:
            return f"source {s}: self or repeated target {t.target}"
        targets.add(t.target)
        if settled.get(t.target) != t.distance:
            return (f"source {s}: target {t.target} at {t.distance}, "
                    f"reference {settled.get(t.target)}")
        if t.distance < prev:
            return f"source {s}: distance decreased at target {t.target}"
        prev = t.distance
    if sorted(t.distance for t in triples) != nearest:
        return f"source {s}: distances differ from the {len(nearest)} nearest"
    return None


def corrupt(triples: list) -> list:
    """Copy with one distance in the middle flipped, as `verify --corrupt`."""
    triples = list(triples)
    if triples:
        mid = len(triples) // 2
        t = triples[mid]
        bad = 1 if t.distance == math.inf else t.distance + 1
        triples[mid] = t._replace(distance=bad)
    return triples


def parse_stream(data: bytes, triple_cls) -> list:
    """Triples from `distenum enumerate` output ("u v d" lines)."""
    out = []
    for line in data.decode("ascii").splitlines():
        u, v, d = line.split()
        out.append(triple_cls(int(u), int(v),
                              math.inf if d == "inf" else int(d)))
    return out
