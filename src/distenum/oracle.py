"""Reference distances, stream validation, and boolean matrix products.

The reference matrix comes from one plain search per source (deque BFS
or heapq Dijkstra), which shares no code with the streaming machines.
It adds Python integers, so every finite distance is exact at any
weight.  Unreachable pairs use math.inf, never a large finite stand-in.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .graph import Graph

INFINITE = math.inf


class DistanceMatrix:
    """Dense all-pairs distances; entries are ints or math.inf."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: list[list]):
        self.n = n
        self._rows = rows

    def entry(self, u: int, v: int):
        return self._rows[u][v]

    def row(self, u: int) -> list:
        return list(self._rows[u])

    def __eq__(self, other) -> bool:
        return isinstance(other, DistanceMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


def brute_force_matrix(g: Graph, method: str = "search") -> DistanceMatrix:
    """Reference all-pairs matrix by one plain search per source.

    "search" is the only method; the parameter stays for callers that
    name it.
    """
    if method != "search":
        raise ValueError(f"unknown method {method!r}")
    rows = []
    for s in range(g.n):
        dist = [INFINITE] * g.n
        dist[s] = 0
        if g.weighted:
            heap = [(0, s)]
            done = [False] * g.n
            while heap:
                d, v = heapq.heappop(heap)
                if done[v]:
                    continue
                done[v] = True
                for i in g.arcs_from(v):
                    w = g.targets[i]
                    nd = d + g.weights[i]
                    if nd < dist[w]:
                        dist[w] = nd
                        heapq.heappush(heap, (nd, w))
        else:
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for i in g.arcs_from(v):
                    w = g.targets[i]
                    if dist[w] == INFINITE:
                        dist[w] = dist[v] + 1
                        queue.append(w)
        rows.append(dist)
    return DistanceMatrix(g.n, rows)


# ---------------------------------------------------------------------------
# stream validation

@dataclass(frozen=True)
class Violation:
    pair: tuple[int, int]
    reason: str


def validate(triples, matrix: DistanceMatrix, mode, dedup: bool = False,
             source: int | None = None) -> Violation | None:
    """Check a finished stream against the reference matrix.

    Verifies distances, exact coverage of the pairs the mode promises
    (one representative per unordered pair under dedup), absence of
    duplicates, and the mode's order guarantees.  Returns the first
    violation found, or None.  With source set, only that row is
    expected (single-source streams).
    """
    n = matrix.n
    sources = range(n) if source is None else (source,)
    expected: set = set()
    for u in sources:
        for v in range(n):
            if mode.no_self and u == v:
                continue
            if mode.reachable_only and matrix.entry(u, v) == INFINITE:
                continue
            if not dedup or u <= v:
                expected.add((u, v))
    seen: set = set()
    prev_source = -1
    row_prev_dist = None
    prev_dist = None
    for t in triples:
        u, v, d = t.source, t.target, t.distance
        key = (min(u, v), max(u, v)) if dedup else (u, v)
        if key in seen:
            return Violation((u, v), "duplicate pair")
        seen.add(key)
        if key not in expected:
            return Violation((u, v), "pair not expected for mode")
        ref = matrix.entry(u, v)
        if d != ref:
            return Violation((u, v), f"distance {d} differs from reference {ref}")
        if mode.row_wise:
            if u < prev_source:
                return Violation((u, v), "source order decreased")
            if u != prev_source:
                prev_source = u
                row_prev_dist = d
            else:
                if _later(row_prev_dist, d):
                    return Violation((u, v), "distance decreased within a row")
                row_prev_dist = d
        if mode.sorted:
            if _later(prev_dist, d):
                return Violation((u, v), "distance decreased in sorted stream")
            prev_dist = d
    if len(seen) != len(expected):
        return Violation(min(expected - seen), "pair missing from stream")
    return None


def _later(prev, cur) -> bool:
    if prev is None:
        return False
    return cur < prev


# ---------------------------------------------------------------------------
# boolean matrices

def direct_multiply(a, b):
    """Plain triple-loop boolean product."""
    d = len(a)
    out = [[0] * d for _ in range(d)]
    for i in range(d):
        row = a[i]
        for j in range(d):
            if row[j]:
                brow = b[j]
                orow = out[i]
                for k in range(d):
                    if brow[k]:
                        orow[k] = 1
    return out


def format_bool_matrix(m) -> str:
    d = len(m)
    lines = [str(d)]
    for row in m:
        lines.append("".join("1" if x else "0" for x in row))
    return "\n".join(lines) + "\n"


def parse_bool_matrix(text: str):
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix text")
    try:
        d = int(rows[0])
    except ValueError as exc:
        raise ValueError(f"bad matrix header {rows[0]!r}") from exc
    body = rows[1:]
    if len(body) != d:
        raise ValueError(f"header says {d} rows, found {len(body)}")
    out = []
    for line in body:
        if len(line) != d or any(c not in "01" for c in line):
            raise ValueError(f"bad matrix row {line!r}")
        out.append([1 if c == "1" else 0 for c in line])
    return out
