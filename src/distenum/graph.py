"""Graph storage, text format, and instance generators.

Graphs are immutable once built: vertices are 0-based ints, adjacency is
kept in CSR form (offsets/targets/weights).  Self-loops and parallel edges
are legal input; an undirected edge is stored in both directions.  Edge
weights are non-negative ints capped at n ** weight_cap_exponent, which
keeps all finite distances well inside exact integer range.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import isqrt
from typing import Iterable, Sequence

DEFAULT_WEIGHT_CAP_EXPONENT = 3
# Largest vertex count accepted.  A safety check on outside input: the
# CSR build allocates lists of n + 1 cells before reading an edge, so an
# absurd header would otherwise end in MemoryError.
MAX_VERTICES = 10 ** 7


class GraphFormatError(ValueError):
    """Raised for malformed graph text or inconsistent edge lists."""


@dataclass(frozen=True)
class DegreeStats:
    max_degree: int
    degree_sum: int
    n: int

    @property
    def avg_degree(self) -> Fraction:
        if self.n == 0:
            return Fraction(0)
        return Fraction(self.degree_sum, self.n)


class Graph:
    """Immutable CSR graph.

    degree(v) counts stored arcs leaving v, so an undirected edge adds one
    to both endpoints and an undirected self-loop adds two to its vertex.
    """

    __slots__ = ("n", "m", "directed", "weighted", "offsets", "targets", "weights", "_stats")

    def __init__(self, n: int, m: int, directed: bool, weighted: bool,
                 offsets: list[int], targets: list[int], weights: list[int] | None):
        self.n = n
        self.m = m
        self.directed = directed
        self.weighted = weighted
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self._stats: DegreeStats | None = None

    @property
    def arc_count(self) -> int:
        return len(self.targets)

    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def arcs_from(self, v: int) -> range:
        return range(self.offsets[v], self.offsets[v + 1])

    def stats(self) -> DegreeStats:
        if self._stats is None:
            dmax = 0
            for v in range(self.n):
                d = self.degree(v)
                if d > dmax:
                    dmax = d
            self._stats = DegreeStats(dmax, len(self.targets), self.n)
        return self._stats

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.weighted else "unweighted"
        return f"Graph(n={self.n}, m={self.m}, {kind}, {w})"


def _check_vertex_count(n: int) -> None:
    """Reject a vertex count below 0 or above MAX_VERTICES."""
    if n < 0:
        raise GraphFormatError(f"vertex count must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"vertex count {n} exceeds the cap of {MAX_VERTICES}")


def from_edge_list(n: int, edges: Sequence[tuple], directed: bool, *,
                   weighted: bool | None = None,
                   weight_cap_exponent: int = DEFAULT_WEIGHT_CAP_EXPONENT) -> Graph:
    """Build a Graph from (u, v) or (u, v, w) tuples.

    All edges must agree on the presence of a weight.  Weights must be
    ints in [0, n ** weight_cap_exponent]; ids must be in [0, n), and n
    at most MAX_VERTICES.
    """
    _check_vertex_count(n)
    if weighted is None:
        weighted = bool(edges) and len(edges[0]) == 3
    cap = n ** weight_cap_exponent
    for e in edges:
        if weighted:
            if len(e) != 3:
                raise GraphFormatError(f"weighted graph needs (u, v, w) edges, got {e!r}")
            u, v, w = e
            if not isinstance(w, int) or isinstance(w, bool):
                raise GraphFormatError(f"weight must be an int, got {w!r}")
            if w < 0:
                raise GraphFormatError(f"negative weight {w} on edge ({u}, {v})")
            if w > cap:
                raise GraphFormatError(
                    f"weight {w} on edge ({u}, {v}) exceeds cap {cap} (n**{weight_cap_exponent})")
        else:
            if len(e) != 2:
                raise GraphFormatError(f"unweighted graph needs (u, v) edges, got {e!r}")
            u, v = e
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
    weights = [e[2] for e in edges] if weighted else None
    return _csr(n, [e[0] for e in edges], [e[1] for e in edges], weights,
                directed)


def _csr(n: int, tails: list[int], heads: list[int],
         weights: list[int] | None, directed: bool) -> Graph:
    """CSR of checked edges (tails[k], heads[k], weights[k]) in one
    counting pass; each vertex's arcs keep edge order, and an undirected
    edge's reverse arc follows its forward one."""
    counts = [0] * (n + 1)
    for u in tails:
        counts[u + 1] += 1
    if not directed:
        for v in heads:
            counts[v + 1] += 1
    offsets = list(accumulate(counts))
    fill = offsets[:-1]
    targets = [0] * offsets[-1]
    wlist = None if weights is None else [0] * offsets[-1]
    for u, v, w in zip(tails, heads, repeat(1) if weights is None else weights):
        i = fill[u]
        fill[u] = i + 1
        targets[i] = v
        if wlist is not None:
            wlist[i] = w
        if not directed:
            j = fill[v]
            fill[v] = j + 1
            targets[j] = u
            if wlist is not None:
                wlist[j] = w
    return Graph(n, len(tails), directed, weights is not None, offsets,
                 targets, wlist)


# ---------------------------------------------------------------------------
# text format:  header "n m directed|undirected weighted|unweighted",
# then one edge per line ("u v" or "u v w"); '#' starts a comment.

def format_graph(g: Graph) -> str:
    kind = "directed" if g.directed else "undirected"
    w = "weighted" if g.weighted else "unweighted"
    lines = [f"{g.n} {g.m} {kind} {w}"]
    for u in range(g.n):
        loop_seen = 0
        for i in g.arcs_from(u):
            v = g.targets[i]
            if u == v:
                loop_seen += 1
            # each undirected edge is stored twice; keep the u < v copy,
            # and of a self-loop's two adjacent identical arcs the second
            if g.directed or u < v or (u == v and loop_seen % 2 == 0):
                if g.weighted:
                    lines.append(f"{u} {v} {g.weights[i]}")
                else:
                    lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# The tokenised path takes canonical text only: no comments or blank
# lines, every edge line ends in "\n", tokens are ASCII digits, and only
# spaces and tabs separate them.  The line parser accepts and rejects
# exactly the same graphs on such text, so anything else is left to it.
_HEADER = re.compile(r"[ \t]*([0-9]+)[ \t]+([0-9]+)[ \t]+(directed|undirected)"
                     r"[ \t]+(weighted|unweighted)[ \t]*")
_EDGE_ROWS = {want: re.compile(r"(?:[ \t]*[0-9]+" + r"[ \t]+[0-9]+" * (want - 1)
                               + r"[ \t]*\n)*") for want in (2, 3)}
# Body characters tokenised at a time: one block's token strings are
# alive at once, not the whole body's.
_BLOCK = 1 << 16


def parse_graph(text: str, *, weight_cap_exponent: int = DEFAULT_WEIGHT_CAP_EXPONENT) -> Graph:
    g = _parse_tokens(text, weight_cap_exponent)
    return g if g is not None else _parse_lines(text, weight_cap_exponent)


def _parse_tokens(text: str, weight_cap_exponent: int) -> Graph | None:
    """The graph of canonical text, or None when the text is not canonical
    or not a valid graph; ints too long for int() give None too."""
    head, _, body = text.partition("\n")
    match = _HEADER.fullmatch(head)
    if match is None:
        return None
    try:
        n, m = int(match[1]), int(match[2])
        if n > MAX_VERTICES:
            return None
        want = 3 if match[4] == "weighted" else 2
        rows = _EDGE_ROWS[want]
        a: list[int] = []
        pos, size = 0, len(body)
        while pos < size:
            end = body.find("\n", min(pos + _BLOCK, size) - 1) + 1 or size
            if rows.fullmatch(body, pos, end) is None:
                return None
            a.extend(map(int, body[pos:end].split()))
            pos = end
    except ValueError:
        return None
    if len(a) != want * m:
        return None
    cap = n ** weight_cap_exponent
    tails, heads = a[0::want], a[1::want]
    weights = a[2::want] if want == 3 else None
    if m and (max(tails) >= n or max(heads) >= n
              or (weights is not None and max(weights) > cap)):
        return None
    return _csr(n, tails, heads, weights, match[3] == "directed")


def _parse_lines(text: str, weight_cap_exponent: int) -> Graph:
    """Line-by-line parse of any text, with comments; raises
    GraphFormatError naming the first bad line."""
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFormatError("empty graph text")
    head = rows[0]
    if len(head) != 4:
        raise GraphFormatError(f"bad header {' '.join(head)!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header counts {' '.join(head)!r}") from exc
    if head[2] not in ("directed", "undirected") or head[3] not in ("weighted", "unweighted"):
        raise GraphFormatError(f"bad header flags {' '.join(head)!r}")
    directed = head[2] == "directed"
    weighted = head[3] == "weighted"
    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(f"header says {m} edges, found {len(body)}")
    edges: list[tuple] = []
    want = 3 if weighted else 2
    for row in body:
        if len(row) != want:
            raise GraphFormatError(f"bad edge line {' '.join(row)!r}")
        try:
            nums = [int(x) for x in row]
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {' '.join(row)!r}") from exc
        edges.append(tuple(nums))
    return from_edge_list(n, edges, directed, weighted=weighted,
                          weight_cap_exponent=weight_cap_exponent)


# ---------------------------------------------------------------------------
# generators

def gen_clique_path(k: int) -> Graph:
    """Clique of size k with one clique edge replaced by a long path.

    Vertices 0..k-1 form the clique; the edge {k-2, k-1} is replaced by a
    path through k*k fresh inner vertices (ids k..k+k*k-1), so the path
    between its clique endpoints has k*k + 1 edges.  n = k + k*k and every
    clique vertex keeps degree k - 1.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    n = k + k * k
    _check_vertex_count(n)  # before building about 1.5 * k * k edges
    edges: list[tuple[int, int]] = []
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) != (k - 2, k - 1):
                edges.append((i, j))
    chain = [k - 2] + list(range(k, k + k * k)) + [k - 1]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    return from_edge_list(n, edges, directed=False)


def gen_star(n: int, weights: Iterable[int]) -> Graph:
    """Weighted star: center 0 joined to 1..n-1 with the given weights.

    weights is consumed only once n has passed the vertex-count check.
    """
    _check_vertex_count(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    edges = [(0, i + 1, int(w)) for i, w in enumerate(weights)]
    if len(edges) != n - 1:
        raise ValueError(f"need {n - 1} weights for n={n}, got {len(edges)}")
    return from_edge_list(n, edges, directed=False, weighted=True)


def gen_bmm_graph(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Graph:
    """Tripartite layered graph whose distance-2 pairs encode a boolean product.

    For d x d inputs, layer I is [0, d), layer J is [d, 2d), layer K is
    [2d, 3d); arc i-j exists iff a[i][j], arc j-k iff b[j][k].  2*d*d extra
    isolated vertices pad the instance.  (a @ b)[i][k] = 1 exactly when the
    distance from i to 2d + k is 2.
    """
    d = len(a)
    if d == 0 or any(len(r) != d for r in a) or len(b) != d or any(len(r) != d for r in b):
        raise ValueError("need two square matrices of the same size")
    n = 2 * d * d + 3 * d
    edges: list[tuple[int, int]] = []
    for i in range(d):
        for j in range(d):
            if a[i][j]:
                edges.append((i, d + j))
    for j in range(d):
        for k in range(d):
            if b[j][k]:
                edges.append((d + j, 2 * d + k))
    return from_edge_list(n, edges, directed=False)


def gen_isolated_plus_edge(n: int) -> Graph:
    """n - 2 isolated vertices plus the single edge {n-2, n-1}."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return from_edge_list(n, [(n - 2, n - 1)], directed=False)


def gen_random(n: int, m: int, *, directed: bool = False, max_weight: int = 0,
               seed: int = 0) -> Graph:
    """Uniform simple random graph with m edges; weighted iff max_weight > 0."""
    _check_vertex_count(n)  # before sampling m pairs
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    limit = n * (n - 1) if directed else n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"m={m} infeasible for n={n} ({'directed' if directed else 'undirected'})")
    rng = random.Random(seed)
    chosen: list[int]
    if limit > 1024 and m <= limit // 2:
        seen: set[int] = set()
        while len(seen) < m:
            seen.add(rng.randrange(limit))
        chosen = sorted(seen)
    else:
        chosen = rng.sample(range(limit), m)

    def decode(idx: int) -> tuple[int, int]:
        if directed:
            u, r = divmod(idx, n - 1)
            v = r + (1 if r >= u else 0)
            return u, v
        # unrank an unordered pair {u < v}: row u starts at u*(b-u)//2,
        # so u is the floor root of u*u - b*u + 2*idx = 0, off by at most 1
        b = 2 * n - 1
        u = (b - isqrt(b * b - 8 * idx)) // 2
        if u * (b - u) // 2 > idx:
            u -= 1
        return u, u + 1 + idx - u * (b - u) // 2

    pairs = [decode(i) for i in chosen]
    if max_weight > 0:
        edges = [(u, v, rng.randint(0, max_weight)) for u, v in pairs]
        return from_edge_list(n, edges, directed, weighted=True)
    return from_edge_list(n, list(pairs), directed)
