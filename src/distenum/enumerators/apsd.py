"""All-pairs distance enumeration: row-wise and unordered regimes.

Three machines share the search primitives:

* RowSearchEnumerator streams complete rows in source order, one search
  per source.  Delay tracks the largest degree seen.
* UnconstrainedApsdEnumerator opens with base.py's self-pair head bank,
  then searches every source.
* NoSelfApsdEnumerator drops self pairs, which kills the cheap bank, so
  a cursor over cheap per-vertex output (direct edges, unreachable fans
  for isolated vertices) is interleaved with the searches: the cursor
  refills the queue whenever it runs low, and searches grind the bulk
  work the rest of the time.

Both unordered machines run base.py's average-degree budget.
"""
from __future__ import annotations

from collections import deque

from .base import AverageDegreeEnumerator, Enumerator
from .searches import (cheapest_out_arc, fan_row, has_out_arc, reuse_arrays,
                       search, unit_arcs)
from ..lazyarray import LazyArray
from ..metering import settle


def _balanced_order(seq):
    """Ascending prefix, then alternate ends: 0 1 2 3 4 n-1 5 n-2 ...

    Under pair dedup the kept share of a row shrinks with its position
    in the representative order, so a run of late rows is a run of
    near-pure filtering.  Pairing an early row with a late one keeps the
    kept share of every stretch near one half, which is what lets the
    paced pull quota hold the queue steady.
    """
    items = list(seq)
    n = len(items)
    head = min(4, n)
    out = items[:head]
    lo, hi = head, n - 1
    while lo <= hi:
        out.append(items[lo])
        if hi != lo:
            out.append(items[hi])
        lo += 1
        hi -= 1
    return out


class RowSearchEnumerator(Enumerator):
    """Rows in source order; optional no-self and reachable-only trims."""

    def __init__(self, graph, mode, counter, dedup):
        super().__init__(graph, mode, counter, dedup)
        if mode.no_self:
            self._budget_scale *= 2
        self._sources = None

    def _preprocess(self):
        if not (self.mode.reachable_only and self.mode.no_self):
            return
        # With both trims a source contributes nothing unless it has a
        # non-loop arc, and a trailing run of empty rows would stall the
        # stream; one linear pass drops those sources for good.
        g, c = self.graph, self.counter
        self._sources = []
        for v in range(g.n):
            c.total += 1
            if has_out_arc(g, c, v):
                self._sources.append(v)

    def _run(self):
        sources = self._sources if self._sources is not None \
            else range(self.graph.n)
        c = self.counter
        skip = 0 if self.mode.no_self else -1
        sweep = not self.mode.reachable_only
        arrays = []
        for s in sources:
            reuse_arrays(self, arrays)
            if c.total >= c.deadline:
                yield
            yield from search(self, s, arrays, self._emit, skip_le=skip,
                              sweep=sweep)


class UnconstrainedApsdEnumerator(AverageDegreeEnumerator):
    """All n^2 pairs, order free; self pairs double as the head bank."""

    def __init__(self, graph, mode, counter, dedup):
        super().__init__(graph, mode, counter, dedup)
        self.phase = "stream" if graph.n <= 2 else "head"

    def _preprocess(self):
        if self.graph.n <= 2:
            self._degree_sum, _ = self._degrees()

    def _run(self):
        c, n = self.counter, self.graph.n
        # The searches raise _dmax_seen as they go; dedup pacing reads it.
        yield from self._self_pairs()
        self._budget_moved()
        sources = _balanced_order(range(n)) if self.dedup else range(n)
        arrays = []
        for s in sources:
            reuse_arrays(self, arrays)
            if c.total >= c.deadline:
                yield
            yield from search(self, s, arrays, self._emit, skip_le=0)


class NoSelfApsdEnumerator(AverageDegreeEnumerator):
    """All n(n-1) non-self pairs, order free."""

    # The cursor runs whenever the queue holds fewer triples than this.
    _refill_below = 4

    def __init__(self, graph, mode, counter, dedup):
        super().__init__(graph, mode, counter, dedup)
        self._pending = deque()
        self._tmin = None
        self._order = None
        self._rank = None

    def _preprocess(self):
        if not self.graph.weighted:
            return
        # Weighted rows have no unit-distance head start, so the cursor
        # emits each vertex's cheapest outgoing distance instead, and
        # processing vertices in degree order keeps those scans short
        # while the queue is still thin.  The sort is stable, so equal
        # degrees keep vertex order, and it is charged as the counting
        # sort it stands for: dmax + 1 buckets, n drops, n reads out.
        g, c = self.graph, self.counter
        n = g.n
        self._degree_sum, dmax = self._degrees()
        self._order = sorted(range(n), key=g.degree)
        c.total += dmax + 1 + 2 * n
        self._rank = [0] * n
        for i, v in enumerate(self._order):
            self._rank[v] = i
        self._tmin = LazyArray(n, c)

    def _dedup_key_fn(self):
        if not self.graph.weighted:
            return lambda v: v
        # Keep the copy produced by the vertex processed first, so the
        # filter never starves the cursor's early head-start items.
        return lambda v: self._rank[v]

    def _cursor_order(self):
        # weighted runs already walk vertices by degree rank
        base = self._order if self._order is not None \
            else range(self.graph.n)
        return _balanced_order(base) if self.dedup else base

    def _emit(self, u, v, d):
        # Also ask when this append brings the queue to the refill mark.
        before = len(self.q)
        return Enumerator._emit(self, u, v, d) \
            or before < self._refill_below == len(self.q)

    def _run(self):
        # The per-step machine's choice, made once per resume.  The queue
        # only grows within a pull, so it can flip only where a cursor or
        # search ends (control returns here), or where _emit reaches the
        # refill mark or a cursor queues a source past it (each suspends).
        cursor = self._weighted_cursor() if self.graph.weighted \
            else self._unweighted_cursor()
        c = self.counter
        pending = self._pending
        search = None
        arrays = []
        while True:
            refill = cursor is not None and len(self.q) < self._refill_below
            if not refill and search is None and pending:
                c.total += 1
                search = self._search(pending.popleft(), arrays)
                if c.total >= c.deadline:
                    yield
                continue
            active = cursor if refill or search is None else search
            if active is None:
                return
            try:
                yield next(active)
            except StopIteration:
                if active is cursor:
                    cursor = None
                else:
                    search = None

    def _unweighted_cursor(self):
        c, offsets = self.counter, self.graph.offsets
        seen = 0
        marks = []
        for s in self._cursor_order():
            c.total += 1
            deg = offsets[s + 1] - offsets[s]
            seen += deg
            self._degree_sum = seen
            self._budget_moved()
            if c.total >= c.deadline:
                yield
            if deg > 0 and (yield from unit_arcs(self, s, marks)):
                self._pending.append(s)
                c.total += 1
                if len(self.q) >= self._refill_below or c.total >= c.deadline:
                    yield
            else:
                # Only loops or nothing at all: the row is all
                # unreachable and needs no search.  Dedup keeps (s, t)
                # only for t > s, so the row starts there: a late row
                # would otherwise be n filtered steps that bank nothing.
                yield from fan_row(self, s, s + 1 if self.dedup else 0)

    def _weighted_cursor(self):
        g, c = self.graph, self.counter
        for s in self._cursor_order():
            c.total += 1
            if c.total >= c.deadline:
                yield
            best_w, best_t = cheapest_out_arc(g, c, s)
            if c.total >= c.deadline:
                yield from settle(c, g.degree(s))
            if best_t is None:
                # No way out of s: its whole row is unreachable.
                yield from fan_row(self, s)
            else:
                # A cheapest outgoing arc is a shortest path to its head:
                # any other route starts with an arc at least as heavy.
                self._tmin.write(s, best_t)
                stop = self._emit(s, best_t, best_w)
                self._pending.append(s)
                c.total += 1
                if stop or len(self.q) >= self._refill_below \
                        or c.total >= c.deadline:
                    yield

    def _search(self, s, arrays):
        # The cursor already emitted s's distance-1 pairs (unweighted)
        # or its cheapest arc's head (weighted); the search skips them.
        c = self.counter
        skip_le, t = 1, None
        if self.graph.weighted:
            skip_le, t = 0, self._tmin.read(s)
            if c.total >= c.deadline:
                yield
        reuse_arrays(self, arrays)
        if c.total >= c.deadline:
            yield
        yield from search(self, s, arrays, self._emit, skip_le=skip_le,
                          skip_target=t)
