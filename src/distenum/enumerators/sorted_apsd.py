"""Globally distance-sorted all-pairs enumeration.

One search instance per source runs lazily; one driver, _drive,
interleaves them so the merged stream comes out in non-decreasing
distance order.  An instance runs the shared search from searches.py,
parking each visit until the driver takes it.
The driver resumes an instance's search itself, inline, so a visit costs
no generator of its own.  The pool holding the instances decides which
one goes next.  With self pairs, base.py's self-pair head bank comes first.

Unweighted pool: a FIFO.  Hop distances make every live instance's next
production either the level being emitted or the next one, so the head
of the pool always holds a global minimum: emit it, run the instance to
its next visit, keep it at the head while it stays on the level, rotate
it to the back when it moves past it and pop it when its search ends.

Weighted pool: a heap keyed by each instance's next production distance.
The initial key is the weight of the cheapest non-loop arc, which is
exactly the first distance the instance will produce; afterwards each
instance is reinserted under the distance of its freshly produced pair,
so extraction order is emission order.  A finished instance is dropped.

Unreachable pairs carry the largest distance and close the stream.
Rows of vertices that never got an instance are emitted directly.
Undirected, a finished instance's search array (hop distances or heap
handles) holds exactly its source's connected component, and as a
sparse set (Briggs & Torczon, 1993) it lists those members in
O(members): the closing phase labels each component off its smallest
vertex's array, or as a lone fan, at two steps per vertex, and emits
the cross pairs with constant work per pair.  Directed, each
instance's array is swept unless it holds n cells.
Space is quadratic: every instance keeps its search array, one n-cell
lazy array, alive so the closing phase can read it.
"""
from __future__ import annotations

from collections import deque

from .base import PER_POOL_DEGREE, Enumerator, INFINITE
from .searches import (cheapest_out_arc, fan_row, has_out_arc, search,
                       search_arrays, sweep_unreached, unit_arcs)
from ..metering import settle
from ..pq import AddressablePQ


class _Instance:
    """A pool member: one search from s on its array dist, written per
    reached vertex; as its emit, parks each visit."""

    __slots__ = ("s", "dist", "gen", "pending")

    def __init__(self, s, dist):
        self.s = s
        self.dist = dist
        self.gen = None
        self.pending = None

    def __call__(self, s, v, d):
        self.pending = (s, v, d)
        return True


class _SortedBase(Enumerator):
    """Machinery shared by the sorted regimes."""

    _per_degree = PER_POOL_DEGREE

    def __init__(self, graph, mode, counter, dedup):
        super().__init__(graph, mode, counter, dedup)
        self._instances: list[_Instance] = []
        self._fans: list[int] = []

    # -- per-source search instances --------------------------------------

    def _new_instance(self, s, skip_le):
        # An instance never touches the queue: the driver banks its
        # visits, and the driver's _emit asks at the queue cap.  The
        # search suspends after each parked visit (the instance's emit
        # returns True) and otherwise only at the deadline, where the
        # driver suspends in turn.  The instance is its own emit: a bound
        # method per instance slowed setup by about 40%.  Registration
        # costs one counted step beside the arrays' allocation steps.
        arrays = search_arrays(self)
        inst = _Instance(s, arrays[0])
        inst.gen = search(self, s, arrays, inst, skip_le=skip_le,
                          sweep=False)
        self._instances.append(inst)
        self.counter.total += 1
        return inst

    # -- the pool driver ---------------------------------------------------

    def _drive(self, pool):
        """Merge the pool's instances into one distance-ordered stream.

        Each round takes the next instance, emits its parked visit, runs
        its search inline to the next one and places the instance again.
        A fresh instance has parked nothing yet, so the round first runs
        it to its first visit.
        """
        c = self.counter
        heap = self.graph.weighted
        live = pool._heap if heap else pool
        while live:
            if heap:
                mark = c.total
                _key, inst = pool.extract_min()
                if c.total >= c.deadline:
                    yield from settle(c, c.total - mark)
            else:
                inst = pool[0]
            gen = inst.gen
            last = None
            while True:
                while inst.pending is None:
                    try:
                        next(gen)
                    except StopIteration:
                        break
                    if c.total >= c.deadline:
                        yield
                if last is not None or inst.pending is None:
                    break
                last, inst.pending = inst.pending, None
                c.total += 1
                if self._emit(*last) or c.total >= c.deadline:
                    yield
            nxt = inst.pending
            if heap:
                if nxt is None:
                    continue    # search over: drop the instance
                mark = c.total
                pool.insert(nxt[2], inst)
                if c.total >= c.deadline:
                    yield from settle(c, c.total - mark)
            elif nxt is None or nxt[2] != last[2]:
                # Search over: pop it; past the level: rotate to the back.
                c.total += 1
                pool.popleft()
                if nxt is not None:
                    pool.append(inst)
                if c.total >= c.deadline:
                    yield

    # -- closing infinite phase -------------------------------------------

    def _inf_phase(self):
        for s in self._fans:
            yield from fan_row(self, s)
        if self.graph.directed:
            yield from self._inf_directed()
        else:
            yield from self._inf_undirected()

    def _inf_undirected(self):
        # (s, t) is unreachable exactly when t lies outside s's
        # component.  The finished search from s wrote exactly that
        # component, and a fan is a component of its own; every vertex
        # is one or the other, both lists in vertex order.  So number
        # each component by its smallest vertex, label its members off
        # that vertex's search array and emit cross pairs with
        # constant work each.
        c, n = self.counter, self.graph.n
        comp = [-1] * n
        comps = []
        insts = iter(self._instances)
        inst = next(insts, None)
        for v in range(n):
            c.total += 1
            dist = None
            if inst is not None and inst.s == v:
                dist, inst = inst.dist, next(insts, None)
            if comp[v] < 0:
                members = (v,) if dist is None else dist.written()
                for t in members:
                    comp[t] = len(comps)
                comps.append(members)
                c.total += len(members)
                if c.total >= c.deadline:
                    yield from settle(c, len(members))
            if c.total >= c.deadline:
                yield
        if len(comps) <= 1:
            return
        for inst in self._instances:
            s = inst.s
            cs = comp[s]
            c.total += 1
            if c.total >= c.deadline:
                yield
            for cid, bucket in enumerate(comps):
                if cid == cs:
                    continue
                for t in bucket:
                    c.total += 1
                    if self._emit(s, t, INFINITE) or c.total >= c.deadline:
                        yield

    def _inf_directed(self):
        # No component shortcut under direction; sweep each incomplete
        # instance's search array and skip the fully reaching ones.
        c, n = self.counter, self.graph.n
        for inst in self._instances:
            c.total += 1
            if c.total >= c.deadline:
                yield
            if inst.dist.written_count < n:
                yield from sweep_unreached(self, inst.s, inst.dist)


class SortedApsdEnumerator(_SortedBase):
    """All n^2 pairs in globally non-decreasing distance order."""

    def __init__(self, graph, mode, counter, dedup):
        super().__init__(graph, mode, counter, dedup)
        self.phase = "stream" if graph.n <= 2 else "head"

    def _preprocess(self):
        if self.graph.n <= 2:
            _, self._dmax_seen = self._degrees()

    def _run(self):
        g, c = self.graph, self.counter
        n = g.n
        # Stored after the bank: a head phase ending mid-bank reads 0.
        self._dmax_seen = yield from self._self_pairs()
        self._budget_moved()
        if g.weighted:
            yield from self._start_weighted()
        else:
            pool = deque()
            for v in range(n):
                c.total += 1
                # No non-loop arc: the whole row past the self pair is
                # unreachable, so a search instance would burn setup and
                # teardown without producing; fan the row out instead.
                mark = c.total
                out_arc = has_out_arc(g, c, v)
                if c.total >= c.deadline:
                    yield from settle(c, c.total - mark)
                if out_arc:
                    pool.append(self._new_instance(v, 0))
                else:
                    self._fans.append(v)
                if c.total >= c.deadline:
                    yield
            yield from self._drive(pool)
        if not self.mode.reachable_only:
            yield from self._inf_phase()

    def _start_weighted(self):
        g, c = self.graph, self.counter
        sched = AddressablePQ(c)
        for v in range(g.n):
            c.total += 1
            best, _ = cheapest_out_arc(g, c, v)
            if c.total >= c.deadline:
                yield from settle(c, g.degree(v))
            if best is None:
                self._fans.append(v)
                if c.total >= c.deadline:
                    yield
                continue
            inst = self._new_instance(v, 0)
            if c.total >= c.deadline:
                yield
            mark = c.total
            sched.insert(best, inst)
            if c.total >= c.deadline:
                yield from settle(c, c.total - mark)
        yield from self._drive(sched)


class SortedNoSelfApsdEnumerator(_SortedBase):
    """All n(n-1) non-self pairs in non-decreasing distance order."""

    def __init__(self, graph, mode, counter, dedup):
        super().__init__(graph, mode, counter, dedup)
        self._sources: list[int] = []
        self._sched = None

    def _preprocess(self):
        # A vertex with no non-loop arc produces nothing: treat it like
        # an isolated one and fan its row out directly.  Weighted setup
        # fits the preprocessing allowance, so arrays, instances and the
        # scheduler heap are built here; unweighted instances wait for
        # the distance-1 cursor to bank their setup cost.
        g, c = self.graph, self.counter
        _, self._dmax_seen = self._degrees()
        entries = []
        for v in range(g.n):
            if not g.weighted:
                (self._sources if has_out_arc(g, c, v)
                 else self._fans).append(v)
                continue
            best, _ = cheapest_out_arc(g, c, v)
            if best is None:
                self._fans.append(v)
                continue
            entries.append((best, self._new_instance(v, 0)))
        if g.weighted:
            self._sched = AddressablePQ(c)
            self._sched.build(entries)

    def _run(self):
        g = self.graph
        c = self.counter
        if g.weighted:
            yield from self._drive(self._sched)
        else:
            yield from self._edge_cursor()
            pool = deque()
            for s in self._sources:
                c.total += 1
                pool.append(self._new_instance(s, 1))
                if c.total >= c.deadline:
                    yield
            yield from self._drive(pool)
        if not self.mode.reachable_only:
            yield from self._inf_phase()

    def _edge_cursor(self):
        # Unit arcs are distance-1 pairs; they open the stream and bank
        # enough output to fund instance setup.
        marks = []
        for s in self._sources:
            self.counter.total += 1
            yield from unit_arcs(self, s, marks)
        for arr in marks:
            arr.release()
