"""Instrumented searches and scans: the package's only graph traversals.

Every generator here checks the counter's deadline once per handful
of counted steps and suspends when it is reached, so a pull can stop it
mid-flight with bounded overshoot; each emit site below also suspends
at its next check after an emit that returns True.  bfs_search and
dijkstra_search hand visits, in hop or weight order, to an emit(s, v,
d) callable: linear machines pass the enumerator's _emit (bank in the
solution queue), a sorted pool instance one that parks the triple for
the pool's driver and returns True.  The enumerator's _emit also asks
on the append that fills the queue to its cap, so banked output stays
linear in n with no check of its own here.  Unless told otherwise a
search ends with a sweep that reports unreached targets.  A search
keeps one lazy array, written per reached vertex in discovery order:
hop distances in a BFS, heap handles in a Dijkstra search.  Sequential
machines keep it per run and reset it per source (reuse_arrays).  Each
scan below serves several machines with the same steps and suspension
points; unit_arcs is the unweighted cursors' distance-1 scan, which
marks heads so parallel arcs give one pair.

Unchecked stretches.  A stretch with no emit is checked only at its
end.  A Dijkstra arc scan runs as one block, its steps charged in one
add, when the budget left in the pull is strictly larger than its worst
case, 2 + bit_length(len(pq) + deg) per arc.  A BFS scan and a sweep run
in chunks of as many arcs (4 steps at most each) or written cells (2
each) as surely fit, and at least one.  A search moves its budget only
at _see_degree, before a scan, so each pull stops where a check per step
would.  Heap operations, each arc of a Dijkstra scan too large for its
block, has_out_arc and cheapest_out_arc run plain; their callers settle
the steps once they end at or past the deadline (metering.settle).  No
stretch spans an emit, which may ask to suspend.
Blocks and chunks test lazy cells inline; the Dijkstra block also writes
them inline, and it and extraction run the heap on its lists.
"""
from __future__ import annotations

from collections import deque

from .base import INFINITE
from ..lazyarray import LazyArray
from ..metering import NEVER, settle
from ..pq import AddressablePQ, sift_down, sift_up


def search_arrays(enum) -> list[LazyArray]:
    """A fresh array set for one search: its one lazy array."""
    return [LazyArray(enum.graph.n, enum.counter)]


def reuse_arrays(enum, arrays: list) -> None:
    """Fill the caller's empty array set, or reset it for the next search;
    either way one counted step."""
    if arrays:
        arrays[0].reset()
    else:
        arrays.extend(search_arrays(enum))


def search(enum, s: int, arrays, emit, *, skip_le: int = -1,
           skip_target: int | None = None, sweep: bool = True):
    """The graph's search from s on arrays: BFS or Dijkstra.

    skip_le is bfs_search's; a weighted search reads any skip_le >= 0 as
    dropping the self pair only, plus the one target skip_target.
    """
    if enum.graph.weighted:
        return dijkstra_search(enum, s, arrays[0], emit,
                               skip_self=skip_le >= 0,
                               skip_target=skip_target, sweep=sweep)
    return bfs_search(enum, s, arrays[0], emit, skip_le=skip_le, sweep=sweep)


def bfs_search(enum, s: int, dist: LazyArray, emit, *, skip_le: int = -1,
               sweep: bool = True):
    """Breadth-first search from s, emitting visits with hop distance.

    skip_le suppresses emissions with distance <= skip_le (-1 emits all,
    0 drops the self pair, 1 additionally drops direct neighbors).
    """
    g = enum.graph
    counter = enum.counter
    offsets, targets = g.offsets, g.targets
    index, back, value = dist._index, dist._back, dist._value
    dist.write(s, 0)
    counter.total += 1
    frontier = deque([s])
    if counter.total >= counter.deadline:
        yield
    while frontier:
        v = frontier.popleft()
        dv = value[index[v]]    # written before v joined the frontier
        counter.total += 2      # the pop and the read
        lo, hi = offsets[v], offsets[v + 1]
        enum._see_degree(hi - lo)
        if counter.total >= counter.deadline:
            yield
        nd = dv + 1
        # As many arcs as surely fit under the deadline, at most 4 steps
        # each, and at least one; then the check that follows the last.
        i = lo
        while i < hi:
            room = counter.deadline - counter.total
            end = hi if room > 4 * (hi - i) else i + max(1, (room - 1) // 4)
            wc = old = dist.written_count
            for w in targets[i:end]:
                p = index[w]
                if not (0 <= p < wc and back[p] == w):
                    index[w] = wc
                    back[wc] = w
                    value[wc] = nd
                    wc += 1
                    frontier.append(w)
            dist.written_count = wc
            counter.total += 2 * (end - i + wc - old)
            i = end
            if counter.total >= counter.deadline:
                yield
        parked = dv > skip_le and emit(s, v, dv)
        if parked or counter.total >= counter.deadline:
            yield
    if sweep:
        yield from sweep_unreached(enum, s, dist)


def dijkstra_search(enum, s: int, handles: LazyArray, emit, *,
                    skip_self: bool = False, skip_target: int | None = None,
                    sweep: bool = True):
    """Best-first search from s, emitting settles in distance order.

    handles maps each reached vertex to its heap handle, whose key is
    the vertex's distance, final once extracted (pos[h] < 0)."""
    counter = enum.counter
    offsets, targets, weights = (enum.graph.offsets, enum.graph.targets,
                                 enum.graph.weights)
    pq = AddressablePQ(counter)
    heap, pos, keys, payloads = pq._heap, pq._pos, pq._keys, pq._payloads
    scan = _arc_block(targets, weights, handles, pq)
    handles.write(s, pq.insert(0, s))   # into an empty heap: no comparison
    if counter.total >= counter.deadline:
        yield
    while heap:
        mark = counter.total
        h = heap[0]             # extract_min, on the heap's lists
        pos[heap[-1]] = 0
        heap[0] = heap[-1]
        heap.pop()
        pos[h] = -1
        if heap:
            counter.total += sift_down(heap, pos, keys, 0)
            if counter.total >= counter.deadline:
                yield from settle(counter, counter.total - mark)
        d, v = keys[h], payloads[h]
        counter.total += 1      # the settle
        lo, hi = offsets[v], offsets[v + 1]
        deg = hi - lo
        enum._see_degree(deg)
        if counter.total >= counter.deadline:
            yield
        if counter.deadline - counter.total \
                > deg * (2 + (len(heap) + deg).bit_length()):
            counter.total += scan(d, lo, hi)
        else:
            for i in range(lo, hi):
                counter.total += 1
                w = targets[i]
                h = handles.read(w)
                mark = counter.total
                if h is None:
                    handles.write(w, pq.insert(d + weights[i], w))
                elif pos[h] >= 0:
                    nd = d + weights[i]
                    counter.total += 1
                    mark += 1
                    if nd < keys[h]:
                        pq.decrease_key(h, nd)
                if counter.total >= counter.deadline:
                    # A check follows each step after mark (each sift
                    # comparison, the handle write) and, when there is
                    # none, the step at mark itself.
                    yield from settle(counter, max(1, counter.total - mark))
        parked = (v != s or not skip_self) and v != skip_target \
            and emit(s, v, d)
        if parked or counter.total >= counter.deadline:
            yield
    if sweep:
        yield from sweep_unreached(enum, s, handles)


def _arc_block(targets, weights, handles, pq):
    """Return scan(d, lo, hi): dijkstra_search's arc scan as a headroom
    block on the handle map's and the heap's lists.  It returns its
    counted steps: per arc 2, per new or live head 1 more plus its sift.
    The closure keeps these lists out of the search's generator, which a
    sorted pool holds one of per source: on CPython 3.11 a generator past
    pymalloc's 512 bytes raised a 300-vertex drain's peak RSS by 6-12%."""
    h_index, h_back, h_value = handles._index, handles._back, handles._value
    heap, pos, keys, payloads = pq._heap, pq._pos, pq._keys, pq._payloads

    def scan(d, lo, hi):
        h_wc = handles.written_count
        steps = 2 * (hi - lo)
        for i in range(lo, hi):
            w = targets[i]
            p = h_index[w]
            if 0 <= p < h_wc and h_back[p] == w:
                h = h_value[p]
                if pos[h] < 0:
                    continue        # extracted: final
                nd = d + weights[i]
                steps += 1
                if nd < keys[h]:
                    keys[h] = nd
                    steps += sift_up(heap, pos, keys, pos[h])
            else:
                h, j = len(keys), len(heap)
                keys.append(d + weights[i])
                payloads.append(w)
                pos.append(j)
                heap.append(h)
                h_index[w], h_back[h_wc], h_value[h_wc] = h_wc, w, h
                h_wc += 1
                steps += 1 + sift_up(heap, pos, keys, j)
        handles.written_count = h_wc
        return steps
    return scan


def sweep_unreached(enum, s: int, dist: LazyArray):
    """Emit (s, t, inf) for every t that a finished search from s left unset."""
    counter = enum.counter
    n = enum.graph.n
    index, back = dist._index, dist._back
    t = 0
    while t < n:
        room = counter.deadline - counter.total
        end = n if room == NEVER else min(n, t + (room - 1) // 2)
        wc = dist.written_count
        start = t
        while t < end and 0 <= (p := index[t]) < wc and back[p] == t:
            t += 1
        counter.total += 2 * (t - start)
        if t == n:
            return
        counter.total += 1
        stop = dist.read(t) is None and enum._emit(s, t, INFINITE)
        if stop or counter.total >= counter.deadline:
            yield
        t += 1


def fan_row(enum, s: int, first: int = 0):
    """Emit (s, t, inf) for every t != s from first on: the row of a
    vertex with no way out."""
    counter = enum.counter
    for t in range(first, enum.graph.n):
        counter.total += 1
        stop = t != s and enum._emit(s, t, INFINITE)
        if stop or counter.total >= counter.deadline:
            yield


def unit_arcs(enum, s: int, marks: list):
    """Emit (s, t, 1) once per distinct non-loop head t of s, checking the
    deadline per arc; marks is the caller's reused array set.  Returns
    True when s has a non-loop arc."""
    g, counter = enum.graph, enum.counter
    targets = g.targets
    reuse_arrays(enum, marks)
    seen = marks[0]
    if counter.total >= counter.deadline:
        yield
    out_arc = False
    for i in range(g.offsets[s], g.offsets[s + 1]):
        counter.total += 1
        t = targets[i]
        stop = False
        if t != s:
            out_arc = True
            if seen.read(t) is None:
                seen.write(t, 1)
                stop = enum._emit(s, t, 1)
        if stop or counter.total >= counter.deadline:
            yield
    return out_arc


def has_out_arc(g, counter, v: int) -> bool:
    """True when v has a non-loop arc; one counted step per arc examined."""
    for i in range(g.offsets[v], g.offsets[v + 1]):
        counter.total += 1
        if g.targets[i] != v:
            return True
    return False


def cheapest_out_arc(g, counter, v: int):
    """Return (weight, head) of v's cheapest non-loop arc (first wins
    ties), or (None, None); one counted step per arc of v."""
    offsets, targets, weights = g.offsets, g.targets, g.weights
    best_w = best_t = None
    for i in range(offsets[v], offsets[v + 1]):
        t = targets[i]
        if t != v and (best_w is None or weights[i] < best_w):
            best_w, best_t = weights[i], t
    counter.total += offsets[v + 1] - offsets[v]
    return best_w, best_t
