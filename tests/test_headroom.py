"""Unchecked stretches stop exactly where per-step checks would.

A Dijkstra search runs an arc scan without deadline checks only when
the budget left in the pull is strictly larger than the scan's worst
case; a BFS scan and a sweep run in chunks of as many arcs or cells as
surely fit.  Every other stretch that emits nothing, heap operations
among them, runs plain and settles its steps (metering.settle) once it
ends at or past the deadline.  So at every deadline a machine must first
suspend at the same counted total as on EveryStepCounter, whose deadline
is always passed: there no block runs, a chunk holds one arc or cell,
and settle suspends after every step.  The graphs are small enough to
try every budget, and each has a stretch whose worst case is met
exactly, so a guard that let a block run with just its worst case left
would stop a step late.
"""
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import (AddressablePQ, LazyArray, OutputMode, StepCounter,
                      from_edge_list, gen_random, make_enumerator)
from distenum.enumerators import searches
from distenum.metering import settle

from conftest import all_mode_combos, graphs, small_corpus
from test_suspension import EveryStepCounter, metered


class Probe:
    """What a search sees of an enumerator: its graph and counter, a
    budget that never moves, and an emit that charges its bank step and
    never asks."""

    __slots__ = ("graph", "counter")

    def __init__(self, graph, counter):
        self.graph = graph
        self.counter = counter

    def _see_degree(self, deg):
        pass

    def _emit(self, s, t, d):
        self.counter.total += 1
        return False


def _graphs():
    # Self-loops, parallel arcs and an unreachable tail (the last two
    # vertices) in each.  Source 0's single arc in the weighted graphs
    # is scanned with an empty heap: its worst case, 3 steps, is met.
    und = from_edge_list(8, [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 2),
                             (2, 4), (3, 5), (4, 5), (6, 7)], False)
    dig = from_edge_list(8, [(0, 1), (0, 2), (0, 2), (2, 2), (1, 3), (2, 4),
                             (3, 5), (4, 5), (5, 0), (6, 0), (7, 6)], True)
    wdig = from_edge_list(8, [(0, 1, 4), (1, 2, 9), (1, 3, 5), (1, 4, 2),
                              (1, 1, 1), (2, 5, 0), (3, 5, 1), (3, 5, 1),
                              (4, 3, 1), (4, 2, 3), (5, 0, 2), (6, 0, 1)],
                          True, weighted=True)
    wund = from_edge_list(7, [(0, 1, 3), (1, 2, 8), (1, 3, 2), (1, 4, 1),
                              (2, 3, 1), (3, 4, 0), (4, 4, 5), (2, 4, 1),
                              (2, 4, 6)], False, weighted=True)
    # A wide fan fills the heap enough for an extraction's worst case,
    # two comparisons per level, to be met.
    fan = [(0, t, w) for t, w in zip(range(1, 10), (5, 3, 8, 1, 9, 2, 7, 4, 6))]
    fan += [(1, 2, 1), (4, 3, 0), (6, 9, 2), (9, 9, 1), (8, 7, 3), (8, 7, 1)]
    wide = from_edge_list(12, fan, True, weighted=True)
    return [pytest.param(g, id=tag) for tag, g in
            (("unweighted", und), ("directed", dig),
             ("weighted-directed", wdig), ("weighted", wund),
             ("weighted-fan", wide))]


def stops(budget, counter, machine):
    """Drive a fresh machine pull by pull, each pull's deadline budget
    steps past its start; return the counted totals, from the machine's
    first step, at its suspensions."""
    start = counter.total
    out = []
    while True:
        counter.deadline = counter.total + budget
        try:
            next(machine)
        except StopIteration:
            return out
        out.append(counter.total - start)


def reference_stops(budget, totals):
    """The same from the totals at every check of an every-step run."""
    out = []
    at = 0
    for total in totals:
        if total >= at + budget:
            out.append(total)
            at = total
    return out


def assert_blocks_invisible(build):
    """build(counter) -> machine; its arrays are allocated by then."""
    every = EveryStepCounter()
    machine = build(every)
    start = every.total
    totals = [every.total - start for _ in machine]
    last = every.total - start
    assert last > 0
    for budget in range(1, last + 2):
        counter = StepCounter()
        machine = build(counter)
        got = stops(budget, counter, machine)
        assert got == reference_stops(budget, totals), budget


def _search(kind, g, s):
    def build(counter):
        probe = Probe(g, counter)
        if kind == "sweep":
            dist = LazyArray(g.n, counter)
            for t in range(g.n):
                if t % 4 != 3:
                    dist.write(t, 1)
            return searches.sweep_unreached(probe, s, dist)
        arrays = searches.search_arrays(probe)
        if kind == "bfs":
            return searches.bfs_search(probe, s, arrays[0], probe._emit)
        return searches.dijkstra_search(probe, s, *arrays, probe._emit)
    return build


@pytest.mark.parametrize("g", _graphs())
def test_search_blocks_stop_where_checks_stop(g):
    kind = "dijkstra" if g.weighted else "bfs"
    for s in range(g.n):
        assert_blocks_invisible(_search(kind, g, s))
        assert_blocks_invisible(_search("sweep", g, s))


@settings(max_examples=100, deadline=None)
@given(graphs(weighted=True, zero_parallel=True))
def test_dijkstra_blocks_stop_where_checks_stop_on_random_graphs(g):
    # Random weighted graphs with a zero-weight parallel arc: decrease-
    # keys, ties on equal keys and non-improving reads at every budget.
    for s in range(g.n):
        assert_blocks_invisible(_search("dijkstra", g, s))


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="pymalloc's small-object limit")
def test_dijkstra_generator_is_a_small_object():
    # A sorted pool keeps one search generator per source alive; one
    # past pymalloc's 512 bytes goes to the system allocator, and a
    # 300-vertex sorted drain then peaked 6-12% higher in RSS.
    g = from_edge_list(2, [(0, 1, 1)], True, weighted=True)
    probe = Probe(g, StepCounter())
    gen = searches.dijkstra_search(probe, 0, *searches.search_arrays(probe),
                                   probe._emit)
    assert sys.getsizeof(gen) <= 512


# Per source of a 3000-vertex graph: SHA-256 of the first 64 pulls'
# triples, each with its pull's counted steps.  The heaps grow to
# hundreds of entries, so the guards' bit_length terms move.
LARGE_HEAP_PINS = {
    0: "c829d8be59b623d29359cba56d12310ad7a2fe9a96d00c427937d3daddcd4ba9",
    500: "73abac150f13012d9f1931e9808632a0ff0ea1efd7cc5ebbdef4f5ec7759fa30",
    1000: "930e3aa70353f53449b8010b5d99c31477c89a8b46c7c21a0857b94291334897",
    1500: "2698f6c8999f9c463b2463d7bfa5b99fff7e2cc49734b06cee7574ec882c38d0",
    2000: "5b040c8088b341c39d6171fa20c8bc349cc469718a450c8e3595e74e3dec4f96",
    2500: "2a896cadcbb2fcf099a712574f2e85771d024c94932572a19088df3367024e17",
}


def test_large_heap_single_source_pins():
    g = gen_random(3000, 12000, max_weight=1000, seed=11)
    mode = OutputMode(no_self=True, reachable_only=True)
    got = {}
    for s in LARGE_HEAP_PINS:
        counter = StepCounter()
        enum = make_enumerator(g, mode, source=s, counter=counter)
        enum.prepare()
        digest = hashlib.sha256()
        for _ in range(64):
            before = counter.total
            t = enum.pull()
            digest.update(f"{t.source} {t.target} {t.distance} "
                          f"{counter.total - before}\n".encode())
        got[s] = digest.hexdigest()
    assert got == LARGE_HEAP_PINS


@pytest.mark.parametrize("g", [p for p in _graphs()
                               if p.values[0].weighted])
@pytest.mark.parametrize("mode", [OutputMode(sorted=True),
                                  OutputMode(sorted=True, no_self=True)],
                         ids=["sorted", "sorted-no-self"])
def test_pool_heap_stops_where_checks_stop(g, mode):
    # The weighted pool driver runs plain heap operations and settles
    # their comparisons at the deadline.  The queue cap is lifted, so
    # the machine suspends at the deadline alone.
    def build(counter):
        enum = make_enumerator(g, mode, counter=counter)
        enum.prepare()
        enum.qcap = float("inf")
        return enum._machine
    assert_blocks_invisible(build)


def _heap_ops(seed, count):
    rng = random.Random(seed)
    ops, live = [], 0
    for _ in range(count):
        r = rng.random()
        if r < 0.5 or not live:
            ops.append(("insert", rng.randrange(20)))
            live += 1
        elif r < 0.7:
            ops.append(("decrease", rng.randrange(10 ** 6)))
        else:
            ops.append(("extract", None))
            live -= 1
    return ops


def _decrease_target(pq, handles, arg):
    live = [h for h in handles if pq._pos[h] >= 0]
    if not live:
        return None, None
    h = live[arg % len(live)]
    return h, pq._keys[h] // 2


def heap_machine(pq, ops, out):
    """Plain heap operations in sequence, each one's comparisons settled
    at the deadline as the searches and the pool driver do; handles and
    results are appended to out."""
    c = pq.counter
    handles = []
    for op, arg in ops:
        mark = c.total
        if op == "insert":
            handles.append(pq.insert(arg, len(handles)))
            out.append(handles[-1])
        elif op == "extract":
            out.append(pq.extract_min())
        else:
            h, key = _decrease_target(pq, handles, arg)
            if h is not None:
                pq.decrease_key(h, key)
                out.append((h, key))
        if c.total >= c.deadline:
            yield from settle(c, c.total - mark)


@pytest.mark.parametrize("seed", range(4))
def test_heap_operations_stop_where_checks_stop(seed):
    ops = _heap_ops(seed, 60)

    def build(counter):
        return heap_machine(AddressablePQ(counter), ops, [])
    assert_blocks_invisible(build)


heap_op_lists = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 30)),
    st.tuples(st.just("decrease"), st.integers(0, 100)),
    st.tuples(st.just("extract"), st.none())), max_size=120)


@settings(max_examples=150, deadline=None)
@given(heap_op_lists)
def test_plain_heap_matches_generator_heap(ops):
    # No pull, no deadline: nothing settles.  On a counter whose
    # deadline is always passed, every comparison suspends; the
    # operations must end the same either way.
    plain, settled = StepCounter(), EveryStepCounter()
    got, want = [], []
    for counter, out in ((plain, got), (settled, want)):
        for _ in heap_machine(AddressablePQ(counter), ops, out):
            pass
    assert got == want
    assert plain.total == settled.total


def test_inline_cell_tests_ignore_garbage(monkeypatch):
    # The searches test lazy cells inline; build every search array over
    # adversarial garbage and the runs must not notice.
    cases = []
    for tag, g in small_corpus():
        cases += [(tag, g, mode, None, False) for mode in all_mode_combos()]
        if not g.directed:
            cases += [(tag, g, mode, None, True)
                      for mode in all_mode_combos()]
        cases += [(tag, g, OutputMode(), s, False) for s in range(min(g.n, 2))]
    want = [metered(g, mode, source=source, dedup=dedup)
            for _, g, mode, source, dedup in cases]
    rng = random.Random(2024)

    def garbage_array(capacity, counter=None):
        return LazyArray(capacity, counter, garbage_rng=rng)

    monkeypatch.setattr(searches, "LazyArray", garbage_array)
    for case, expected in zip(cases, want):
        tag, g, mode, source, dedup = case
        assert metered(g, mode, source=source, dedup=dedup) == expected, \
            case
