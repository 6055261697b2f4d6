"""Enumeration machines: stream contents, order, budgets, and space."""
import gc
import heapq
import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import (OutputMode, ScheduleUnderflow, brute_force_matrix,
                      from_edge_list, gen_clique_path, gen_isolated_plus_edge,
                      gen_random, gen_star, make_enumerator, run_metered,
                      validate)
from distenum.metering import Meter
from conftest import all_mode_combos, assert_valid_run, graphs, metered_run

INF = math.inf


def triples_of(g, mode=OutputMode(), **kw):
    triples, _ = metered_run(g, mode, **kw)
    return [tuple(t) for t in triples]


def path3():
    return from_edge_list(3, [(0, 1), (1, 2)], False)


# -- single source ----------------------------------------------------------

def test_sssd_path_exact_stream():
    assert triples_of(path3(), source=0) == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]


def test_sssd_isolated_source_zero_first():
    got = triples_of(from_edge_list(3, [], False), source=1)
    assert got[0] == (1, 1, 0)
    assert sorted(got[1:]) == [(1, 0, INF), (1, 2, INF)]


def test_sssd_no_self():
    assert triples_of(path3(), OutputMode(no_self=True), source=0) == \
        [(0, 1, 1), (0, 2, 2)]


def test_sssd_reachable_only_isolated_source():
    # the finite self distance stays; unreachable targets are dropped and
    # the stream ends promptly after the last finite triple
    g = from_edge_list(3, [], False)
    triples, rep = metered_run(g, OutputMode(reachable_only=True), source=1)
    assert [tuple(t) for t in triples] == [(1, 1, 0)]
    assert rep.pulls == 2
    assert rep.max_delay <= rep.declared_bound_value


def test_sssd_weighted_prefers_light_path():
    g = from_edge_list(3, [(0, 1, 9), (0, 2, 1), (2, 1, 1)], True,
                       weighted=True)
    got = triples_of(g, source=0)
    assert (0, 1, 2) in got and (0, 2, 1) in got


def test_sssd_bad_source_rejected():
    with pytest.raises(ValueError):
        make_enumerator(path3(), source=3)
    with pytest.raises(ValueError):
        make_enumerator(path3(), source=-1)


def test_sssd_dedup_rejected():
    with pytest.raises(ValueError):
        make_enumerator(path3(), source=0, dedup=True)


# -- row wise ---------------------------------------------------------------

def test_rowwise_path_grouped():
    got = triples_of(path3(), OutputMode(row_wise=True))
    assert len(got) == 9
    assert [t[0] for t in got] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for row in range(3):
        dists = [t[2] for t in got if t[0] == row]
        assert dists == sorted(dists)


def test_rowwise_single_vertex():
    assert triples_of(from_edge_list(1, [], False),
                      OutputMode(row_wise=True)) == [(0, 0, 0)]


# -- unconstrained ----------------------------------------------------------

def test_unconstrained_edge_selfs_first():
    got = triples_of(from_edge_list(2, [(0, 1)], False))
    assert set(got) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
    assert {got[0], got[1]} == {(0, 0, 0), (1, 1, 0)}


def test_unconstrained_empty_graph_selfs_then_inf():
    got = triples_of(from_edge_list(3, [], False))
    assert got[:3] == [(0, 0, 0), (1, 1, 0), (2, 2, 0)]
    assert all(t[2] == INF for t in got[3:]) and len(got) == 9


# -- no self ----------------------------------------------------------------

def test_noself_single_edge():
    got = triples_of(from_edge_list(2, [(0, 1)], False),
                     OutputMode(no_self=True))
    assert sorted(got) == [(0, 1, 1), (1, 0, 1)]


def test_noself_keeps_zero_weight_pairs():
    # no-self filters by vertex equality, not by distance
    g = from_edge_list(3, [(0, 1, 0)], True, weighted=True)
    got = triples_of(g, OutputMode(no_self=True))
    assert (0, 1, 0) in got


# -- reachable only ---------------------------------------------------------

def test_reachable_noself_empty_graph():
    g = from_edge_list(3, [], False)
    assert triples_of(g, OutputMode(reachable_only=True, no_self=True)) == []


def test_reachable_noself_isolated_plus_edge():
    got = triples_of(gen_isolated_plus_edge(5),
                     OutputMode(reachable_only=True, no_self=True))
    assert sorted(got) == [(3, 4, 1), (4, 3, 1)]


# -- sorted -----------------------------------------------------------------

def test_sorted_empty_graph():
    got = triples_of(from_edge_list(3, [], False), OutputMode(sorted=True))
    assert sorted(got[:3]) == [(0, 0, 0), (1, 1, 0), (2, 2, 0)]
    assert all(t[2] == INF for t in got[3:]) and len(got) == 9


def test_sorted_noself_single_edge():
    got = triples_of(from_edge_list(2, [(0, 1)], False),
                     OutputMode(sorted=True, no_self=True))
    assert sorted(got) == [(0, 1, 1), (1, 0, 1)]


def test_sorted_distances_non_decreasing(corpus):
    for tag, g in corpus:
        for ns in (False, True):
            got = triples_of(g, OutputMode(sorted=True, no_self=ns))
            dists = [t[2] for t in got]
            assert dists == sorted(dists), (tag, ns)


def test_sorted_sssd_star_orders_by_weight():
    w = [9, 2, 7, 2, 5]
    g = gen_star(6, w)
    got = triples_of(g, OutputMode(sorted=True), source=0)
    assert got[0] == (0, 0, 0)
    assert [t[2] for t in got[1:]] == sorted(w)


# -- dedup ------------------------------------------------------------------

def test_dedup_path_unconstrained():
    got = triples_of(path3(), dedup=True)
    assert len(got) == 6
    assert set(got) == {(0, 0, 0), (1, 1, 0), (2, 2, 0),
                        (0, 1, 1), (0, 2, 2), (1, 2, 1)}


def test_dedup_k3_noself():
    g = from_edge_list(3, [(0, 1), (0, 2), (1, 2)], False)
    got = triples_of(g, OutputMode(no_self=True), dedup=True)
    assert len(got) == 3
    assert all(t[2] == 1 for t in got)


def test_dedup_counts_and_budget(corpus, corpus_matrices):
    for tag, g in corpus:
        if g.directed or g.n == 0:
            continue
        for mode in (OutputMode(), OutputMode(no_self=True)):
            plain, prep = metered_run(g, mode)
            dd, drep = metered_run(g, mode, dedup=True)
            n = g.n
            want = n * (n - 1) // 2 + (0 if mode.no_self else n)
            assert len(dd) == want, (tag, mode)
            assert drep.max_delay <= 2 * prep.max_delay + 64, (tag, mode)
            v = validate(dd, corpus_matrices[tag], mode, dedup=True)
            assert v is None, (tag, mode, v)


@pytest.mark.parametrize("mode", [OutputMode(), OutputMode(no_self=True)],
                         ids=["plain", "no_self"])
def test_dedup_clique_path_drains(mode):
    # Each filtered clique visit costs about 2 * dmax steps and banks
    # nothing, so a paced pull must stop with that much in reserve.
    g = gen_clique_path(16)
    _, plain = metered_run(g, mode)
    _, rep = assert_valid_run(g, brute_force_matrix(g), mode, dedup=True)
    assert rep.max_delay <= 2 * plain.max_delay + 64


def test_dedup_rejected_on_directed():
    g = from_edge_list(2, [(0, 1)], True)
    with pytest.raises(ValueError):
        make_enumerator(g, dedup=True)


# -- mode plumbing ----------------------------------------------------------

def test_rowwise_sorted_rejected():
    with pytest.raises(ValueError):
        OutputMode(row_wise=True, sorted=True)


def test_end_of_stream_idempotent(corpus):
    for tag, g in corpus:
        enum = make_enumerator(g, OutputMode(no_self=True))
        while enum.pull() is not None:
            pass
        for _ in range(3):
            assert enum.pull() is None, tag


def test_iter_protocol():
    got = [tuple(t) for t in make_enumerator(path3(), source=0)]
    assert got == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]


class HighWaterQueue(deque):
    """A solution queue that records its largest length at every append:
    the per-append high-water mark that peak_queue must equal."""

    peak = 0

    def append(self, item):
        super().append(item)
        self.peak = max(self.peak, len(self))


@pytest.mark.parametrize("regime", [
    "unconstrained", "no_self", "paced_dedup", "sorted_weighted", "single"])
def test_peak_queue_is_the_pull_end_high_water_mark(regime):
    # pull records peak_queue once, before its pop; the queue only grows
    # while the machine runs, so that must equal the per-append maximum
    # after every pull, including a stream stopped early (as under
    # enumerate --limit N --report).
    unweighted = gen_random(40, 160, seed=7)
    g, mode, kw = {
        "unconstrained": (unweighted, OutputMode(), {}),
        "no_self": (unweighted, OutputMode(no_self=True), {}),
        "paced_dedup": (unweighted, OutputMode(), {"dedup": True}),
        "sorted_weighted": (gen_random(30, 90, directed=True, max_weight=9,
                                       seed=3), OutputMode(sorted=True), {}),
        "single": (gen_random(60, 240, max_weight=9, seed=4), OutputMode(),
                   {"source": 5}),
    }[regime]
    phases, cap_stops = set(), 0
    for limit in (None, 37):
        enum = make_enumerator(g, mode, **kw)
        enum.q = queue = HighWaterQueue()
        meter = Meter(enum)
        for triple in itertools.islice(meter, limit):
            phases.add(enum.phase)
            cap_stops += queue.peak == enum.qcap
            assert enum.peak_queue == queue.peak, (regime, limit)
        assert meter.report().peak_queue == queue.peak > 0
        if regime == "paced_dedup":
            assert enum._paced
    if regime == "unconstrained":
        # the pulls covered the head phase and queues filled to the cap
        assert "head" in phases and cap_stops


# -- recycled lazy arrays ---------------------------------------------------

def dijkstra_row(g, s):
    """Plain heapq Dijkstra: the distances from s to every reached vertex."""
    dist, heap = {}, [(0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for i in range(g.offsets[v], g.offsets[v + 1]):
            if g.targets[i] not in dist:
                heapq.heappush(heap, (d + g.weights[i], g.targets[i]))
    return dist


def test_recycled_arrays_repeat_prefixes_and_drains():
    # Each 16-triple prefix stops mid-search, so the enumerator dies as
    # cyclic garbage; its three arrays' lists come back at the collection
    # and the next query takes them.  No query may see a trace of an
    # earlier one.
    g = gen_random(2000, 8000, max_weight=20, seed=11)
    mode = OutputMode(no_self=True, reachable_only=True)
    seen = {}
    for s in (3, 1077, 3, 1077, 1999, 3):
        gc.collect()
        enum = make_enumerator(g, mode, source=s)
        meter = Meter(enum)
        prefix = [tuple(t) for t in itertools.islice(meter, 16)]
        assert enum._machine is not None
        got = (prefix, meter.report())
        assert seen.setdefault(s, got) == got, s
        ref = dijkstra_row(g, s)
        del ref[s]
        assert [d for _, _, d in prefix] == sorted(ref.values())[:16]
        assert all(u == s and d == ref[v] for u, v, d in prefix)
        assert len({v for _, v, _ in prefix}) == 16
    del enum, meter
    # A graph of another n: the first deaths switch the spares' capacity.
    g2 = gen_random(70, 280, directed=True, max_weight=9, seed=12)
    sorted_mode = OutputMode(sorted=True, no_self=True)
    runs = []
    for _ in range(2):
        gc.collect()
        runs.append(assert_valid_run(g2, brute_force_matrix(g2), sorted_mode,
                                     tag="sorted after single-source"))
    assert runs[0] == runs[1]


# -- full corpus sweep ------------------------------------------------------

def test_every_mode_on_every_corpus_graph(corpus, corpus_matrices):
    for tag, g in corpus:
        matrix = corpus_matrices[tag]
        for mode in all_mode_combos():
            assert_valid_run(g, matrix, mode, tag=f"{tag}/{mode}")
            if not g.directed:
                assert_valid_run(g, matrix, mode, dedup=True,
                                 tag=f"{tag}/{mode}/dedup")
        for s in range(min(2, g.n)):
            for mode in (OutputMode(), OutputMode(no_self=True),
                         OutputMode(reachable_only=True),
                         OutputMode(sorted=True)):
                assert_valid_run(g, matrix, mode, source=s,
                                 tag=f"{tag}/s{s}/{mode}")


def test_queue_stays_linear_for_linear_space_variants(corpus):
    for tag, g in corpus:
        n = g.n
        cap = max(16, 2 * n) + 8
        for mode in (OutputMode(), OutputMode(row_wise=True),
                     OutputMode(no_self=True),
                     OutputMode(reachable_only=True)):
            _, rep = metered_run(g, mode)
            assert rep.peak_queue <= cap, (tag, mode, rep.peak_queue)


def test_lazy_cells_linear_for_linear_space_variants(corpus):
    for tag, g in corpus:
        bound = 8 * g.n + 8
        for mode in (OutputMode(), OutputMode(row_wise=True),
                     OutputMode(no_self=True),
                     OutputMode(reachable_only=True)):
            enum = make_enumerator(g, mode)
            run_metered(enum, keep_triples=False)
            assert enum.counter.lazy_peak_cells <= bound, (tag, mode)


def test_underflow_is_a_runtime_error_subclass():
    assert issubclass(ScheduleUnderflow, RuntimeError)


# -- property tests ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(graphs(), st.sampled_from(all_mode_combos()))
def test_property_stream_matches_oracle(g, mode):
    matrix = brute_force_matrix(g)
    triples, rep = metered_run(g, mode)
    assert validate(triples, matrix, mode) is None
    assert rep.max_delay <= rep.declared_bound_value


@settings(max_examples=25, deadline=None)
@given(graphs())
def test_property_dedup_one_representative(g):
    if g.directed:
        g = from_edge_list(g.n, [], False)
    triples, _ = metered_run(g, OutputMode(no_self=True), dedup=True)
    seen = set()
    for t in triples:
        key = frozenset((t.source, t.target))
        assert key not in seen
        seen.add(key)
    assert len(triples) == g.n * (g.n - 1) // 2


@settings(max_examples=25, deadline=None)
@given(graphs(), st.integers(0, 9))
def test_property_sssd_row_of_matrix(g, s):
    s %= g.n
    matrix = brute_force_matrix(g)
    triples, _ = metered_run(g, source=s)
    assert len(triples) == g.n
    for t in triples:
        assert t.source == s
        assert t.distance == matrix.entry(s, t.target)


def test_large_random_spot_checks():
    # a couple of mid-size runs with every structural property at once
    for seed, directed, mw in ((1, False, 0), (2, True, 0), (3, False, 7)):
        g = gen_random(40, 120, directed=directed, max_weight=mw,
                       seed=seed)
        matrix = brute_force_matrix(g)
        for mode in (OutputMode(sorted=True, no_self=True),
                     OutputMode(row_wise=True, reachable_only=True)):
            assert_valid_run(g, matrix, mode, tag=f"spot{seed}")


def test_clique_path_all_modes():
    g = gen_clique_path(4)
    matrix = brute_force_matrix(g)
    for mode in all_mode_combos():
        assert_valid_run(g, matrix, mode, tag=f"cp4/{mode}")
