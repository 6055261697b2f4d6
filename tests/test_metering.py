"""Step counting, delay reports, and bound fitting."""
from fractions import Fraction

import pytest

from distenum import (OutputMode, StepCounter, fit_bound, from_edge_list,
                      gen_clique_path, make_enumerator, run_metered)
from distenum.enumerators.base import Enumerator
from distenum.metering import settle


class NoOpEnumerator(Enumerator):
    """Produces nothing; any steps in its report come from the harness."""

    def _run(self):
        return iter(())

    def _refresh_budget(self):
        self._budget_cached = 1

    def bound_base(self):
        return 1


def test_metering_adds_zero_steps():
    g = from_edge_list(0, [], False)
    enum = NoOpEnumerator(g)
    before = enum.counter.total
    triples, rep = run_metered(enum)
    assert triples == []
    assert enum.counter.total == before
    assert rep.max_delay == 0
    assert rep.pulls == 1


def test_single_vertex_sssd():
    g = from_edge_list(1, [], False)
    triples, rep = run_metered(make_enumerator(g, source=0))
    assert [tuple(t) for t in triples] == [(0, 0, 0)]
    assert rep.pulls == 2
    assert 0 < rep.max_delay <= rep.declared_bound_value


def test_determinism():
    g = gen_clique_path(4)
    reports = []
    for _ in range(2):
        _, rep = run_metered(make_enumerator(g, OutputMode(no_self=True)))
        reports.append(rep)
    a, b = reports
    assert (a.pulls, a.max_delay, a.mean_delay, a.per_phase_max,
            a.declared_bound_value, a.fitted_constant, a.peak_queue,
            a.lazy_cells_allocated, a.preprocessing_steps) == \
           (b.pulls, b.max_delay, b.mean_delay, b.per_phase_max,
            b.declared_bound_value, b.fitted_constant, b.peak_queue,
            b.lazy_cells_allocated, b.preprocessing_steps)


def test_report_invariants_on_corpus(corpus):
    for tag, g in corpus:
        triples, rep = run_metered(make_enumerator(g))
        assert rep.max_delay >= rep.mean_delay, tag
        assert rep.pulls == len(triples) + 1, tag
        assert max(rep.per_phase_max.values(), default=0) == rep.max_delay
        if rep.fitted_constant is not None:
            base = make_enumerator(g).bound_base()
            assert rep.fitted_constant == Fraction(rep.max_delay) / base


def test_counter_monotone():
    c = StepCounter()
    g = from_edge_list(3, [(0, 1), (1, 2)], False)
    enum = make_enumerator(g, counter=c)
    last = c.total
    while True:
        t = enum.pull()
        assert c.total >= last
        last = c.total
        if t is None:
            break


def _checked(counter, steps):
    for _ in range(steps):
        counter.total += 1
        if counter.total >= counter.deadline:
            yield


def _settled(counter, steps):
    counter.total += steps
    if counter.total >= counter.deadline:
        yield from settle(counter, steps)


def _suspensions(stretch, steps, room, budget, foreign):
    """Totals at each suspension of stretch(counter, steps), begun with
    room steps left before the deadline, and at its end.  At each
    suspension another machine on the counter charges foreign steps, and
    the next pull's deadline lies budget steps on."""
    c = StepCounter()
    c.total = 100
    c.deadline = c.total + room
    out = []
    for _ in stretch(c, steps):
        out.append(c.total)
        c.total += foreign
        c.deadline = c.total + budget
    return out, c.total


def test_settle_stops_where_per_step_checks_stop():
    for steps in range(7):
        for room in range(-1, 8):
            for budget in (1, 2, 3):
                for foreign in (0, 2):
                    args = steps, room, budget, foreign
                    assert _suspensions(_settled, *args) \
                        == _suspensions(_checked, *args), args


def test_fit_bound():
    assert fit_bound([40], [10]) == 4
    assert fit_bound([30, 30, 30], [10, 10, 10]) == 3
    # delay = 3*base + noise below one base stays under the next integer
    delays = [3 * 50 + 20, 3 * 80 + 11, 3 * 64 + 63]
    bases = [50, 80, 64]
    c = fit_bound(delays, bases)
    assert 3 <= c < 4
    with pytest.raises((ValueError, ZeroDivisionError)):
        fit_bound([10], [0])
    with pytest.raises(ValueError):
        fit_bound([10, 20], [5])
    with pytest.raises(ValueError):
        fit_bound([], [])


def test_to_kv_shape():
    g = from_edge_list(2, [(0, 1)], False)
    _, rep = run_metered(make_enumerator(g))
    text = rep.to_kv()
    keys = [line.split("=", 1)[0] for line in text.strip().splitlines()]
    for want in ("pulls", "max_delay", "mean_delay", "declared_bound_value",
                 "fitted_constant", "peak_queue", "lazy_cells_allocated",
                 "preprocessing_steps", "wall_time_s"):
        assert want in keys
