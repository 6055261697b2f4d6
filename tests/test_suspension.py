"""Deadline-gated suspension: machines suspend only where a pull stops them.

A pull publishes its deadline on the StepCounter and a machine checks it
at every instrumented step; it suspends there once the deadline is
reached, or right after an emit that asks it to.  That must give the
same streams and the same counted steps, pull by pull, as suspending at
every step (the reference: a counter whose deadline is always passed);
it must cost about one machine resume per pull; and the deadline must
belong to the pull in progress alone.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import (OutputMode, StepCounter, gen_clique_path, gen_random,
                      make_enumerator, run_metered)
from distenum.enumerators import NoSelfApsdEnumerator
from distenum.metering import NEVER

from conftest import all_mode_combos, graphs, small_corpus


class EveryStepCounter(StepCounter):
    """A counter whose deadline is always passed, so a machine on it
    suspends at every instrumented step."""

    __slots__ = ()
    deadline = property(lambda self: -1, lambda self, value: None)


def _make(g, mode, source, dedup, every_step):
    counter = EveryStepCounter() if every_step else None
    return make_enumerator(g, mode, source=source, dedup=dedup,
                           counter=counter)


def metered(g, mode, *, source=None, dedup=False, every_step=False):
    """Drain one run; return (stream, steps of each pull, DelayReport).

    every_step=True runs it on an EveryStepCounter.
    """
    enum = _make(g, mode, source, dedup, every_step)
    steps = []
    pull = enum.pull

    def counted_pull():
        before = enum.counter.total
        triple = pull()
        steps.append(enum.counter.total - before)
        return triple

    enum.pull = counted_pull
    triples, report = run_metered(enum)
    return triples, steps, report


def assert_gating_invisible(g, mode, *, source=None, dedup=False):
    gated = metered(g, mode, source=source, dedup=dedup)
    every = metered(g, mode, source=source, dedup=dedup, every_step=True)
    assert gated[0] == every[0], "streams differ"
    assert gated[1] == every[1], "per-pull steps differ"
    # DelayReport equality leaves out wall_time_s
    assert gated[2] == every[2], "reports differ"


@st.composite
def runs(draw):
    g = draw(graphs())
    mode = draw(st.sampled_from(all_mode_combos()))
    source = draw(st.one_of(st.none(), st.integers(0, g.n - 1)))
    dedup = source is None and not g.directed and draw(st.booleans())
    return g, mode, source, dedup


@settings(max_examples=150, deadline=None)
@given(runs())
def test_gated_matches_every_step_suspension(run):
    g, mode, source, dedup = run
    assert_gating_invisible(g, mode, source=source, dedup=dedup)


def _mid_graphs():
    out = [pytest.param(gen_clique_path(6), id="clique-path-6")]
    for directed in (False, True):
        for max_weight in (0, 9):
            g = gen_random(40, 120, directed=directed, max_weight=max_weight,
                           seed=11)
            tag = f"rand40-{'d' if directed else 'u'}-w{max_weight}"
            out.append(pytest.param(g, id=tag))
    return out


@pytest.mark.parametrize("g", _mid_graphs())
def test_gated_matches_every_step_on_mid_graphs(g):
    # Large enough that budgets grow mid-pull as denser vertices turn
    # up, so the deadline is re-armed inside pulls.
    for mode in all_mode_combos():
        assert_gating_invisible(g, mode)
        if not g.directed:
            assert_gating_invisible(g, mode, dedup=True)
    assert_gating_invisible(g, OutputMode(), source=0)


def resumes_and_pulls(g, mode, *, source=None, dedup=False,
                      every_step=False):
    """Drain one run, counting how often pulls resume the machine."""
    enum = _make(g, mode, source, dedup, every_step)
    enum.prepare()
    machine = enum._machine
    resumes = 0

    def counted():
        nonlocal resumes
        while True:
            resumes += 1
            try:
                item = next(machine)
            except StopIteration:
                return
            yield item

    enum._machine = counted()
    pulls = 1
    while enum.pull() is not None:
        pulls += 1
    return enum, resumes, pulls


def test_one_resume_per_pull():
    # The sorted pool's own resumes of its search instances happen
    # inside the machine and are not counted here.
    checked = 0
    for tag, g in small_corpus():
        cases = [(mode, None, False) for mode in all_mode_combos()]
        cases += [(mode, None, True) for mode in all_mode_combos()
                  if not g.directed]
        cases += [(OutputMode(), s, False) for s in range(min(g.n, 3))]
        for mode, source, dedup in cases:
            enum, resumes, pulls = resumes_and_pulls(
                g, mode, source=source, dedup=dedup)
            assert resumes <= pulls, (tag, mode, source, dedup)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("g", _mid_graphs())
def test_no_self_resumes_track_pulls_on_mid_graphs(g):
    # The no-self machine also suspends where its cursor/search choice
    # flips, which a pull may see a few times; it must stay near one.
    for dedup in (False, True) if not g.directed else (False,):
        enum, resumes, pulls = resumes_and_pulls(
            g, OutputMode(no_self=True), dedup=dedup)
        assert isinstance(enum, NoSelfApsdEnumerator)
        assert resumes <= 1.1 * pulls, (dedup, resumes, pulls)


def test_resume_count_sees_every_step_suspension():
    # The counts above would catch a machine that suspends per step.
    g = gen_random(14, 25, directed=False, seed=3)
    for mode in (OutputMode(), OutputMode(sorted=True),
                 OutputMode(no_self=True)):
        _, resumes, pulls = resumes_and_pulls(g, mode, every_step=True)
        assert resumes > 2 * pulls, mode


def test_shared_counter_interleaved_pulls():
    # Weighted sorted no-self runs heap and scan drains in preprocessing;
    # it is prepared mid-way through the other streams, so those drains
    # run between their pulls.
    ga = gen_random(30, 90, directed=False, max_weight=9, seed=2)
    gb = gen_random(25, 80, directed=True, max_weight=7, seed=3)
    specs = [(ga, OutputMode(), {"dedup": True}),
             (gb, OutputMode(sorted=True, no_self=True), {}),
             (ga, OutputMode(no_self=True), {}),
             (gb, OutputMode(row_wise=True), {})]
    want = [metered(g, mode, **kw)[:2] for g, mode, kw in specs]
    counter = StepCounter()
    enums = [make_enumerator(g, mode, counter=counter, **kw)
             for g, mode, kw in specs]
    got = [([], []) for _ in specs]
    live = set(range(len(specs)))
    turn = 0
    while live:
        for i in sorted(live):
            if i == 1 and turn < 40:
                continue
            enums[i].prepare()
            before = counter.total
            t = enums[i].pull()
            got[i][1].append(counter.total - before)
            assert counter.deadline == NEVER
            if t is None:
                live.discard(i)
            else:
                got[i][0].append(t)
        turn += 1
    for i, spec in enumerate(specs):
        assert got[i][0] == want[i][0], spec[1]
        assert got[i][1] == want[i][1], spec[1]
