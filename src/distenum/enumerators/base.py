"""Pull-driven enumeration with instrumented step budgets.

An enumerator owns a machine (a generator that performs counted work)
and a FIFO solution queue.  Each pull runs the machine until the current
phase's step budget is spent, then pops one solution.  The pull publishes
its deadline (start plus budget) on the StepCounter; the machine checks
it at every instrumented step and suspends only once it is reached, so a
pull costs one generator resume and still stops at the exact step the
budget runs out.  A budget that moves mid-pull moves the deadline too.
A stretch that emits nothing runs unchecked, in a block the budget
left surely covers or plain with its steps settled at the deadline
afterwards (see searches.py, metering.settle); neither moves a stop.
An emit may also ask for a suspension: after an emit that returns
True, the emit site suspends the machine at its next check.
Machines bank solutions ahead of schedule in the queue, up to a cap
linear in n; the emit that fills the queue to the cap asks, and the
pull then stops early, which can only shorten the observed delay.
The queue grows only while the machine runs, so pull records its
high-water mark (peak_queue) once, just before the pop.  If a
budget ever expires with nothing banked and the machine still running,
the schedule's accounting is broken and pull raises ScheduleUnderflow.

Budgets are integers computed from degree statistics seen so far, so
they are available to the machine itself and grow monotonically during
a run.  declared_bound() is the final budget plus a small constant slop
covering the worst charge between two deadline checks plus the pop; every
pull's counted steps stay at or below it.

Two schedule devices of the all-pairs regimes are written here once:
the self-pair head bank (Enumerator._self_pairs; _degrees when n <= 2)
and the unordered streams' average-degree budget (AverageDegreeEnumerator).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..graph import Graph
from ..metering import NEVER, StepCounter

INFINITE = math.inf


class DistanceTriple(NamedTuple):
    source: int
    target: int
    distance: int | float


@dataclass(frozen=True)
class OutputMode:
    row_wise: bool = False
    no_self: bool = False
    reachable_only: bool = False
    sorted: bool = False

    def __post_init__(self):
        if self.row_wise and self.sorted:
            raise ValueError("row_wise output cannot also be globally sorted")


class ScheduleUnderflow(RuntimeError):
    """A pull budget expired with an empty solution queue and a live machine."""


# Budget constants.  They were frozen against the test corpus, and the
# acceptance bounds (declared bounds, fitted constants, the golden
# reports) are stated in terms of them, so changing one moves every
# report of the regimes it feeds.
HEAD_BUDGET = 12        # constant budget of a head-start phase
PER_MAX_DEGREE = 8      # coefficient on (max degree seen + 1)
PER_AVG_DEGREE = 16     # coefficient on (average degree + 1)
PER_POOL_DEGREE = 12    # coefficient for the sorted instance pools
SLOP = 8                # worst charge between two checks, plus the pop


def log2_ceil(n: int) -> int:
    """ceil(log2(n)) for n >= 2, and 1 for n < 2."""
    return max(1, (max(n, 2) - 1).bit_length())


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Enumerator:
    """Base pull scheduler; subclasses provide the machine (_run) and may
    replace the default max-degree budget."""

    # Pair machines whose deduped runs interleave kept-rich and filtered
    # sources opt in; pacing without that balance starves the queue.
    _dedup_paced = False
    # Coefficient of the default, max-degree budget.
    _per_degree = PER_MAX_DEGREE

    def __init__(self, graph: Graph, mode: OutputMode = OutputMode(),
                 counter: StepCounter | None = None, dedup: bool = False):
        if dedup and graph.directed:
            raise ValueError("dedup requires an undirected graph")
        self.graph = graph
        self.mode = mode
        self.counter = counter if counter is not None else StepCounter()
        self.q: deque[DistanceTriple] = deque()
        self.phase = "stream"
        self.peak_queue = 0
        self.emitted = 0
        self.preprocessing_steps = 0
        # Dedup keeps one representative per unordered pair.  Filtering
        # happens at production time, so at most every second emission
        # survives: the budget doubles to compensate, and so does the
        # queue cap, since the queue also banks against filtered
        # stretches, which pass through production without refilling it.
        self.dedup = dedup
        self._budget_scale = 2 if dedup else 1
        self.qcap = max(16, 2 * graph.n) * self._budget_scale
        self._keep_key = self._dedup_key_fn() if dedup else None
        self._paced = dedup and self._dedup_paced
        self._paced_stop = False
        self._pull_start = None
        self._produced_in_pull = 0
        self._dmax_seen = 0
        self._budget_cached = 1
        self._machine = None
        self._prepared = False

    # -- public interface -------------------------------------------------

    def prepare(self) -> None:
        """Run preprocessing (counted separately) and arm the machine."""
        if self._prepared:
            return
        before = self.counter.total
        self._preprocess()
        self._machine = self._run()
        self.preprocessing_steps = self.counter.total - before
        self._refresh_budget()
        self._prepared = True

    def pull(self) -> DistanceTriple | None:
        if not self._prepared:
            self.prepare()
        counter = self.counter
        start = counter.total
        machine = self._machine
        if machine is not None:
            self._produced_in_pull = 0
            self._paced_stop = False
            self._pull_start = start
            counter.deadline = start + self._budget_cached
            try:
                while counter.total - start < self._budget_cached:
                    try:
                        next(machine)
                    except StopIteration:
                        self._machine = None
                        break
                    if self._paced_stop or len(self.q) >= self.qcap:
                        break
            finally:
                # Between pulls nothing may suspend on this pull's
                # deadline: not preprocessing drains, not another
                # enumerator on the same counter.
                counter.deadline = NEVER
                self._pull_start = None
        q = self.q
        if q:
            if len(q) > self.peak_queue:
                self.peak_queue = len(q)
            counter.total += 1
            triple = q.popleft()
            self.emitted += 1
            # Head-start regimes leave their constant budget once the
            # first half of the self-pair bank has gone out.
            if self.phase == "head" and self.emitted >= self.graph.n // 2:
                self.phase = "stream"
                self._refresh_budget()
            return triple
        if self._machine is None:
            return None
        raise ScheduleUnderflow(
            f"budget {self._budget_cached} expired with an empty solution queue "
            f"in phase {self.phase!r} after {self.emitted} outputs")

    def __iter__(self):
        return iter(self.pull, None)

    def declared_bound(self) -> int:
        """Per-pull step bound the schedule promises never to exceed."""
        if not self._prepared:
            self.prepare()
        return self._budget_cached + SLOP

    def bound_base(self) -> Fraction:
        """Graph quantity the variant's delay is stated against."""
        return base_max_degree(self.graph)

    # -- subclass hooks ---------------------------------------------------

    def _preprocess(self) -> None:
        pass

    def _run(self):
        """The machine: a generator of counted work.  It checks the
        counter's deadline at each instrumented step and suspends once the
        deadline is reached or right after an emit that returns True."""
        raise NotImplementedError

    def _refresh_budget(self) -> None:
        # The default budget tracks the largest degree seen;
        # AverageDegreeEnumerator overrides this and bound_base.
        # Weighted runs add the heap's log factor.
        d = self._dmax_seen
        ell = log2_ceil(self.graph.n) if self.graph.weighted else 0
        self._budget_cached = self._per_degree * self._budget_scale \
            * ((d + 1) * (1 + ell) + ell)

    def _dedup_key_fn(self):
        return lambda v: v

    # -- machinery shared by subclasses -----------------------------------

    def _emit(self, u: int, v: int, d) -> bool:
        """Bank (u, v, d) unless the dedup filter drops it.  Return True
        when the machine must suspend right after this visit: the append
        that fills the queue to its cap asks (pull then ends the pull),
        paced dedup machines ask to end the pull, the no-self machine
        asks at its refill mark (and a sorted pool instance's emit always
        asks).  Only paced machines count their production, since only
        their test reads the count; pull records peak_queue."""
        key = self._keep_key
        if key is None or key(u) <= key(v):
            self.counter.total += 1
            q = self.q
            # tuple.__new__ skips the namedtuple's Python-level __new__
            q.append(tuple.__new__(DistanceTriple, (u, v, d)))
            if len(q) >= self.qcap:
                return True
        # Paced machines fund two production slots per pull (one kept,
        # one filtered on average) instead of burning the whole doubled
        # budget, which would inflate the observed delay far past twice
        # the plain run's whenever a filtered stretch lands in a single
        # pull.  A thin queue suspends the pacing, so low-bank stretches
        # burn like a plain run; thin means too little to cover a run of
        # filtered visits, each of which can cost about 2 * dmax steps.
        # Production is the only way the test can turn true; the emit
        # site suspends the machine on the True return and pull ends.
        if self._paced:
            self._produced_in_pull += 1
            if self._produced_in_pull >= 2 \
                    and len(self.q) >= 2 * (self._dmax_seen + 1):
                self._paced_stop = True
                return True
        return False

    def _self_pairs(self):
        """Bank every (v, v, 0) at one counted step per vertex; return the
        largest degree.  The pull runs a head phase on a constant budget
        while the first half goes out; a paced pull can end it mid-loop,
        so the running degree sum is written at every vertex."""
        g, c = self.graph, self.counter
        total = dmax = 0
        for v in range(g.n):
            c.total += 1
            d = g.degree(v)
            total += d
            if d > dmax:
                dmax = d
            self._degree_sum = total
            if self._emit(v, v, 0) or c.total >= c.deadline:
                yield
        return dmax

    def _degrees(self) -> tuple[int, int]:
        """(degree sum, max degree) at one counted step per vertex: the
        degree pass of every setup that needs one, and the stand-in for
        the head phase when n <= 2."""
        degs = [self.graph.degree(v) for v in range(self.graph.n)]
        self.counter.total += len(degs)
        return sum(degs), max(degs, default=0)

    def _see_degree(self, deg: int) -> None:
        if deg > self._dmax_seen:
            self._dmax_seen = deg
            self._budget_moved()

    def _budget_moved(self) -> None:
        """Recompute the budget; mid-pull, move the deadline with it."""
        self._refresh_budget()
        if self._pull_start is not None:
            self.counter.deadline = self._pull_start + self._budget_cached


class AverageDegreeEnumerator(Enumerator):
    """The unordered pair streams' budget: the average of the degrees the
    machine has summed so far, or HEAD_BUDGET in a head phase."""

    _dedup_paced = True
    _degree_sum = 0

    def bound_base(self) -> Fraction:
        return base_avg_degree(self.graph)

    def _refresh_budget(self) -> None:
        n = self.graph.n
        if self.phase == "head":
            budget = HEAD_BUDGET
        elif n == 0:
            budget = PER_AVG_DEGREE
        else:
            ell = log2_ceil(n) if self.graph.weighted else 0
            budget = ceil_div(
                PER_AVG_DEGREE * (self._degree_sum + n) * (1 + ell), n)
        self._budget_cached = budget * self._budget_scale


def base_max_degree(graph: Graph) -> Fraction:
    ell = log2_ceil(graph.n) if graph.weighted else 0
    return Fraction(graph.stats().max_degree * (1 + ell) + ell)


def base_avg_degree(graph: Graph) -> Fraction:
    ell = log2_ceil(graph.n) if graph.weighted else 0
    return graph.stats().avg_degree + ell
