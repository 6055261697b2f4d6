"""Step counting and per-pull delay reports.

A StepCounter is the single accumulator all instrumented operations
charge against: one count per adjacency arc examined, per queue push or
pop, per lazy-array read/write, per heap comparison, and per iteration
of a sweep loop.  The counter also tracks lazy-array cell allocation so
reports can state peak concurrently-live cells.

It also carries the deadline of the pull in progress: the step total
at which the machine must suspend.  A pull sets it to its start plus
its budget and puts it back to NEVER when it ends, so work driven
outside a pull (preprocessing) runs straight through its suspension
points.  Only the tests' per-step reference
counter holds a deadline that is always passed.

A stretch that emits nothing runs as plain code, with no check of its
own.  If it ends at or past the deadline, the caller hands its last
steps, each of which a check would have followed, to settle, which
suspends at exactly the totals those checks would have.  Nothing reads
the stretch's private state (its heap, its array, the graph) while the
machine is suspended, so only the totals can tell the two apart.

A Meter records the counted steps of every pull it makes; run_metered
drives one to the end of the stream.  Metering itself never touches the
counter, so a report reflects exactly what the machine spent.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

NEVER = math.inf


class StepCounter:
    __slots__ = ("total", "deadline", "lazy_live_cells", "lazy_peak_cells",
                 "lazy_alloc_count")

    def __init__(self):
        self.total = 0
        self.deadline = NEVER
        self.lazy_live_cells = 0
        self.lazy_peak_cells = 0
        self.lazy_alloc_count = 0

    def record_alloc(self, cells: int) -> None:
        self.lazy_alloc_count += 1
        self.lazy_live_cells += cells
        if self.lazy_live_cells > self.lazy_peak_cells:
            self.lazy_peak_cells = self.lazy_live_cells

    def record_release(self, cells: int) -> None:
        self.lazy_live_cells -= cells


def settle(counter: StepCounter, steps: int):
    """Suspend at the totals where a check after each of the last steps
    counted steps would have suspended.  Call it only once counter.total
    >= counter.deadline.  It takes the steps back and charges them again
    one deadline at a time; a deadline already passed when they began
    stops one step in.  It counts the steps left, not totals, since a
    counter shared with other machines moves while this one waits."""
    counter.total -= steps
    while (step := max(1, counter.deadline - counter.total)) <= steps:
        counter.total += step
        steps -= step
        yield
    counter.total += steps


@dataclass
class DelayReport:
    """Measured schedule of one full enumeration run."""

    pulls: int
    max_delay: int
    mean_delay: Fraction
    per_phase_max: dict[str, int]
    declared_bound_value: int
    fitted_constant: Fraction | None
    peak_queue: int
    lazy_cells_allocated: int
    preprocessing_steps: int
    wall_time_s: float = field(compare=False, default=0.0)

    def to_kv(self) -> str:
        rows = [
            f"pulls={self.pulls}",
            f"max_delay={self.max_delay}",
            f"mean_delay={self.mean_delay}",
            f"declared_bound_value={self.declared_bound_value}",
            f"fitted_constant={self.fitted_constant if self.fitted_constant is not None else 'na'}",
            f"peak_queue={self.peak_queue}",
            f"lazy_cells_allocated={self.lazy_cells_allocated}",
            f"preprocessing_steps={self.preprocessing_steps}",
        ]
        for phase in sorted(self.per_phase_max):
            rows.append(f"phase_max.{phase}={self.per_phase_max[phase]}")
        rows.append(f"wall_time_s={self.wall_time_s:.6f}")
        return "\n".join(rows) + "\n"


class Meter:
    """Iterate an enumerator's stream, recording the counted steps of each
    pull; report() describes the pulls made so far, so a caller may stop
    early.  The pull that detects end-of-stream counts as a pull.
    Preprocessing (work the enumerator performs before its first delay
    window) is measured separately and excluded from delays."""

    def __init__(self, enum):
        self.enum = enum
        self._t0 = time.perf_counter()
        enum.prepare()
        self.pulls = self.max_delay = self.total_delay = 0
        self.per_phase: dict[str, int] = {}

    def __iter__(self):
        enum, counter, per_phase = self.enum, self.enum.counter, \
            self.per_phase
        while True:
            phase = enum.phase
            before = counter.total
            triple = enum.pull()
            delta = counter.total - before
            self.pulls += 1
            self.total_delay += delta
            if delta > self.max_delay:
                self.max_delay = delta
            if delta > per_phase.get(phase, 0):
                per_phase[phase] = delta
            if triple is None:
                return
            yield triple

    def report(self) -> DelayReport:
        enum, pulls = self.enum, self.pulls
        base = enum.bound_base()
        return DelayReport(
            pulls=pulls,
            max_delay=self.max_delay,
            mean_delay=Fraction(self.total_delay, pulls) if pulls
            else Fraction(0),
            per_phase_max=self.per_phase,
            declared_bound_value=enum.declared_bound(),
            fitted_constant=Fraction(self.max_delay) / base if base > 0
            else None,
            peak_queue=enum.peak_queue,
            lazy_cells_allocated=enum.counter.lazy_peak_cells,
            preprocessing_steps=enum.preprocessing_steps,
            wall_time_s=time.perf_counter() - self._t0,
        )


def run_metered(enum, *, keep_triples: bool = True):
    """Drain an enumerator through a Meter, returning (triples, DelayReport)."""
    meter = Meter(enum)
    triples = []
    for triple in meter:
        if keep_triples:
            triples.append(triple)
    return triples, meter.report()


def fit_bound(max_delays, bases) -> Fraction:
    """Smallest constant C with max_delay <= C * base on every sample."""
    if len(max_delays) != len(bases) or not max_delays:
        raise ValueError("need matching non-empty samples")
    best = Fraction(0)
    for d, b in zip(max_delays, bases):
        b = Fraction(b)
        if b <= 0:
            raise ValueError("bound base must be positive")
        c = Fraction(d) / b
        if c > best:
            best = c
    return best
