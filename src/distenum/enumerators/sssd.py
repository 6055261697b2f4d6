"""Single-source distance enumeration with bounded per-output delay.

One search from the requested source, pulled a budget at a time.  The
budget scales with the largest degree seen so far, so the schedule
adapts as denser vertices are reached.  Output order is hop order
(unweighted) or distance order (weighted); both are sorted by distance
and trivially row-wise.
"""
from __future__ import annotations

from fractions import Fraction

from .base import Enumerator, OutputMode, base_max_degree
from .searches import search, search_arrays


class SingleSourceEnumerator(Enumerator):
    def __init__(self, graph, source: int, mode: OutputMode = OutputMode(),
                 counter=None, config=None):
        super().__init__(graph, counter, config)
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range for n={graph.n}")
        self.source = source
        self.mode = mode
        if mode.no_self:
            self._budget_scale *= 2

    def _make_machine(self):
        skip = 0 if self.mode.no_self else -1
        return search(self, self.source, search_arrays(self), self._emit,
                      skip_le=skip, sweep=not self.mode.reachable_only)

    def _refresh_budget(self):
        self._budget_cached = self._budget_max_degree(
            self.config.per_max_degree, self.graph.weighted)

    def bound_base(self) -> Fraction:
        return base_max_degree(self.graph)
