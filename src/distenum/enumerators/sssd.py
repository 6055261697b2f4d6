"""Single-source distance enumeration with bounded per-output delay.

One search from the requested source, pulled a budget at a time.  The
budget scales with the largest degree seen so far, so the schedule
adapts as denser vertices are reached.  Output order is hop order
(unweighted) or distance order (weighted); both are sorted by distance
and trivially row-wise.
"""
from __future__ import annotations

from .base import Enumerator
from .searches import search, search_arrays


class SingleSourceEnumerator(Enumerator):
    def __init__(self, graph, source, mode, counter):
        super().__init__(graph, mode, counter)
        if not 0 <= source < graph.n:
            raise ValueError(f"source {source} out of range for n={graph.n}")
        self.source = source
        if mode.no_self:
            self._budget_scale *= 2

    def _run(self):
        skip = 0 if self.mode.no_self else -1
        return search(self, self.source, search_arrays(self), self._emit,
                      skip_le=skip, sweep=not self.mode.reachable_only)
