"""Pull-based shortest-distance enumerators with instrumented delays."""
from .base import (DistanceTriple, Enumerator, INFINITE, OutputMode,
                   ScheduleUnderflow)
from .sssd import SingleSourceEnumerator
from .apsd import (NoSelfApsdEnumerator, RowSearchEnumerator,
                   UnconstrainedApsdEnumerator)
from .sorted_apsd import SortedApsdEnumerator, SortedNoSelfApsdEnumerator

__all__ = [
    "DistanceTriple", "Enumerator", "INFINITE", "OutputMode",
    "ScheduleUnderflow", "make_enumerator",
]


def make_enumerator(graph, mode: OutputMode = OutputMode(), *, source=None,
                    dedup: bool = False, counter=None):
    """Build the machine for an output regime; the regime is fixed here.

    source selects a single-source run (mode trims still apply); dedup
    keeps one representative per unordered pair on undirected graphs.
    """
    if source is not None:
        if dedup:
            raise ValueError("dedup applies to pair streams, "
                             "not single-source runs")
        return SingleSourceEnumerator(graph, source, mode, counter)
    if mode.sorted:
        cls = SortedNoSelfApsdEnumerator if mode.no_self \
            else SortedApsdEnumerator
    elif mode.row_wise or mode.reachable_only:
        cls = RowSearchEnumerator
    elif mode.no_self:
        cls = NoSelfApsdEnumerator
    else:
        cls = UnconstrainedApsdEnumerator
    return cls(graph, mode, counter, dedup)

