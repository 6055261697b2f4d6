"""Pull-based shortest-distance enumerators with instrumented delays."""
from .base import (DistanceTriple, Enumerator, IDLE, INFINITE, OutputMode,
                   ScheduleUnderflow)
from .sssd import SingleSourceEnumerator
from .apsd import (NoSelfApsdEnumerator, RowSearchEnumerator,
                   UnconstrainedApsdEnumerator)
from .sorted_apsd import SortedApsdEnumerator, SortedNoSelfApsdEnumerator

__all__ = [
    "DistanceTriple", "Enumerator", "IDLE", "INFINITE", "OutputMode",
    "ScheduleUnderflow",
    "SingleSourceEnumerator", "RowSearchEnumerator",
    "UnconstrainedApsdEnumerator", "NoSelfApsdEnumerator",
    "SortedApsdEnumerator", "SortedNoSelfApsdEnumerator",
    "make_enumerator",
]


def make_enumerator(graph, mode: OutputMode = OutputMode(), *, source=None,
                    dedup: bool = False, counter=None):
    """Pick the machine for an output regime.

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
        enum = cls(graph, mode, counter)
    elif mode.row_wise or mode.reachable_only:
        enum = RowSearchEnumerator(graph, mode, counter)
    elif mode.no_self:
        enum = NoSelfApsdEnumerator(graph, counter)
    else:
        enum = UnconstrainedApsdEnumerator(graph, counter)
    if dedup:
        enum.enable_dedup()
    return enum

