"""Array with constant-time initialization via two-level indirection.

A LazyArray of capacity n answers read/write on indices [0, n) without
ever initializing its backing memory.  An index array A maps each slot
into a pair store P of (back_pointer, value) entries, of which only the
first `written_count` are meaningful.  Slot x holds a value exactly when

    0 <= A[x] < written_count  and  P[A[x]].back_pointer == x

so arbitrary garbage in A (or in the unused tail of P) can never fake a
written cell: any in-range garbage pointer lands on a pair that points
back at a different slot.  The pair store is sized exactly to capacity.

Instrumentation: allocation costs one counted step regardless of
capacity, every read or write costs one counted step.  Live cell counts
are tracked on the StepCounter for space reporting; release() retires
the array's cells from the live total.

reset() zeroes written_count, the O(1) clear of Briggs & Torczon's sparse
set (1993), and costs one counted step, as allocation does: stale
pointers then fail the back-pointer test like any garbage.

Inline cell tests: enumerators/searches.py, and only it, reads these
fields directly in its hot loops: it applies the test above itself,
writes new cells as write() does and charges the same counted steps in
one add.  Any other reader of the written cells as a set calls
written(), which lists them in write order; the sorted stream's
undirected closing phase reads each finished search's component that
way.

Recycling.  A dead array hands its three backing lists to a spare store
that keeps one such set, of the capacity freed most recently; a new
array of that capacity takes the set instead of allocating, unless it
was built with garbage_rng.  Every search keeps one array, so one set
covers a search.  Allocation keeps its one counted step and its
record_alloc, so no report moves.  A recycled list is an old object,
so the collector's young passes inside a pull skip it.  A kept set is
zeroed in place from one shared zero list, so a pull that overwrites a
cell frees no stale value.  A death that finds a set kept keeps nothing
and returns at once; one of another capacity drops the kept set and
starts the store over at its own capacity.  A set comes back when its
array dies: at once for an array dropped by reference count, and at
the next collection for one held in a cycle, as every enumerator is
(it and its machine refer to each other); perfbench's timed_stream
collects before each stream, so there a dead query's set is back
before the next query starts.  Only the array, and code that it
outlives, may hold its lists: the searches bind them to locals of a
frame that also holds the array.
"""
from __future__ import annotations

import random

from .metering import StepCounter


class _Spares:
    """A zeroed backing-list set of the capacity freed most recently."""
    __slots__ = ("zeros", "spare")

    def __init__(self):
        self.zeros = []     # shared zero list; its length is the capacity
        self.spare = None   # the kept (index, back, value) set, if any

    def take(self, capacity: int) -> tuple:
        """A zeroed set of the capacity: the spare if one is kept, else new."""
        spare = self.spare
        if spare is not None and len(self.zeros) == capacity:
            self.spare = None
            return spare
        return [0] * capacity, [0] * capacity, [0] * capacity

    def give(self, index: list, back: list, value: list) -> None:
        n = len(index)
        if n != len(self.zeros):
            self.zeros = [0] * n
        elif self.spare is not None:
            return
        zeros = self.zeros
        index[:] = zeros
        back[:] = zeros
        value[:] = zeros
        self.spare = index, back, value


_spares = _Spares()


class LazyArray:
    __slots__ = ("capacity", "counter", "written_count", "_index", "_back", "_value", "_released")

    def __init__(self, capacity: int, counter: StepCounter | None = None, *,
                 garbage_rng: random.Random | None = None):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.counter = counter if counter is not None else StepCounter()
        self.written_count = 0
        self._released = False
        if garbage_rng is None:
            self._index, self._back, self._value = _spares.take(capacity)
        else:
            # zero-filled backing is just one possible garbage pattern;
            # tests pass garbage_rng to exercise adversarial contents
            self._index = [0] * capacity
            self._back = [0] * capacity
            self._value = [0] * capacity
            for i in range(capacity):
                self._index[i] = garbage_rng.randrange(-capacity - 2, 2 * capacity + 2)
                self._back[i] = garbage_rng.randrange(-capacity - 2, 2 * capacity + 2)
                self._value[i] = garbage_rng.randrange(-(2 ** 30), 2 ** 30)
        self.counter.total += 1
        self.counter.record_alloc(capacity)

    def is_written(self, x: int) -> bool:
        if not 0 <= x < self.capacity:
            raise self._range_error(x)
        self.counter.total += 1
        p = self._index[x]
        return 0 <= p < self.written_count and self._back[p] == x

    def read(self, x: int):
        """Return the stored value, or None if the cell was never written."""
        if not 0 <= x < self.capacity:
            raise self._range_error(x)
        self.counter.total += 1
        p = self._index[x]
        if 0 <= p < self.written_count and self._back[p] == x:
            return self._value[p]
        return None

    def write(self, x: int, value) -> None:
        if not 0 <= x < self.capacity:
            raise self._range_error(x)
        self.counter.total += 1
        p = self._index[x]
        if 0 <= p < self.written_count and self._back[p] == x:
            self._value[p] = value
            return
        p = self.written_count
        self._index[x] = p
        self._back[p] = x
        self._value[p] = value
        self.written_count = p + 1

    def written(self) -> list:
        """The written indices, in the order of their first write.  It
        costs no counted step: the caller charges its walk of them."""
        return self._back[:self.written_count]

    def reset(self) -> None:
        """Forget every written cell in constant time (one counted step)."""
        self.counter.total += 1
        self.written_count = 0

    def release(self) -> None:
        """Retire this array from the live-cell accounting (idempotent)."""
        if not self._released:
            self._released = True
            self.counter.record_release(self.capacity)

    def _range_error(self, x: int) -> IndexError:
        return IndexError(f"index {x} out of range for capacity {self.capacity}")

    def __del__(self):
        try:
            lists = self._index, self._back, self._value
        except AttributeError:      # __init__ raised before allocating
            return
        _spares.give(*lists)
