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
one add.  Its Dijkstra search also writes the dist and handles cells
inline in the arc scan block, and the settled cell at every settle.
"""
from __future__ import annotations

import random

from .metering import StepCounter


class LazyArray:
    __slots__ = ("capacity", "counter", "written_count", "_index", "_back", "_value", "_released")

    def __init__(self, capacity: int, counter: StepCounter | None = None, *,
                 garbage_rng: random.Random | None = None):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.counter = counter if counter is not None else StepCounter()
        self.written_count = 0
        # zero-filled backing is just one possible garbage pattern; tests
        # pass garbage_rng to exercise adversarial contents
        self._index = [0] * capacity
        self._back = [0] * capacity
        self._value = [0] * capacity
        self._released = False
        if garbage_rng is not None:
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

    def __len__(self) -> int:
        return self.capacity
