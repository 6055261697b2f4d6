"""Addressable binary min-heap with decrease-key.

Every insert returns a handle that stays valid until the entry is
extracted.  Handles count inserts from 0, so a handle is its entry's
insertion order; key ties break on the handle (first inserted wins), and
extraction order is deterministic.  Each key comparison charges one
counted step.  Extraction performs at most 2 * ceil(log2(size))
comparisons, insert and decrease_key at most ceil(log2(size)).

Each operation has a plain variant (insert, decrease_key, extract_min,
build), a loop with no deadline check, and a generator variant (the _g
names) that checks the deadline after every comparison and suspends once
it is reached, so a pull can stop inside a heap operation at the exact
step its budget runs out.  Both make the same comparisons and charge the
same steps.  Callers run the plain one outside a pull, and inside one
only when the budget left exceeds the operation's worst case.  The
plain loops are sift_up and sift_down, which return their comparison
count; the plain operations here and the Dijkstra headroom blocks in
enumerators/searches.py, which run the heap on its lists, call them.
"""
from __future__ import annotations

from .metering import StepCounter


def drain(gen):
    """Run a generator to the end and return its return value."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


def sift_up(heap: list, pos: list, keys: list, i: int) -> int:
    """Move heap[i] up to its place; return the comparisons made."""
    h = heap[i]
    k = keys[h]
    steps = 0
    while i > 0:
        parent = (i - 1) >> 1
        hp = heap[parent]
        kp = keys[hp]
        steps += 1
        if not (k < kp if k != kp else h < hp):
            break
        heap[i] = hp
        pos[hp] = i
        i = parent
    heap[i] = h
    pos[h] = i
    return steps


def sift_down(heap: list, pos: list, keys: list, i: int) -> int:
    """Move heap[i] down to its place; return the comparisons made."""
    n = len(heap)
    child = 2 * i + 1
    h = heap[i]
    k = keys[h]
    steps = 0
    while child < n:
        hc = heap[child]
        kc = keys[hc]
        if child + 1 < n:
            hr = heap[child + 1]
            kr = keys[hr]
            steps += 1
            if kr < kc if kr != kc else hr < hc:
                child, hc, kc = child + 1, hr, kr
        steps += 1
        if not (kc < k if kc != k else hc < h):
            break
        heap[i] = hc
        pos[hc] = i
        i = child
        child = 2 * i + 1
    heap[i] = h
    pos[h] = i
    return steps


class AddressablePQ:
    __slots__ = ("counter", "_heap", "_keys", "_payloads", "_pos")

    def __init__(self, counter: StepCounter | None = None):
        self.counter = counter if counter is not None else StepCounter()
        self._heap: list[int] = []
        self._keys: list = []
        self._payloads: list = []
        self._pos: list[int] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, handle: int) -> bool:
        """True while the handle's entry is live (inserted, not extracted)."""
        return 0 <= handle < len(self._keys) and self._pos[handle] >= 0

    def key_of(self, handle: int):
        self._check_live(handle)
        return self._keys[handle]

    # -- plain operations -------------------------------------------------

    def insert(self, key, payload=None) -> int:
        h = self._new_entry(key, payload)
        self.counter.total += sift_up(self._heap, self._pos, self._keys,
                                      self._pos[h])
        return h

    def decrease_key(self, handle: int, key) -> None:
        self.counter.total += sift_up(self._heap, self._pos, self._keys,
                                      self._set_key(handle, key))

    def extract_min(self):
        """Remove and return the minimal (key, payload), or None if empty."""
        heap = self._heap
        if not heap:
            return None
        h = self._pop_root()
        if heap:
            self.counter.total += sift_down(heap, self._pos, self._keys, 0)
        return self._keys[h], self._payloads[h]

    def build(self, items) -> list[int]:
        """Bulk-load (key, payload) pairs; linear comparison count."""
        heap = self._heap
        if heap:
            raise ValueError("build requires an empty queue")
        handles = [self._new_entry(key, payload) for key, payload in items]
        for i in reversed(range(len(heap) // 2)):
            self.counter.total += sift_down(heap, self._pos, self._keys, i)
        return handles

    # -- generator operations (deadline checked per comparison) -----------

    def insert_g(self, key, payload=None):
        h = self._new_entry(key, payload)
        yield from self._sift_up_g(len(self._heap) - 1)
        return h

    def decrease_key_g(self, handle: int, key):
        yield from self._sift_up_g(self._set_key(handle, key))

    def extract_min_g(self):
        if not self._heap:
            return None
        h = self._pop_root()
        yield from self._sift_down_g(0)
        return self._keys[h], self._payloads[h]

    # -- internals --------------------------------------------------------

    def _new_entry(self, key, payload) -> int:
        """Append a new entry at the bottom of the heap; return its handle."""
        h = len(self._keys)
        self._keys.append(key)
        self._payloads.append(payload)
        self._pos.append(len(self._heap))
        self._heap.append(h)
        return h

    def _set_key(self, handle: int, key) -> int:
        """Lower a live entry's key; return its heap position."""
        self._check_live(handle)
        if key > self._keys[handle]:
            raise ValueError(
                f"decrease_key to larger key {key!r} (current {self._keys[handle]!r})")
        self._keys[handle] = key
        return self._pos[handle]

    def _pop_root(self) -> int:
        """Detach the root's handle and move the last entry into its place."""
        heap = self._heap
        h = heap[0]
        last = heap.pop()
        if heap:
            heap[0] = last
            self._pos[last] = 0
        self._pos[h] = -1
        return h

    def _check_live(self, handle: int) -> None:
        if not 0 <= handle < len(self._keys) or self._pos[handle] < 0:
            raise ValueError(f"handle {handle} is not live")

    def _sift_up_g(self, i: int):
        heap, pos, keys = self._heap, self._pos, self._keys
        c = self.counter
        while i > 0:
            parent = (i - 1) >> 1
            hp, hi = heap[parent], heap[i]
            c.total += 1
            ki, kp = keys[hi], keys[hp]
            less = ki < kp if ki != kp else hi < hp
            if c.total >= c.deadline:
                yield
            if not less:
                return
            heap[i], heap[parent] = hp, hi
            pos[hp], pos[hi] = i, parent
            i = parent

    def _sift_down_g(self, i: int):
        heap, pos, keys = self._heap, self._pos, self._keys
        c = self.counter
        n = len(heap)
        while True:
            child = 2 * i + 1
            if child >= n:
                return
            right = child + 1
            if right < n:
                hr, hc = heap[right], heap[child]
                c.total += 1
                kr, kc = keys[hr], keys[hc]
                less = kr < kc if kr != kc else hr < hc
                if c.total >= c.deadline:
                    yield
                if less:
                    child = right
            hc, hi = heap[child], heap[i]
            c.total += 1
            kc, ki = keys[hc], keys[hi]
            less = kc < ki if kc != ki else hc < hi
            if c.total >= c.deadline:
                yield
            if not less:
                return
            heap[i], heap[child] = hc, hi
            pos[hc], pos[hi] = i, child
            i = child
