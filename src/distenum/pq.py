"""Addressable binary min-heap with decrease-key.

Every insert returns a handle that stays valid until the entry is
extracted.  Handles count inserts from 0, so a handle is its entry's
insertion order; key ties break on the handle (first inserted wins), and
extraction order is deterministic.  Each key comparison charges one
counted step.  Extraction performs at most 2 * ceil(log2(size))
comparisons, insert and decrease_key at most ceil(log2(size)).

sift_up and sift_down are the only sifts: loops with no deadline check
that return their comparison count.  The operations here charge it;
the Dijkstra headroom blocks in enumerators/searches.py run the heap on
its lists and call them directly.  A caller inside a pull that ends an
operation at or past its deadline settles the comparisons
(metering.settle), so the pull stops where a check after each would.
"""
from __future__ import annotations

from .metering import StepCounter


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

    def insert(self, key, payload=None) -> int:
        h = self._new_entry(key, payload)
        self.counter.total += sift_up(self._heap, self._pos, self._keys,
                                      self._pos[h])
        return h

    def decrease_key(self, handle: int, key) -> None:
        keys, pos = self._keys, self._pos
        if not 0 <= handle < len(keys) or pos[handle] < 0:
            raise ValueError(f"handle {handle} is not live")
        if key > keys[handle]:
            raise ValueError(
                f"decrease_key to larger key {key!r} (current {keys[handle]!r})")
        keys[handle] = key
        self.counter.total += sift_up(self._heap, pos, keys, pos[handle])

    def extract_min(self):
        """Remove and return the minimal (key, payload), or None if empty."""
        heap, pos = self._heap, self._pos
        if not heap:
            return None
        h = heap[0]
        last = heap.pop()
        pos[h] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self.counter.total += sift_down(heap, pos, self._keys, 0)
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

    def _new_entry(self, key, payload) -> int:
        """Append a new entry at the bottom of the heap; return its handle."""
        h = len(self._keys)
        self._keys.append(key)
        self._payloads.append(payload)
        self._pos.append(len(self._heap))
        self._heap.append(h)
        return h
