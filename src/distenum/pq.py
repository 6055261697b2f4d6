"""Addressable binary min-heap with decrease-key.

Every insert returns a handle that stays valid until the entry is
extracted.  Handles count inserts from 0, so a handle is its entry's
insertion order; key ties break on the handle (first inserted wins), and
extraction order is deterministic.  Each key comparison charges one
counted step.  The generator variants of the operations check the
counter's deadline after every comparison and suspend only once it is
reached, so an enumerator machine can stop inside a heap operation at
the exact step its pull budget runs out.  Extraction performs at most
2 * ceil(log2(size)) comparisons, insert and decrease_key at most
ceil(log2(size)).
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

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, handle: int) -> bool:
        """True while the handle's entry is live (inserted, not extracted)."""
        return 0 <= handle < len(self._keys) and self._pos[handle] >= 0

    def key_of(self, handle: int):
        self._check_live(handle)
        return self._keys[handle]

    # -- plain operations -------------------------------------------------

    def insert(self, key, payload=None) -> int:
        return drain(self.insert_g(key, payload))

    def decrease_key(self, handle: int, key) -> None:
        drain(self.decrease_key_g(handle, key))

    def extract_min(self):
        """Remove and return the minimal (key, payload), or None if empty."""
        return drain(self.extract_min_g())

    def build(self, items) -> list[int]:
        """Bulk-load (key, payload) pairs; linear comparison count."""
        if self._heap:
            raise ValueError("build requires an empty queue")
        handles = []
        for key, payload in items:
            h = self._new_entry(key, payload)
            self._pos[h] = len(self._heap)
            self._heap.append(h)
            handles.append(h)
        for i in reversed(range(len(self._heap) // 2)):
            drain(self._sift_down_g(i))
        return handles

    # -- generator operations (deadline checked per comparison) -----------

    def insert_g(self, key, payload=None):
        h = self._new_entry(key, payload)
        i = len(self._heap)
        self._pos[h] = i
        self._heap.append(h)
        yield from self._sift_up_g(i)
        return h

    def decrease_key_g(self, handle: int, key):
        self._check_live(handle)
        if key > self._keys[handle]:
            raise ValueError(
                f"decrease_key to larger key {key!r} (current {self._keys[handle]!r})")
        self._keys[handle] = key
        yield from self._sift_up_g(self._pos[handle])

    def extract_min_g(self):
        heap = self._heap
        if not heap:
            return None
        h = heap[0]
        last = heap.pop()
        if heap:
            heap[0] = last
            self._pos[last] = 0
            yield from self._sift_down_g(0)
        self._pos[h] = -1
        return self._keys[h], self._payloads[h]

    # -- internals --------------------------------------------------------

    def _new_entry(self, key, payload) -> int:
        h = len(self._keys)
        self._keys.append(key)
        self._payloads.append(payload)
        self._pos.append(-1)
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
