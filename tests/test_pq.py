"""Addressable binary heap: order, ties, handles, comparison costs."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import AddressablePQ, StepCounter


def drain(pq):
    out = []
    while True:
        item = pq.extract_min()
        if item is None:
            break
        out.append(item)
    return out


def test_insert_extract_min():
    pq = AddressablePQ()
    for k in (5, 3, 9):
        pq.insert(k, f"p{k}")
    key, payload = pq.extract_min()
    assert key == 3 and payload == "p3"


def test_equal_keys_both_extractable():
    pq = AddressablePQ()
    pq.insert(2, "a")
    pq.insert(2, "b")
    got = drain(pq)
    assert sorted(p for _, p in got) == ["a", "b"]
    assert [k for k, _ in got] == [2, 2]


def test_ties_broken_fifo():
    pq = AddressablePQ()
    for i in range(8):
        pq.insert(1, i)
    assert [p for _, p in drain(pq)] == list(range(8))


def test_empty_and_single():
    pq = AddressablePQ()
    assert pq.extract_min() is None
    pq.insert(4, "only")
    assert pq.extract_min() == (4, "only")
    assert pq.extract_min() is None


def test_decrease_key():
    pq = AddressablePQ()
    pq.insert(5, "x")
    h = pq.insert(7, "y")
    pq.decrease_key(h, 1)
    assert pq.extract_min() == (1, "y")
    assert pq.extract_min() == (5, "x")


def test_decrease_to_equal_is_noop():
    pq = AddressablePQ()
    h = pq.insert(6, "z")
    pq.decrease_key(h, 6)
    assert pq._keys[h] == 6
    assert pq.extract_min() == (6, "z")


def test_decrease_errors():
    pq = AddressablePQ()
    h = pq.insert(3, None)
    with pytest.raises(ValueError):
        pq.decrease_key(h, 4)
    pq.extract_min()
    assert pq._pos[h] < 0
    with pytest.raises(ValueError):
        pq.decrease_key(h, 1)


def test_random_inserts_extract_sorted():
    rng = random.Random(0)
    keys = [rng.randrange(1000) for _ in range(300)]
    pq = AddressablePQ()
    for k in keys:
        pq.insert(k)
    assert [k for k, _ in drain(pq)] == sorted(keys)


class ScanOracle:
    """Linear-scan reference with the same FIFO tie rule."""

    def __init__(self):
        self.items = {}
        self.seq = 0

    def insert(self, key, payload):
        h = self.seq
        self.seq += 1
        self.items[h] = (key, h, payload)
        return h

    def decrease_key(self, h, key):
        old_key, old_seq, payload = self.items[h]
        assert key <= old_key
        self.items[h] = (key, old_seq, payload)

    def extract_min(self):
        if not self.items:
            return None
        h = min(self.items, key=lambda x: self.items[x][:2])
        key, _, payload = self.items.pop(h)
        return key, payload


def test_mixed_ops_match_scan_oracle():
    rng = random.Random(17)
    pq, oracle = AddressablePQ(), ScanOracle()
    live = []
    for _ in range(10 ** 4):
        r = rng.random()
        if r < 0.45 or not live:
            k = rng.randrange(200)
            p = rng.randrange(10 ** 6)
            h1 = pq.insert(k, p)
            h2 = oracle.insert(k, p)
            live.append((h1, h2, k))
        elif r < 0.7:
            i = rng.randrange(len(live))
            h1, h2, k = live[i]
            if pq._pos[h1] >= 0:
                nk = rng.randrange(pq._keys[h1] + 1)
                pq.decrease_key(h1, nk)
                oracle.decrease_key(h2, nk)
                live[i] = (h1, h2, nk)
        else:
            assert pq.extract_min() == oracle.extract_min()
    while True:
        a, b = pq.extract_min(), oracle.extract_min()
        assert a == b
        if a is None:
            break


def test_size_tracks_inserts_minus_extractions():
    pq = AddressablePQ()
    assert len(pq._heap) == 0
    for i in range(10):
        pq.insert(i)
    assert len(pq._heap) == 10
    for _ in range(4):
        pq.extract_min()
    assert len(pq._heap) == 6


def test_extraction_comparisons_logarithmic():
    c = StepCounter()
    pq = AddressablePQ(c)
    rng = random.Random(5)
    for _ in range(1024):
        pq.insert(rng.randrange(10 ** 6))
    worst = 0
    while pq._heap:
        size = len(pq._heap)
        before = c.total
        pq.extract_min()
        worst = max(worst, c.total - before)
        bound = 2 * math.ceil(math.log2(size)) if size > 1 else 1
        assert c.total - before <= bound, (size, c.total - before)
    assert worst <= 2 * 10


def test_build_matches_individual_inserts():
    rng = random.Random(8)
    items = [(rng.randrange(50), i) for i in range(200)]
    a = AddressablePQ()
    handles = a.build(items)
    assert len(handles) == len(items)
    b = AddressablePQ()
    for k, p in items:
        b.insert(k, p)
    assert drain(a) == drain(b)


def test_build_linear_comparisons():
    for size in (64, 256, 1024):
        c = StepCounter()
        pq = AddressablePQ(c)
        rng = random.Random(size)
        before = c.total
        pq.build([(rng.randrange(10 ** 6), None) for _ in range(size)])
        assert c.total - before <= 3 * size


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=80))
def test_property_heap_sorts(keys):
    pq = AddressablePQ()
    for k in keys:
        pq.insert(k)
    assert [k for k, _ in drain(pq)] == sorted(keys)
