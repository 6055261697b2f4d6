"""Lazy-initialized array: constant-cost allocation and garbage immunity."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import LazyArray, StepCounter


def test_alloc_zero_capacity():
    a = LazyArray(0)
    with pytest.raises(IndexError):
        a.read(0)
    with pytest.raises(IndexError):
        a.write(0, 1)


def test_fresh_large_array_is_unwritten():
    a = LazyArray(10 ** 6)
    assert not a.is_written(12345)
    assert a.read(12345) is None


def test_alloc_cost_independent_of_capacity():
    deltas = []
    for cap in (8, 2 ** 10, 2 ** 16, 2 ** 22, 8 * 10 ** 6):
        c = StepCounter()
        before = c.total
        LazyArray(cap, c)
        deltas.append(c.total - before)
    assert len(set(deltas)) == 1


def test_read_write_cost_independent_of_capacity():
    deltas = []
    for cap in (2 ** 10, 2 ** 16, 2 ** 22):
        c = StepCounter()
        a = LazyArray(cap, c)
        before = c.total
        a.write(cap - 1, 5)
        a.read(cap - 1)
        a.read(0)
        deltas.append(c.total - before)
    assert len(set(deltas)) == 1


def test_write_then_read():
    a = LazyArray(10)
    a.write(3, 7)
    assert a.read(3) == 7
    assert a.is_written(3)


def test_overwrite_keeps_count():
    a = LazyArray(10)
    a.write(3, 7)
    a.write(3, 9)
    assert a.read(3) == 9
    assert a.written_count == 1


def test_distinct_writes_count():
    a = LazyArray(20)
    for k, x in enumerate([4, 0, 19, 7, 11]):
        a.write(x, x * x)
        assert a.written_count == k + 1
    assert a.written_count <= a.capacity


def test_out_of_range_rejected():
    a = LazyArray(4)
    for x in (-1, 4, 100):
        with pytest.raises(IndexError):
            a.read(x)
        with pytest.raises(IndexError):
            a.write(x, 0)
    with pytest.raises(ValueError):
        LazyArray(-1)


def test_zero_fill_aliasing_rejected():
    # the default backing is zero-filled, so every unwritten index points
    # at pair slot 0; after a real write of cell 0 that slot is live and
    # points back at 0, which must not leak into other cells
    a = LazyArray(8)
    a.write(0, 99)
    assert a.read(0) == 99
    for x in range(1, 8):
        assert a.read(x) is None
        assert not a.is_written(x)


def test_adversarial_garbage_never_false_written():
    for seed in range(25):
        rng = random.Random(seed)
        a = LazyArray(64, garbage_rng=rng)
        assert all(not a.is_written(x) for x in range(64))
        a.write(17, -5)
        assert a.read(17) == -5
        assert sum(a.is_written(x) for x in range(64)) == 1


def test_random_sequence_against_dict_oracle():
    rng = random.Random(99)
    cap = 128
    a = LazyArray(cap, garbage_rng=rng)
    oracle = {}
    for _ in range(10 ** 4):
        x = rng.randrange(cap)
        r = rng.random()
        if r < 0.01:
            a.reset()
            oracle.clear()
        elif r < 0.5:
            v = rng.randint(-1000, 1000)
            a.write(x, v)
            oracle[x] = v
        else:
            assert a.read(x) == oracle.get(x)
        assert a.written_count == len(oracle)
        assert 0 <= a.written_count <= cap


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9),
       st.lists(st.tuples(st.integers(0, 31), st.booleans(),
                          st.integers(-100, 100)), max_size=200))
def test_property_matches_dict(seed, ops):
    a = LazyArray(32, garbage_rng=random.Random(seed))
    oracle = {}
    for x, is_write, v in ops:
        if is_write:
            a.write(x, v)
            oracle[x] = v
        else:
            assert a.read(x) == oracle.get(x)
    for x in range(32):
        assert a.read(x) == oracle.get(x)


def test_reset_costs_one_step_and_allocates_nothing():
    c = StepCounter()
    a = LazyArray(1000, c)
    for x in range(0, 1000, 7):
        a.write(x, x)
    before = c.total
    a.reset()
    assert c.total - before == 1
    assert a.written_count == 0
    assert not any(a.is_written(x) for x in range(1000))
    assert (c.lazy_alloc_count, c.lazy_live_cells) == (1, 1000)


def test_release_idempotent_and_space_accounting():
    c = StepCounter()
    a = LazyArray(100, c)
    b = LazyArray(50, c)
    assert c.lazy_live_cells == 150
    assert c.lazy_peak_cells == 150
    assert c.lazy_alloc_count == 2
    a.release()
    a.release()
    assert c.lazy_live_cells == 50
    b.release()
    assert c.lazy_live_cells == 0
    assert c.lazy_peak_cells == 150
