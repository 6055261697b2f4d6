"""Lazy-initialized array: constant-cost allocation and garbage immunity."""
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distenum
from distenum import LazyArray, StepCounter, lazyarray


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


# -- recycled backing lists --------------------------------------------------

def _dead_written_lists(cap):
    """The backing lists of a written array of capacity cap, after it died
    and the collector ran."""
    gc.collect()
    a = LazyArray(cap)
    for x in range(0, cap, 3):
        a.write(x, 10 ** 6 + x)
    lists = a._index, a._back, a._value
    del a
    gc.collect()
    return lists


def _shares_lists(a, lists):
    return any(x is y for x in (a._index, a._back, a._value) for y in lists)


def test_dead_array_lists_reused_unwritten_at_one_step():
    lists = _dead_written_lists(97)
    c = StepCounter()
    b = LazyArray(97, c)
    assert all(x is y for x, y in zip((b._index, b._back, b._value), lists))
    assert (c.total, c.lazy_alloc_count, c.lazy_live_cells) == (1, 1, 97)
    assert b.written_count == 0
    assert all(v == 0 for lst in lists for v in lst)
    assert not any(b.is_written(x) for x in range(97))
    assert all(b.read(x) is None for x in range(97))


def test_other_capacity_gets_fresh_lists():
    lists = _dead_written_lists(97)
    b = LazyArray(98)
    assert not _shares_lists(b, lists)
    assert len(b._index) == len(b._back) == len(b._value) == 98


def test_garbage_array_never_takes_spares():
    lists = _dead_written_lists(97)
    b = LazyArray(97, garbage_rng=random.Random(5))
    assert not _shares_lists(b, lists)
    assert any(b._index) and not any(b.is_written(x) for x in range(97))


def test_spares_stay_at_three_sets():
    gc.collect()
    arrays = [LazyArray(61) for _ in range(20)]
    for a in arrays:
        a.write(5, 10 ** 7)
    del arrays, a
    gc.collect()
    sets = lazyarray._spares.sets
    assert 0 < len(sets) <= 3
    assert all(len(lst) == 61 for s in sets for lst in s)


def test_finalizer_quiet_at_interpreter_exit():
    # Arrays still alive at exit, one of them in a cycle, die while the
    # interpreter clears its modules; their finalizers must not raise.
    code = """if True:
        import distenum.lazyarray as la
        from distenum import LazyArray
        class Node:
            pass
        node = Node()
        node.me, node.arr = node, LazyArray(7)
        la.kept = LazyArray(9)
        kept = LazyArray(9)
        kept.write(3, 4)
        """
    env = dict(os.environ,
               PYTHONPATH=str(Path(distenum.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
