"""Ground-truth matrices, stream validation, and the boolean product."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import (DistanceTriple, OutputMode, bmm_multiply,
                      brute_force_matrix, direct_multiply, format_bool_matrix,
                      from_edge_list, gen_random, parse_bool_matrix, validate)

INF = math.inf


def test_path_row():
    g = from_edge_list(3, [(0, 1), (1, 2)], False)
    m = brute_force_matrix(g)
    assert m.row(0) == [0, 1, 2]


def test_empty_graph_off_diagonal_inf():
    g = from_edge_list(3, [], False)
    m = brute_force_matrix(g)
    for u in range(3):
        for v in range(3):
            assert m.entry(u, v) == (0 if u == v else INF)


def test_methods_agree():
    for seed in range(6):
        g = gen_random(25, 80, directed=seed % 2 == 1,
                       max_weight=0 if seed < 3 else 12, seed=seed)
        a = brute_force_matrix(g, method="relaxation")
        b = brute_force_matrix(g, method="search")
        for u in range(g.n):
            assert a.row(u) == b.row(u), (seed, u)


def test_matrix_invariants(corpus, corpus_matrices):
    for tag, g in corpus:
        m = corpus_matrices[tag]
        for v in range(g.n):
            assert m.entry(v, v) == 0, tag
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    duv, duw, dwv = m.entry(u, v), m.entry(u, w), m.entry(w, v)
                    if duw < INF and dwv < INF:
                        assert duv <= duw + dwv, (tag, u, w, v)


def test_relaxation_stays_exact_past_two_to_53():
    g = from_edge_list(3, [(0, 1, 2 ** 53), (1, 2, 1)], True, weighted=True,
                       weight_cap_exponent=60)
    assert brute_force_matrix(g).entry(0, 2) == 2 ** 53 + 1
    assert brute_force_matrix(g) == brute_force_matrix(g, "search")


@settings(max_examples=200, deadline=None)
@given(st.text() | st.builds(
    lambda d, rows: "\n".join([d] + rows),
    st.integers(-2, 5).map(str) | st.text(max_size=4),
    st.lists(st.text(alphabet="01x ", max_size=6), max_size=6)))
def test_parse_bool_matrix_fuzz(text):
    try:
        m = parse_bool_matrix(text)
    except ValueError:
        return
    assert all(len(row) == len(m) and set(row) <= {0, 1} for row in m)


def unconstrained_stream(matrix, n):
    return [DistanceTriple(u, v, matrix.entry(u, v))
            for u in range(n) for v in range(n)]


def test_validate_ok_and_missing():
    g = from_edge_list(3, [(0, 1), (1, 2)], False)
    m = brute_force_matrix(g)
    good = unconstrained_stream(m, 3)
    assert validate(good, m, OutputMode()) is None
    v = validate(good[:-1], m, OutputMode())
    assert v is not None and "missing" in v.reason


def test_validate_duplicate():
    g = from_edge_list(2, [(0, 1)], False)
    m = brute_force_matrix(g)
    stream = unconstrained_stream(m, 2)
    v = validate(stream + [stream[0]], m, OutputMode())
    assert v is not None and "duplicate" in v.reason


def test_validate_wrong_distance():
    g = from_edge_list(2, [(0, 1)], False)
    m = brute_force_matrix(g)
    stream = unconstrained_stream(m, 2)
    stream[1] = stream[1]._replace(distance=5)
    v = validate(stream, m, OutputMode())
    assert v is not None and "differs" in v.reason


def test_validate_mode_filters():
    g = from_edge_list(3, [(0, 1)], False)
    m = brute_force_matrix(g)
    full = unconstrained_stream(m, 3)
    no_self = [t for t in full if t.source != t.target]
    reach = [t for t in full if t.distance < INF]

    assert validate(no_self, m, OutputMode(no_self=True)) is None
    v = validate(full, m, OutputMode(no_self=True))
    assert v is not None and v.pair[0] == v.pair[1]
    assert v.reason == "pair not expected for mode"

    assert validate(reach, m, OutputMode(reachable_only=True)) is None
    v = validate(full, m, OutputMode(reachable_only=True))
    assert v is not None and m.entry(*v.pair) == INF
    assert v.reason == "pair not expected for mode"

    # stream shaped for a different mode comes back as unexpected or missing
    v = validate(no_self, m, OutputMode())
    assert v is not None


def test_validate_row_order():
    g = from_edge_list(2, [(0, 1)], False)
    m = brute_force_matrix(g)
    rows = [DistanceTriple(0, 0, 0), DistanceTriple(0, 1, 1),
            DistanceTriple(1, 1, 0), DistanceTriple(1, 0, 1)]
    assert validate(rows, m, OutputMode(row_wise=True)) is None
    swapped = [rows[2], rows[3], rows[0], rows[1]]
    v = validate(swapped, m, OutputMode(row_wise=True))
    assert v is not None and "source order" in v.reason
    within = [rows[1], rows[0], rows[2], rows[3]]
    v = validate(within, m, OutputMode(row_wise=True))
    assert v is not None and "within a row" in v.reason


def test_validate_sorted_order():
    g = from_edge_list(3, [(0, 1), (1, 2)], False)
    m = brute_force_matrix(g)
    stream = sorted(unconstrained_stream(m, 3), key=lambda t: t.distance)
    assert validate(stream, m, OutputMode(sorted=True)) is None
    stream[3], stream[-1] = stream[-1], stream[3]
    v = validate(stream, m, OutputMode(sorted=True))
    assert v is not None and "sorted" in v.reason


def test_validate_source_projection():
    g = from_edge_list(3, [(0, 1), (1, 2)], False)
    m = brute_force_matrix(g)
    row = [DistanceTriple(1, 1, 0), DistanceTriple(1, 0, 1),
           DistanceTriple(1, 2, 1)]
    assert validate(row, m, OutputMode(), source=1) is None
    v = validate(row[:-1], m, OutputMode(), source=1)
    assert v is not None and "missing" in v.reason


def test_validate_dedup():
    g = from_edge_list(2, [(0, 1)], False)
    m = brute_force_matrix(g)
    deduped = [DistanceTriple(0, 0, 0), DistanceTriple(1, 1, 0),
               DistanceTriple(0, 1, 1)]
    assert validate(deduped, m, OutputMode(), dedup=True) is None
    both = deduped + [DistanceTriple(1, 0, 1)]
    v = validate(both, m, OutputMode(), dedup=True)
    assert v is not None


def test_bool_matrix_round_trip():
    m = [[1, 0], [1, 1]]
    text = format_bool_matrix(m)
    assert parse_bool_matrix(text) == m
    with pytest.raises(ValueError):
        parse_bool_matrix("2\n10\n")
    with pytest.raises(ValueError):
        parse_bool_matrix("2\n10\n012\n")
    with pytest.raises(ValueError):
        parse_bool_matrix("x\n")


def test_direct_multiply_basics():
    ident = [[1, 0], [0, 1]]
    assert direct_multiply(ident, ident) == ident
    zero = [[0, 0], [0, 0]]
    anything = [[1, 1], [0, 1]]
    assert direct_multiply(zero, anything) == zero
    assert direct_multiply(anything, zero) == zero


def test_bmm_multiply_trivial():
    assert bmm_multiply([[1]], [[1]]) == [[1]]
    assert bmm_multiply([[0]], [[1]]) == [[0]]
    zero = [[0, 0], [0, 0]]
    assert bmm_multiply(zero, [[1, 1], [1, 1]]) == zero


def test_bmm_multiply_random_d16():
    rng = random.Random(616)
    d = 16
    a = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
    b = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
    assert bmm_multiply(a, b) == direct_multiply(a, b)


def test_bmm_dimension_mismatch():
    with pytest.raises(ValueError):
        bmm_multiply([[1]], [[1, 0], [0, 1]])
