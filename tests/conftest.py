"""Shared corpus and helpers for the test suite."""
import itertools

import pytest
from hypothesis import strategies as st

from distenum import (OutputMode, brute_force_matrix, from_edge_list,
                      gen_clique_path, gen_isolated_plus_edge, gen_random,
                      gen_star, make_enumerator, run_metered, validate)


def all_mode_combos():
    """The 12 legal flag combinations (row_wise with sorted is rejected)."""
    combos = []
    for rw, ns, ro, so in itertools.product((False, True), repeat=4):
        if rw and so:
            continue
        combos.append(OutputMode(row_wise=rw, no_self=ns,
                                 reachable_only=ro, sorted=so))
    return combos


def small_corpus():
    """Small graphs covering the degenerate shapes the schedules must survive."""
    return [
        ("empty", from_edge_list(0, [], False)),
        ("single", from_edge_list(1, [], False)),
        ("single-loop", from_edge_list(1, [(0, 0)], False)),
        ("edge", from_edge_list(2, [(0, 1)], False)),
        ("arc-weighted", from_edge_list(2, [(0, 1, 7)], True, weighted=True)),
        ("parallel-loop", from_edge_list(4, [(0, 1), (0, 1), (2, 2)], False)),
        ("loops-only", from_edge_list(5, [(0, 0), (1, 1), (2, 2)], False)),
        ("zero-weights", from_edge_list(3, [(0, 1, 0), (1, 2, 0)], False,
                                        weighted=True)),
        ("zero-weight-arc", from_edge_list(3, [(0, 1, 0)], True,
                                           weighted=True)),
        ("star", gen_star(6, [3, 1, 4, 1, 5])),
        ("iso-edge", gen_isolated_plus_edge(5)),
        ("clique-path", gen_clique_path(3)),
        ("rand-u", gen_random(14, 25, directed=False, seed=3)),
        ("rand-d", gen_random(12, 30, directed=True, seed=4)),
        ("rand-wu", gen_random(11, 20, directed=False, max_weight=9, seed=5)),
        ("rand-wd", gen_random(10, 22, directed=True, max_weight=6, seed=6)),
    ]


def edge_list_graphs(draw, weighted=None, zero_parallel=False):
    """Hypothesis graph: 1 to 10 vertices, directed or not, weighted or
    not (zero weights allowed), with loops, parallel arcs and isolated
    vertices as they fall.  weighted=True or False forces the choice;
    zero_parallel adds a zero-weight copy of a drawn arc."""
    n = draw(st.integers(1, 10))
    directed = draw(st.booleans())
    if weighted is None:
        weighted = draw(st.booleans())
    wmax = min(9, n ** 3)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, wmax)),
        min_size=1 if zero_parallel else 0, max_size=25))
    if zero_parallel:
        u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
        edges.append((u, v, 0))
    if not weighted:
        edges = [(u, v) for u, v, _ in edges]
    return from_edge_list(n, edges, directed, weighted=weighted)


graphs = st.composite(edge_list_graphs)


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="session")
def corpus_matrices(corpus):
    return {tag: brute_force_matrix(g) for tag, g in corpus}


def metered_run(g, mode=OutputMode(), *, source=None, dedup=False):
    enum = make_enumerator(g, mode, source=source, dedup=dedup)
    return run_metered(enum)


def assert_valid_run(g, matrix, mode, *, source=None, dedup=False, tag=""):
    triples, rep = metered_run(g, mode, source=source, dedup=dedup)
    violation = validate(triples, matrix, mode, dedup=dedup, source=source)
    assert violation is None, f"{tag}: {violation}"
    assert rep.max_delay <= rep.declared_bound_value, \
        f"{tag}: delay {rep.max_delay} over bound {rep.declared_bound_value}"
    return triples, rep


ACCEPTANCE_LINES = []


def record_criterion(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d}: {status}  {detail}"
    ACCEPTANCE_LINES.append((num, line))
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
