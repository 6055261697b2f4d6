"""Graph construction, format round-trips, and the generator families."""
import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distenum import (GraphFormatError, format_graph, from_edge_list,
                      gen_bmm_graph, gen_clique_path, gen_isolated_plus_edge,
                      gen_random, gen_star, parse_graph)
from distenum import graph as graph_module
from distenum.graph import (DEFAULT_WEIGHT_CAP_EXPONENT, MAX_VERTICES,
                            _parse_lines, _parse_tokens)
from conftest import graphs


def check_csr(g):
    assert len(g.offsets) == g.n + 1
    assert g.offsets[0] == 0
    for v in range(g.n):
        assert g.offsets[v] <= g.offsets[v + 1]
        assert g.degree(v) == g.offsets[v + 1] - g.offsets[v]
    assert g.offsets[g.n] == len(g.targets) == g.arc_count
    for t in g.targets:
        assert 0 <= t < g.n
    if g.weighted:
        assert len(g.weights) == len(g.targets)
    # handshaking in directed-arc form
    assert sum(g.degree(v) for v in range(g.n)) == g.arc_count


def test_path_degrees():
    g = from_edge_list(3, [(0, 1), (1, 2)], False)
    check_csr(g)
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.m == 2 and not g.directed and not g.weighted


def test_empty_directed():
    g = from_edge_list(2, [], True)
    check_csr(g)
    assert g.m == 0
    assert g.stats().max_degree == 0


def test_out_star_stats():
    g = from_edge_list(3, [(0, 1, 5), (0, 2, 7)], True, weighted=True)
    check_csr(g)
    assert [g.degree(v) for v in range(3)] == [2, 0, 0]
    st = g.stats()
    assert st.max_degree == 2
    assert st.avg_degree == Fraction(2, 3)


def test_undirected_stores_both_orientations():
    g = from_edge_list(3, [(0, 2, 4)], False, weighted=True)
    assert [g.targets[i] for i in g.arcs_from(0)] == [2]
    assert [g.targets[i] for i in g.arcs_from(2)] == [0]
    arcs = {(u, g.targets[i]): g.weights[i]
            for u in range(3) for i in g.arcs_from(u)}
    assert arcs[(0, 2)] == arcs[(2, 0)] == 4


def test_parallel_edges_preserved():
    g = from_edge_list(2, [(0, 1), (0, 1)], False)
    assert g.degree(0) == 2
    assert g.m == 2


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 2)], False)
    with pytest.raises(ValueError):
        from_edge_list(2, [(-1, 0)], True)


def test_rejects_negative_weight():
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 1, -1)], False, weighted=True)


def test_rejects_weight_over_cap():
    # default cap is n^3
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 1, 9)], False, weighted=True)
    g = from_edge_list(2, [(0, 1, 8)], False, weighted=True)
    assert g.weights[0] == 8
    g = from_edge_list(2, [(0, 1, 9)], False, weighted=True,
                       weight_cap_exponent=4)
    assert g.weights[0] == 9


def test_degree_stats_invariants(corpus):
    for tag, g in corpus:
        check_csr(g)
        st = g.stats()
        degs = [g.degree(v) for v in range(g.n)]
        if g.n:
            assert st.max_degree == max(degs)
            assert st.avg_degree * g.n == sum(degs)
            assert st.avg_degree <= st.max_degree
        else:
            assert st.max_degree == 0
            assert st.avg_degree == 0


def test_round_trip_fixed_point(corpus):
    for tag, g in corpus:
        text = format_graph(g)
        h = parse_graph(text)
        assert format_graph(h) == text, tag
        assert (h.n, h.m, h.directed, h.weighted) == \
            (g.n, g.m, g.directed, g.weighted)
        for v in range(g.n):
            want = sorted((g.targets[i], g.weights[i] if g.weighted else 1)
                          for i in g.arcs_from(v))
            got = sorted((h.targets[i], h.weights[i] if h.weighted else 1)
                         for i in h.arcs_from(v))
            assert got == want, (tag, v)


# Vertex 0 has two self-loops and two parallel arcs to 1, vertex 1 one
# self-loop, and (2, 1) is given from its larger end.  Undirected text
# keeps each edge once, from its smaller end, in stored order.
PIN_EDGES = [(0, 0, 3), (0, 0, 5), (1, 1, 2), (0, 1, 4), (0, 1, 7), (2, 1, 1)]


@pytest.mark.parametrize("directed,weighted,text", [
    (True, True, "3 6 directed weighted\n"
     "0 0 3\n0 0 5\n0 1 4\n0 1 7\n1 1 2\n2 1 1\n"),
    (True, False, "3 6 directed unweighted\n"
     "0 0\n0 0\n0 1\n0 1\n1 1\n2 1\n"),
    (False, True, "3 6 undirected weighted\n"
     "0 0 3\n0 0 5\n0 1 4\n0 1 7\n1 1 2\n1 2 1\n"),
    (False, False, "3 6 undirected unweighted\n"
     "0 0\n0 0\n0 1\n0 1\n1 1\n1 2\n"),
])
def test_format_graph_pinned_text(directed, weighted, text):
    edges = PIN_EDGES if weighted else [e[:2] for e in PIN_EDGES]
    g = from_edge_list(3, edges, directed)
    assert format_graph(g) == text
    assert format_graph(parse_graph(text)) == text


def test_parse_comments_and_errors():
    g = parse_graph("# a path\n3 2 undirected unweighted\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    with pytest.raises(GraphFormatError, match="^empty graph text$"):
        parse_graph("")
    with pytest.raises(GraphFormatError,
                       match="^bad header flags '3 2 sideways unweighted'$"):
        parse_graph("3 2 sideways unweighted\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError,
                       match="^header says 2 edges, found 1$"):
        parse_graph("3 2 undirected unweighted\n0 1\n")
    with pytest.raises(GraphFormatError, match="^bad edge line '0 1'$"):
        parse_graph("3 1 undirected weighted\n0 1\n")
    with pytest.raises(GraphFormatError, match="^bad edge line '0 1 5'$"):
        parse_graph("3 1 undirected unweighted\n0 1 5\n")


# -- the tokenised parse against the line parser -----------------------------

def _outcome(parse, text):
    """The graph's fields, or the message of the GraphFormatError."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return str(exc)
    return (g.n, g.m, g.directed, g.weighted, g.offsets, g.targets, g.weights)


def _lines(text):
    return _parse_lines(text, DEFAULT_WEIGHT_CAP_EXPONENT)


def _mutants(g, row, col):
    """Texts one change away from format_graph(g), made at line `row` (0 is
    the header) and its token `col`: bad or non-ASCII tokens, other
    separators and line ends, comments, blank lines, token and edge
    counts one off, ids and weights at and one past the end of their
    range."""
    lines = format_graph(g).split("\n")[:-1]
    tokens = lines[row].split(" ")
    cap = g.n ** DEFAULT_WEIGHT_CAP_EXPONENT

    def swap(i, tok):
        return " ".join(tokens[:i] + [tok] + tokens[i + 1:])

    line_variants = [swap(col, tok) for tok in
                     ["\u00b2", "\u0663", tokens[col] + "\u0663", "+1", "-1",
                      "1_0", "0x1", "1.5"]]
    line_variants += [lines[row].replace(" ", sep, 1)
                      for sep in ["\t", " \t ", "\x0b", "\u2028"]]
    line_variants += [lines[row] + "\r", lines[row] + " # note",
                      lines[row] + "\n", lines[row] + "\n# comment",
                      lines[row] + " 1", " ".join(tokens[:-1])]
    if row:
        line_variants += [swap(0, str(g.n)), swap(1, str(g.n)),
                          swap(1, str(g.n - 1))]
        if g.weighted:
            line_variants += [swap(2, str(cap + 1)), swap(2, str(cap))]
    out = ["\n".join(lines[:row] + [v] + lines[row + 1:]) + "\n"
           for v in line_variants]
    out.append("\n".join(lines))
    head = lines[0].split(" ")
    for n, m in [(head[0], g.m + 1), (head[0], g.m - 1),
                 (MAX_VERTICES + 1, head[1])]:
        out.append("\n".join([" ".join([str(n), str(m)] + head[2:])]
                             + lines[1:]) + "\n")
    return out


def _assert_parsers_agree(g, row, col):
    text = format_graph(g)
    want = _outcome(_lines, text)
    assert _parse_tokens(text, DEFAULT_WEIGHT_CAP_EXPONENT) is not None
    assert _outcome(parse_graph, text) == want
    assert format_graph(parse_graph(text)) == text
    for mutant in _mutants(g, row, col):
        assert _outcome(parse_graph, mutant) == _outcome(_lines, mutant), \
            repr(mutant)


@pytest.mark.parametrize("block", [1, 7, graph_module._BLOCK])
def test_parse_tokens_matches_line_parser_on_corpus(corpus, block):
    # Block 1 ends a block at every line, 7 at about every other line.
    with mock.patch.object(graph_module, "_BLOCK", block):
        for tag, g in corpus:
            for row in {0, g.m}:
                for col in range(2 + g.weighted if row else 4):
                    _assert_parsers_agree(g, row, col)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data(), st.sampled_from([1, 7, graph_module._BLOCK]))
def test_parse_tokens_matches_line_parser(g, data, block):
    row = data.draw(st.integers(0, g.m))
    col = data.draw(st.integers(0, 3 if row == 0 else 1 + g.weighted))
    with mock.patch.object(graph_module, "_BLOCK", block):
        _assert_parsers_agree(g, row, col)


def test_parse_tokens_across_blocks():
    # About 226 KB: four blocks of the default size.
    for directed in (False, True):
        g = gen_random(4000, 16000, directed=directed, max_weight=4000,
                       seed=1)
        text = format_graph(g)
        assert _outcome(parse_graph, text) == _outcome(_lines, text)
        bad = text[:-2] + "\u0663\n"
        assert _parse_tokens(bad, DEFAULT_WEIGHT_CAP_EXPONENT) is None
        assert _outcome(parse_graph, bad) == _outcome(_lines, bad)


def test_parse_tokens_splits_one_block_at_a_time():
    # Splitting the whole body at once holds every token string alive
    # together; block by block holds one block's.
    text = format_graph(gen_random(2000, 8000, max_weight=4000, seed=2))

    def peak():
        tracemalloc.start()
        try:
            parse_graph(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocks = peak()
    with mock.patch.object(graph_module, "_BLOCK", len(text)):
        whole = peak()
    assert blocks < 0.8 * whole


def _counts():
    return st.integers(-3, 6) | st.integers(-10 ** 30, 10 ** 30)


@st.composite
def _graph_texts(draw):
    """Header-shaped text: counts of any size, good and bad flags, edge
    lines of numbers and junk, a matching or arbitrary edge count."""
    token = _counts().map(str) | st.sampled_from(["x", "#", "1.5", ""])
    rows = draw(st.lists(st.lists(token, max_size=4).map(" ".join),
                         max_size=6))
    m = draw(st.just(len(rows)) | _counts())
    kind = draw(st.sampled_from(["directed", "undirected", "sideways"]))
    weight = draw(st.sampled_from(["weighted", "unweighted", "heavy"]))
    return "\n".join([f"{draw(_counts())} {m} {kind} {weight}"] + rows)


@settings(max_examples=300, deadline=None)
@given(st.text() | _graph_texts())
def test_parse_graph_fuzz(text):
    try:
        g = parse_graph(text)
    except GraphFormatError:
        return
    assert g.n <= MAX_VERTICES
    check_csr(g)


def test_clique_path_shape():
    for k in range(3, 17):
        g = gen_clique_path(k)
        check_csr(g)
        assert g.n == k + k * k
        assert g.m == k * (k - 1) // 2 + k * k
        assert g.stats().max_degree == k - 1
        assert not g.directed and not g.weighted
    with pytest.raises(ValueError):
        gen_clique_path(2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: gen_clique_path(400), id="clique-path"),
    pytest.param(lambda: gen_random(200_000, 800_000), id="random"),
    pytest.param(lambda: gen_star(1_000_000, itertools.repeat(1, 999_999)),
                 id="star"),
])
def test_generators_check_cap_before_building(monkeypatch, build):
    # An over-cap size is rejected before its edges exist; building them
    # first peaks at about 25 MB for the clique path (k = 400), 164 MB
    # for the random graph and 107 MB for the star (weights in a list).
    monkeypatch.setattr("distenum.graph.MAX_VERTICES", 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="exceeds the cap"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_clique_path_structure():
    # the replaced clique edge is gone; its endpoints now connect through
    # the rest of the clique (2 hops) or the k^2+1 hop path
    from distenum import brute_force_matrix
    k = 4
    g = gen_clique_path(k)
    assert (k - 1) not in {g.targets[i] for i in g.arcs_from(k - 2)}
    degs = sorted(g.degree(v) for v in range(g.n))
    assert degs == [2] * (k * k) + [k - 1] * k
    m = brute_force_matrix(g)
    assert m.entry(k - 2, k - 1) == 2
    assert m.entry(0, 1) == 1
    # some inner path vertex sits k^2 // 2 hops or more from the clique
    far = max(m.entry(0, v) for v in range(g.n))
    assert far >= k * k // 2


def test_star_shape():
    g = gen_star(4, [3, 1, 2])
    check_csr(g)
    assert g.degree(0) == 3
    assert all(g.degree(v) == 1 for v in range(1, 4))
    assert g.weighted
    single = gen_star(1, [])
    assert single.n == 1 and single.m == 0
    zero = gen_star(3, [0, 0])
    assert sorted(zero.weights[i] for i in zero.arcs_from(0)) == [0, 0]
    with pytest.raises(ValueError):
        gen_star(3, [1])


def test_bmm_graph_shape():
    g = gen_bmm_graph([[1]], [[1]])
    check_csr(g)
    assert g.n == 5 and g.m == 2
    from distenum import brute_force_matrix
    assert brute_force_matrix(g).entry(0, 2) == 2

    unreach = gen_bmm_graph([[1]], [[0]])
    assert brute_force_matrix(unreach).entry(0, 2) == float("inf")

    ident = [[1, 0], [0, 1]]
    g = gen_bmm_graph(ident, ident)
    assert g.n == 2 * 4 + 6
    assert g.m <= 2 * 4
    m = brute_force_matrix(g)
    for i in range(2):
        for k in range(2):
            want = 2 if i == k else None
            if want:
                assert m.entry(i, 4 + k) == 2
            else:
                assert m.entry(i, 4 + k) != 2
    with pytest.raises(ValueError):
        gen_bmm_graph([[1]], [[1, 0], [0, 1]])


def test_isolated_plus_edge_shape():
    g = gen_isolated_plus_edge(2)
    assert g.m == 1 and g.stats().max_degree == 1
    g = gen_isolated_plus_edge(5)
    check_csr(g)
    assert g.m == 1
    assert [g.targets[i] for i in g.arcs_from(3)] == [4]
    assert all(g.degree(v) == 0 for v in range(3))
    with pytest.raises(ValueError):
        gen_isolated_plus_edge(1)


def test_random_determinism_and_bounds():
    a = gen_random(10, 20, directed=False, seed=7)
    b = gen_random(10, 20, directed=False, seed=7)
    assert format_graph(a) == format_graph(b)
    c = gen_random(10, 20, directed=False, seed=8)
    assert format_graph(c) != format_graph(a)

    single = gen_random(1, 0)
    assert single.n == 1 and single.m == 0

    k10 = gen_random(10, 45, directed=False, seed=1)
    assert all(k10.degree(v) == 9 for v in range(10))

    with pytest.raises(ValueError):
        gen_random(3, 4, directed=False)
    with pytest.raises(ValueError):
        gen_random(3, 7, directed=True)


def test_random_undirected_pinned():
    # Pins the unordered-pair unranking against its stored output.
    text = format_graph(gen_random(2000, 8000, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "935c0304307c876819233f41f20f7075581b54c5eeb452f00a8994fe30c4c556")


def test_random_simple_and_weighted():
    g = gen_random(9, 30, directed=True, max_weight=5, seed=2)
    check_csr(g)
    seen = set()
    for u in range(g.n):
        for i in g.arcs_from(u):
            v = g.targets[i]
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))
            assert 0 <= g.weights[i] <= 5
