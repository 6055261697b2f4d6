"""End-to-end CLI runs, in process via main(argv)."""
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distenum
from distenum import (OutputMode, format_graph, gen_random, make_enumerator,
                      parse_graph)
from distenum.cli import main
from distenum.oracle import format_bool_matrix, parse_bool_matrix


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def stream_lines(out):
    return [ln.split() for ln in out.splitlines() if ln.strip()]


@pytest.fixture()
def path_file(tmp_path, capsys):
    p = tmp_path / "path.graph"
    rc, _, _ = run(capsys, "generate", "random", "--n", "3", "--m", "2",
                   "--seed", "0", "-o", str(p))
    assert rc == 0
    return p


def test_generate_clique_path(tmp_path, capsys):
    out = tmp_path / "cp.graph"
    rc, _, _ = run(capsys, "generate", "clique-path", "--k", "4",
                   "-o", str(out))
    assert rc == 0
    g = parse_graph(out.read_text())
    assert g.n == 20 and not g.directed


def test_generate_star_explicit_weights(capsys):
    rc, out, _ = run(capsys, "generate", "star", "--n", "4",
                     "--weights", "3,1,2")
    assert rc == 0
    g = parse_graph(out)
    assert g.n == 4 and g.weighted and g.m == 3


def test_generate_random_deterministic(capsys):
    rc1, out1, _ = run(capsys, "generate", "random", "--n", "10", "--m", "20",
                       "--seed", "7")
    rc2, out2, _ = run(capsys, "generate", "random", "--n", "10", "--m", "20",
                       "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_generate_bad_params(capsys):
    rc, _, err = run(capsys, "generate", "clique-path", "--k", "2")
    assert rc == 2 and "error" in err


def test_generate_star_over_cap_is_usage_error(capsys, monkeypatch):
    # The spoke weights are drawn only after the vertex count passes.
    monkeypatch.setattr("distenum.graph.MAX_VERTICES", 10_000)
    rc, out, err = run(capsys, "generate", "star", "--n", "1000000")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds the cap" in err


def test_enumerate_sssd_path(tmp_path, capsys):
    p = tmp_path / "p.graph"
    run(capsys, "generate", "isolated-plus-edge", "--n", "2", "-o", str(p))
    # 0-1 edge; source 0 gives exactly two finite lines
    rc, out, _ = run(capsys, "enumerate", str(p), "--source", "0")
    assert rc == 0
    assert stream_lines(out) == [["0", "0", "0"], ["0", "1", "1"]]


def test_enumerate_sssd_three_lines(tmp_path, capsys):
    p = tmp_path / "p3.graph"
    p.write_text("3 2 undirected unweighted\n0 1\n1 2\n")
    rc, out, _ = run(capsys, "enumerate", str(p), "--source", "0")
    assert rc == 0
    lines = stream_lines(out)
    assert len(lines) == 3 and lines[-1] == ["0", "2", "2"]


def test_enumerate_noself_reachable_empty_graph(tmp_path, capsys):
    p = tmp_path / "e.graph"
    p.write_text("3 0 undirected unweighted\n")
    rc, out, _ = run(capsys, "enumerate", str(p), "--no-self", "--reachable")
    assert rc == 0
    assert stream_lines(out) == []


def test_enumerate_sorted_inf_last(path_file, capsys, tmp_path):
    p = tmp_path / "s.graph"
    p.write_text("5 2 directed unweighted\n0 1\n1 2\n")
    rc, out, _ = run(capsys, "enumerate", str(p), "--sorted")
    assert rc == 0
    ds = [math.inf if d == "inf" else int(d)
          for _, _, d in stream_lines(out)]
    assert ds == sorted(ds)
    assert ds[-1] == math.inf


def test_enumerate_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("2 1 undirected unweighted\n0 1\n"))
    rc, out, _ = run(capsys, "enumerate", "-", "--no-self")
    assert rc == 0
    assert sorted(stream_lines(out)) == [["0", "1", "1"], ["1", "0", "1"]]


def test_enumerate_limit_and_report(path_file, capsys):
    rc, out, err = run(capsys, "enumerate", str(path_file), "--limit", "2")
    assert rc == 0 and len(stream_lines(out)) == 2
    rc, out, err = run(capsys, "enumerate", str(path_file), "--report")
    assert rc == 0 and "max_delay=" in err
    # the report streams too: it covers the pulls made, not the stream
    rc, out, err = run(capsys, "enumerate", str(path_file), "--limit", "3",
                       "--report")
    assert rc == 0 and len(stream_lines(out)) == 3
    assert "pulls=3\n" in err and "max_delay=" in err


def test_enumerate_chunked_output_matches_stream(tmp_path, capsys):
    # Sparse, directed and weighted: some pairs are unreachable, and the
    # stream spans several write chunks.
    g = gen_random(40, 50, directed=True, max_weight=9, seed=5)
    p = tmp_path / "w.graph"
    p.write_text(format_graph(g))
    for flags, mode in (([], OutputMode()),
                        (["--sorted"], OutputMode(sorted=True))):
        lines = [f"{s} {t} {'inf' if d == math.inf else d}\n"
                 for s, t, d in make_enumerator(g, mode)]
        assert len(lines) == 1600 and lines[-1].endswith(" inf\n")
        rc, out, _ = run(capsys, "enumerate", str(p), *flags)
        assert rc == 0 and out == "".join(lines)
        rc, out, err = run(capsys, "enumerate", str(p), *flags,
                           "--limit", "1000", "--report")
        assert rc == 0 and out == "".join(lines[:1000])
        assert "pulls=1000\n" in err


@pytest.mark.parametrize("flag,mode", [
    ("--sorted", OutputMode(sorted=True)),
    ("--no-self", OutputMode(no_self=True)),
])
def test_enumerate_weighted_bytes_at_chunk_edges(tmp_path, capsys, flag,
                                                 mode):
    # A weighted directed graph with unreachable pairs; limits around one
    # write chunk (512 triples) and none.
    g = gen_random(40, 50, directed=True, max_weight=9, seed=5)
    p = tmp_path / "w.graph"
    p.write_text(format_graph(g))
    for limit in (0, 1, 511, 512, 513, None):
        want = "".join(f"{s} {t} {d}\n" for s, t, d in
                       itertools.islice(make_enumerator(g, mode), limit))
        extra = [] if limit is None else ["--limit", str(limit)]
        rc, out, _ = run(capsys, "enumerate", str(p), flag, *extra)
        assert rc == 0 and out == want, limit
    assert " inf\n" in want


def test_enumerate_starts_without_numpy(tmp_path):
    # Only the relaxation oracle uses numpy, and it loads it on first use.
    p = tmp_path / "r.graph"
    p.write_text(format_graph(gen_random(30, 60, max_weight=5, seed=2)))
    code = f"""if True:
        import os, sys
        import distenum, distenum.cli
        sys.stdout = open(os.devnull, "w")
        assert distenum.cli.main(["enumerate", {str(p)!r}]) == 0
        assert "numpy" not in sys.modules
        g = distenum.parse_graph(open({str(p)!r}).read())
        got = distenum.brute_force_matrix(g)
        assert "numpy" in sys.modules
        assert got == distenum.brute_force_matrix(g, "search")
        """
    env = dict(os.environ,
               PYTHONPATH=str(Path(distenum.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_enumerate_huge_header_is_input_error(tmp_path, capsys):
    # The cap rejects the header before any allocation; without it the
    # CSR build asks for 800 GB, which the allocator refuses at once.
    p = tmp_path / "huge.graph"
    p.write_text("100000000000 0 undirected unweighted\n")
    rc, out, err = run(capsys, "enumerate", str(p))
    assert rc == 2 and out == ""
    assert err.startswith("error: vertex count") and err.count("\n") == 1


def test_enumerate_limit_zero_prints_nothing(path_file, capsys):
    rc, out, _ = run(capsys, "enumerate", str(path_file), "--limit", "0")
    assert rc == 0 and out == ""


def test_negative_counts_are_usage_errors(path_file, capsys):
    for argv in (["enumerate", str(path_file), "--limit", "-2"],
                 ["bench", "clique-path", "--sizes", "4", "--repeats", "0"],
                 ["generate", "random", "--n", "5", "--m", "3",
                  "--max-weight", "-2"],
                 ["bench", "random", "--sizes", "5", "--max-weight", "-3"],
                 ["generate", "star", "--n", "3", "--max-weight", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "must be at least" in capsys.readouterr().err


def test_enumerate_closed_pipe_ends_quietly(tmp_path):
    # The stream is far larger than the pipe's buffer, so the child is
    # still writing when the reader goes away, as under `| head -1`.
    p = tmp_path / "r.graph"
    p.write_text(format_graph(gen_random(300, 1200, seed=1)))
    env = dict(os.environ,
               PYTHONPATH=str(Path(distenum.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "distenum.cli", "enumerate", str(p)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().split() == [b"0", b"0", b"0"]
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_enumerate_invalid_source(path_file, capsys):
    rc, _, err = run(capsys, "enumerate", str(path_file), "--source", "9")
    assert rc == 2 and "error" in err


def test_verify_all_mode_combos(tmp_path, capsys):
    p = tmp_path / "r.graph"
    run(capsys, "generate", "random", "--n", "12", "--m", "25",
        "--seed", "3", "-o", str(p))
    flag_sets = [[], ["--no-self"], ["--reachable"], ["--sorted"],
                 ["--row-wise"],
                 ["--no-self", "--reachable"], ["--no-self", "--sorted"],
                 ["--reachable", "--sorted"],
                 ["--row-wise", "--no-self"], ["--row-wise", "--reachable"],
                 ["--row-wise", "--no-self", "--reachable"],
                 ["--no-self", "--reachable", "--sorted"]]
    assert len(flag_sets) == 12
    for flags in flag_sets:
        rc, out, _ = run(capsys, "verify", str(p), *flags)
        assert rc == 0, (flags, out)
        assert out.startswith("OK")


def test_verify_corrupt_stream_flagged(path_file, capsys):
    rc, out, _ = run(capsys, "verify", str(path_file), "--corrupt")
    assert rc == 1
    assert "VIOLATION" in out


def test_verify_corrupt_empty_stream_is_usage_error(tmp_path, capsys):
    # One vertex, no self pair: nothing to corrupt, so the self-test
    # cannot fail the way it must.
    p = tmp_path / "one.graph"
    run(capsys, "generate", "random", "--n", "1", "--m", "0", "-o", str(p))
    rc, out, err = run(capsys, "verify", str(p), "--corrupt", "--no-self")
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "corrupt" in err


def test_verify_dedup(tmp_path, capsys):
    p = tmp_path / "u.graph"
    run(capsys, "generate", "random", "--n", "9", "--m", "14",
        "--seed", "5", "-o", str(p))
    rc, out, _ = run(capsys, "verify", str(p), "--dedup", "--no-self")
    assert rc == 0 and out.startswith("OK")


def test_rowwise_sorted_combination_rejected(path_file, capsys):
    rc, _, err = run(capsys, "enumerate", str(path_file),
                     "--row-wise", "--sorted")
    assert rc == 2 and "error" in err


def test_unknown_flag_usage_error(path_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", str(path_file), "--frobnicate"])
    assert exc.value.code == 2


def test_missing_graph_file(capsys):
    rc, _, err = run(capsys, "enumerate", "/nonexistent/q.graph")
    assert rc == 2 and "error" in err


def test_bench_smoke(capsys):
    for argv in (["clique-path", "--sizes", "4,8"],
                 ["random", "--sizes", "12,16", "--max-weight", "9"],
                 ["random", "--sizes", "12,16", "--source", "3"],
                 ["isolated-plus-edge", "--sizes", "6,9"],
                 ["star", "--sizes", "6,9", "--sorted"],
                 ["clique-path", "--sizes", "4", "--repeats", "3",
                  "--dedup"]):
        rc, out, _ = run(capsys, "bench", *argv)
        assert rc == 0, argv
        rows = [ln for ln in out.splitlines() if ln.strip()]
        # header plus one row per size, fitted column populated
        assert len(rows) == 1 + len(argv[2].split(","))
        assert "fitted" in rows[0]
        for row in rows[1:]:
            assert float(row.split()[6]) > 0


@pytest.mark.parametrize("argv", [
    ["random", "--sizes", "5"],
    ["clique-path", "--sizes", "2"],
    ["star", "--sizes", "0"],
    ["random", "--sizes", "20", "--source", "50"],
    ["random", "--sizes", "20,5"],
])
def test_bench_bad_size_prints_nothing(capsys, argv):
    # Every size is checked before the header, so a bad one leaves no
    # partial table behind.
    rc, out, err = run(capsys, "bench", *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("sizes,bad", [("10,,20", ""), ("10,1e3", "1e3")])
def test_bench_non_integer_size_is_usage_error(capsys, sizes, bad):
    # An item that is not an integer is a usage error naming the flag and
    # the item, raised while parsing, before any table is printed.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "random", "--sizes", sizes])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f"argument --sizes: invalid literal for int() "
                        f"with base 10: {bad!r}\n")


def test_bmm_identity(tmp_path, capsys):
    ident = [[1, 0], [0, 1]]
    a = tmp_path / "a.mat"
    a.write_text(format_bool_matrix(ident))
    rc, out, _ = run(capsys, "bmm", str(a), str(a))
    assert rc == 0
    assert parse_bool_matrix(out) == ident


def test_bmm_zero_annihilates(tmp_path, capsys):
    zero = [[0, 0], [0, 0]]
    any_m = [[1, 1], [0, 1]]
    a = tmp_path / "z.mat"
    b = tmp_path / "m.mat"
    a.write_text(format_bool_matrix(zero))
    b.write_text(format_bool_matrix(any_m))
    rc, out, _ = run(capsys, "bmm", str(a), str(b))
    assert rc == 0
    assert parse_bool_matrix(out) == zero


def test_bmm_check_random(tmp_path, capsys):
    import random as _r
    rng = _r.Random(11)
    d = 8
    a = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
    b = [[rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
    fa = tmp_path / "ra.mat"
    fb = tmp_path / "rb.mat"
    fa.write_text(format_bool_matrix(a))
    fb.write_text(format_bool_matrix(b))
    rc, _, err = run(capsys, "bmm", str(fa), str(fb), "--check")
    assert rc == 0 and "OK" in err


def test_bmm_dimension_mismatch(tmp_path, capsys):
    fa = tmp_path / "da.mat"
    fb = tmp_path / "db.mat"
    fa.write_text(format_bool_matrix([[1]]))
    fb.write_text(format_bool_matrix([[1, 0], [0, 1]]))
    rc, _, err = run(capsys, "bmm", str(fa), str(fb))
    assert rc == 2 and "error" in err
