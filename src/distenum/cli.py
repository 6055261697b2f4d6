"""Command line front end.

Subcommands: generate family graphs, enumerate distance streams, verify
a stream against the brute-force oracle, bench delay statistics across
regimes, and bmm for the boolean-product reduction.  Exit codes: 0 on
success, 1 when verification fails or the schedule underflows, 2 for
usage and input errors.
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import sys

from .bmm import bmm_multiply
from .enumerators import OutputMode, ScheduleUnderflow, make_enumerator
from .graph import (format_graph, gen_clique_path, gen_isolated_plus_edge,
                    gen_random, gen_star, parse_graph)
from .metering import Meter, run_metered
from .oracle import (brute_force_matrix, direct_multiply, format_bool_matrix,
                     parse_bool_matrix, validate)


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for -."""
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _at_least(minimum: int):
    """argparse type: an int no smaller than minimum (else exit 2)."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return count


def _sizes(text: str) -> list[int]:
    """argparse type: comma-separated integer sizes (else exit 2)."""
    try:
        return [int(item) for item in text.split(",")]
    except ValueError as exc:
        # int() names the item it could not read
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", type=int, default=None,
                   help="single-source run from this vertex")
    p.add_argument("--row-wise", action="store_true",
                   help="group output by source, sources ascending")
    p.add_argument("--no-self", action="store_true",
                   help="drop (v, v, 0) pairs")
    p.add_argument("--reachable", action="store_true", dest="reachable_only",
                   help="drop unreachable (infinite) pairs")
    p.add_argument("--sorted", action="store_true",
                   help="globally non-decreasing distance order")
    p.add_argument("--dedup", action="store_true",
                   help="one representative per unordered pair "
                        "(undirected graphs)")


def _mode_of(args) -> OutputMode:
    return OutputMode(row_wise=args.row_wise, no_self=args.no_self,
                      reachable_only=args.reachable_only, sorted=args.sorted)


# -- generate ---------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.family == "clique-path":
        g = gen_clique_path(args.k)
    elif args.family == "star":
        if args.weights:
            weights = [int(x) for x in args.weights.split(",")]
        else:
            # drawn lazily: gen_star checks n before taking any
            rng = random.Random(args.seed)
            weights = (rng.randint(1, args.max_weight)
                       for _ in range(args.n - 1))
        g = gen_star(args.n, weights)
    elif args.family == "random":
        g = gen_random(args.n, args.m, directed=args.directed,
                       max_weight=args.max_weight, seed=args.seed)
    else:
        g = gen_isolated_plus_edge(args.n)
    _write_text(format_graph(g), args.output)
    return 0


# -- enumerate --------------------------------------------------------------

# Triples formatted per stdout write.  Small, so the first line still
# leaves as soon as the output buffer fills, not a long chunk later.
WRITE_CHUNK = 512


def cmd_enumerate(args) -> int:
    g = parse_graph(_read_text(args.graph))
    enum = make_enumerator(g, _mode_of(args), source=args.source,
                           dedup=args.dedup)
    meter = Meter(enum) if args.report else None
    stream = itertools.islice(meter or enum, args.limit)
    write = sys.stdout.write
    flat = itertools.chain.from_iterable
    while chunk := list(itertools.islice(stream, WRITE_CHUNK)):
        # One % per chunk; "%s" % math.inf is "inf", the format's
        # unreachable distance.
        write("%s %s %s\n" * len(chunk) % tuple(flat(chunk)))
    if meter is not None:
        sys.stderr.write(meter.report().to_kv())
    return 0


# -- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    g = parse_graph(_read_text(args.graph))
    mode = _mode_of(args)
    enum = make_enumerator(g, mode, source=args.source, dedup=args.dedup)
    triples, report = run_metered(enum)
    if args.corrupt:
        if not triples:
            print("error: --corrupt needs a non-empty stream to corrupt",
                  file=sys.stderr)
            return 2
        mid = len(triples) // 2
        t = triples[mid]
        bad = 1 if t.distance == math.inf else t.distance + 1
        triples[mid] = t._replace(distance=bad)
    matrix = brute_force_matrix(g)
    violation = validate(triples, matrix, mode, dedup=args.dedup,
                         source=args.source)
    if violation is not None:
        print(f"VIOLATION pair={violation.pair} {violation.reason}")
        return 1
    if report.max_delay > report.declared_bound_value:
        print(f"VIOLATION delay {report.max_delay} exceeds declared bound "
              f"{report.declared_bound_value}")
        return 1
    print(f"OK {len(triples)} triples, max delay {report.max_delay} <= "
          f"bound {report.declared_bound_value}")
    return 0


# -- bench ------------------------------------------------------------------

def _bench_graph(family: str, size: int, args):
    if family == "clique-path":
        return gen_clique_path(size)
    if family == "star":
        rng = random.Random(args.seed)
        return gen_star(size, (rng.randint(1, max(1, size))
                               for _ in range(size - 1)))
    if family == "random":
        return gen_random(size, 4 * size, directed=args.directed,
                          max_weight=args.max_weight, seed=args.seed)
    return gen_isolated_plus_edge(size)


def cmd_bench(args) -> int:
    mode = _mode_of(args)

    def enumerator(g):
        return make_enumerator(g, mode, source=args.source, dedup=args.dedup)

    # Build every size's graph and first enumerator before the header, so
    # the generators' and the enumerators' own checks reject a bad size
    # or source while nothing has been printed.
    runs = []
    for size in args.sizes:
        g = _bench_graph(args.family, size, args)
        runs.append((size, g, enumerator(g)))
    print(f"{'size':>6} {'n':>7} {'m':>8} {'maxdeg':>6} {'avgdeg':>7} "
          f"{'max_delay':>9} {'fitted':>8} {'peak_q':>7} {'lazy':>10}")
    for size, g, enum in runs:
        best = None
        for repeat in range(args.repeats):
            if repeat:
                enum = enumerator(g)
            _, rep = run_metered(enum, keep_triples=False)
            if best is None or rep.max_delay > best.max_delay:
                best = rep
        stats = g.stats()
        fitted = "-" if best.fitted_constant is None \
            else f"{float(best.fitted_constant):.2f}"
        print(f"{size:>6} {g.n:>7} {g.m:>8} {stats.max_degree:>6} "
              f"{float(stats.avg_degree):>7.2f} {best.max_delay:>9} "
              f"{fitted:>8} {best.peak_queue:>7} "
              f"{best.lazy_cells_allocated:>10}")
    return 0


# -- bmm --------------------------------------------------------------------

def cmd_bmm(args) -> int:
    a = parse_bool_matrix(_read_text(args.a))
    b = parse_bool_matrix(_read_text(args.b))
    got = bmm_multiply(a, b)
    _write_text(format_bool_matrix(got), args.output)
    if args.check:
        want = direct_multiply(a, b)
        if got != want:
            print("MISMATCH against direct product", file=sys.stderr)
            return 1
        print("OK reduction matches direct product", file=sys.stderr)
    return 0


# -- wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distenum",
        description="Shortest-distance enumeration with delay instrumentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a family graph")
    fam = p.add_subparsers(dest="family", required=True)
    f = fam.add_parser("clique-path", help="clique with one edge stretched "
                                           "into a long path")
    f.add_argument("--k", type=int, required=True)
    f = fam.add_parser("star", help="weighted star around vertex 0")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--weights", help="comma-separated spoke weights")
    f.add_argument("--max-weight", type=_at_least(1), default=100)
    f.add_argument("--seed", type=int, default=0)
    f = fam.add_parser("random", help="uniform simple random graph")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--m", type=int, required=True)
    f.add_argument("--directed", action="store_true")
    f.add_argument("--max-weight", type=_at_least(0), default=0)
    f.add_argument("--seed", type=int, default=0)
    f = fam.add_parser("isolated-plus-edge", help="one edge, rest isolated")
    f.add_argument("--n", type=int, required=True)
    for f in fam.choices.values():
        f.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("enumerate", help="print the distance stream")
    p.add_argument("graph", help="graph file, or - for stdin")
    _add_mode_flags(p)
    p.add_argument("--limit", type=_at_least(0), default=None,
                   help="stop after this many triples")
    p.add_argument("--report", action="store_true",
                   help="print delay statistics of the pulls made "
                        "to stderr after the stream")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="validate a stream against the "
                                      "brute-force oracle")
    p.add_argument("graph")
    _add_mode_flags(p)
    p.add_argument("--corrupt", action="store_true",
                   help="flip one distance first (checker self-test)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="delay statistics across sizes of a "
                                     "graph family")
    p.add_argument("family", choices=["clique-path", "star", "random",
                                      "isolated-plus-edge"])
    p.add_argument("--sizes", type=_sizes, required=True,
                   help="comma-separated sizes (k for clique-path, n "
                        "otherwise)")
    _add_mode_flags(p)
    p.add_argument("--repeats", type=_at_least(1), default=1,
                   help="metered runs per size; the row reports the worst")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directed", action="store_true",
                   help="random family only")
    p.add_argument("--max-weight", type=_at_least(0), default=0,
                   help="random family only; 0 means unweighted")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bmm", help="boolean matrix product via the "
                                   "distance-2 reduction")
    p.add_argument("a", help="matrix file, or - for stdin")
    p.add_argument("b", help="matrix file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--check", action="store_true",
                   help="also run the direct product and compare")
    p.set_defaults(func=cmd_bmm)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head`): nothing is left to
        # say.  Point stdout at devnull so the interpreter's closing flush
        # cannot fail again, as the Python docs advise under SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ScheduleUnderflow as exc:
        print(f"schedule underflow: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
