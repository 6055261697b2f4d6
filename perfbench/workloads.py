"""The benchmark's workloads, each as a timed run and a traced run.

A timed run (trace 0) repeats one unit of work until the run's seconds
are spent and reports the end-to-end metrics.  A traced run (trace 1)
does one unit with spans around every call into a layer, repeats it
under run_metered and under cProfile, times the oracle's plain search
as a floor, and reports the per-layer metrics.  Both runs check every
output they produce; any wrong output, exception, non-zero exit,
declared-bound breach or count drift fails the operation it belongs to.
"""
from __future__ import annotations

import compileall
import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

from distenum import (DistanceTriple, OutputMode, brute_force_matrix, cli,
                      make_enumerator, parse_graph, run_metered, validate)

import checks
import graphs
from spans import LAYERS, Tracer, profile_layers

K_NEAREST = 16
MAX_WEIGHT = 1000
# Degree caps: a few vertices reach them on every seed (see graphs.py).
UNDIRECTED_CAP = 16
OUT_DEGREE_CAP = 8
# Vertices of the sorted workload's graph that no arc enters.
NO_IN_ARCS = 3
# A CLI child still running after this long is killed and fails its
# operation, so a hung program cannot hold the run past its time limit.
CHILD_TIMEOUT_S = 120

# Per scale: vertex counts, the knn query set size, setup repeats and
# the output lines per window of the CLI's per-triple delay.
SIZES = {
    "full": {"cli_n": 600, "sorted_n": 300, "knn_n": 20000,
             "queries": 100, "setup_reps": 5, "cli_window": 1024},
    "tiny": {"cli_n": 60, "sorted_n": 20, "knn_n": 300,
             "queries": 5, "setup_reps": 2, "cli_window": 256},
}

UNCONSTRAINED = OutputMode()
SORTED_NO_SELF = OutputMode(sorted=True, no_self=True)
KNN = OutputMode(no_self=True, reachable_only=True)


@dataclasses.dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    scale: str
    corrupt: bool
    workdir: Path
    src: Path

    @property
    def size(self) -> dict:
        return SIZES[self.scale]

    def rng(self) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}")


class Run:
    """Operations attempted, their problems, metrics, fingerprint, spans."""

    def __init__(self):
        self.ops = 0
        self.problems: dict[int, list[str]] = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        self.fingerprint: dict = {}
        self.spans: dict[str, tuple[int, float, float]] = {}

    def op(self) -> int:
        self.ops += 1
        return self.ops - 1

    def problem(self, ops, why: str) -> None:
        for i in ([ops] if isinstance(ops, int) else ops):
            self.problems.setdefault(i, []).append(why)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s) - 1e-9) - 1)]


def report_fields(report) -> dict:
    """Every DelayReport field except wall_time_s, as plain JSON values."""
    fields = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report) if f.name != "wall_time_s"}
    return json.loads(json.dumps(fields, sort_keys=True, default=str))


def report_steps(report) -> int:
    """Preprocessing plus every pull's counted steps."""
    return report.preprocessing_steps + int(report.mean_delay * report.pulls)


def stream_digest(triples) -> int:
    h = 0
    for t in triples:
        h = hash((h, t))
    return h


@dataclasses.dataclass
class Stream:
    wall_s: float
    steps: int
    max_delay: int
    bound: int
    emitted: int
    digest: int
    triples: list | None


def timed_stream(g, mode, durations: array, *, source=None, limit=None,
                 keep=False) -> Stream:
    """make_enumerator, prepare and a pull loop timing each pull.

    Metering stays off: steps come from the counter's total around each
    pull, as run_metered reads them.  A drain (no limit) hashes its
    triples; a prefix keeps them.  The previous stream's garbage is
    collected before the clock starts.
    """
    gc.collect()
    clock = time.perf_counter_ns
    t0 = clock()
    enum = make_enumerator(g, mode, source=source)
    enum.prepare()
    counter = enum.counter
    pull = enum.pull
    steps = enum.preprocessing_steps
    max_delay = 0
    emitted = 0
    h = 0
    kept = [] if keep else None
    while limit is None or emitted < limit:
        before = counter.total
        t1 = clock()
        t = pull()
        t2 = clock()
        d = counter.total - before
        steps += d
        if d > max_delay:
            max_delay = d
        if t is None:
            break
        durations.append(t2 - t1)
        emitted += 1
        if keep:
            kept.append(t)
        else:
            h = hash((h, t))
    wall = (clock() - t0) / 1e9
    if keep:
        h = stream_digest(kept)
    return Stream(wall, steps, max_delay, enum.declared_bound(), emitted, h,
                  kept)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup_samples(ctx: Context, text: str, mode, *, prepare: bool):
    """Repeated parse (and make_enumerator + prepare); median seconds."""
    samples = []
    g = None
    for _ in range(ctx.size["setup_reps"]):
        t0 = time.perf_counter()
        g = parse_graph(text)
        if prepare:
            make_enumerator(g, mode).prepare()
        samples.append(time.perf_counter() - t0)
    return g, statistics.median(samples)


def _check_report(run: Run, ops, report, label: str) -> None:
    if report.max_delay > report.declared_bound_value:
        run.problem(ops, f"{label}: delay {report.max_delay} exceeds "
                         f"declared bound {report.declared_bound_value}")


def _validate(run: Run, ops, ctx: Context, triples, g, mode) -> None:
    if ctx.corrupt:
        triples = checks.corrupt(triples)
    v = validate(triples, brute_force_matrix(g), mode)
    if v is not None:
        run.problem(ops, f"stream wrong at {v.pair}: {v.reason}")


def _put_common(run: Run, *, setup_s, wall_s, triples, total_steps,
                max_delay, pulls_ns, query_s, rss_mb) -> None:
    """End-to-end metrics, the same names on every workload.

    wall_s is the median time of one unit of work (one CLI run, one
    drain, one pass over the knn sources); triples and total_steps are
    what one unit produces and counts.  query_s holds the latency of every query
    (CLI run, drain or k-prefix) the run made.
    """
    run.put("setup_s", setup_s, "s")
    run.put("wall_s", wall_s, "s")
    run.put("triples_per_s", triples / wall_s, "1/s")
    run.put("steps_per_s", total_steps / wall_s, "1/s")
    run.put("pull_p50_us", pct(pulls_ns, 0.50) / 1e3, "us")
    run.put("pull_p99_us", pct(pulls_ns, 0.99) / 1e3, "us")
    run.put("query_p50_ms", pct(query_s, 0.50) * 1e3, "ms")
    run.put("query_p90_ms", pct(query_s, 0.90) * 1e3, "ms")
    run.put("queries_per_s", len(query_s) / sum(query_s), "1/s")
    run.put("peak_rss_mb", rss_mb, "MB")
    run.put("total_steps", total_steps, "count")
    run.put("max_delay_steps", max_delay, "count")


# ---------------------------------------------------------------------------
# cli-apsd-unweighted

def _cli_input(ctx: Context):
    n = ctx.size["cli_n"]
    edges = graphs.random_edges(n, 4 * n, directed=False, max_weight=0,
                                max_degree=UNDIRECTED_CAP, rng=ctx.rng())
    text = graphs.graph_text(n, edges, directed=False, weighted=False)
    path = ctx.workdir / "graph.txt"
    path.write_text(text, encoding="ascii")
    return text, path


@dataclasses.dataclass
class CliRun:
    rc: int
    first_byte_s: float
    wall_s: float
    arrivals: list
    out: bytes
    max_rss_mb: float
    stderr: str


def run_cli(ctx: Context, argv: list[str]) -> CliRun:
    """One `distenum` child with stdout on a pipe this process drains.

    Each read is timestamped, so the first byte and the pace of output
    are seen as a consumer of the command sees them.  A child past
    CHILD_TIMEOUT_S is killed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ctx.src), env.get("PYTHONPATH")) if p)
    # the command's stdout is block-buffered, as when a shell redirects it
    env.pop("PYTHONUNBUFFERED", None)
    err_path = ctx.workdir / "stderr.txt"
    arrivals = []
    buf = bytearray()
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "distenum.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
    try:
        fd = proc.stdout.fileno()
        while True:
            left = t0 + CHILD_TIMEOUT_S - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            arrivals.append((time.perf_counter(), chunk.count(b"\n")))
            buf += chunk
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    first = arrivals[0][0] - t0 if arrivals else wall
    return CliRun(proc.returncode, first, wall, arrivals, bytes(buf),
                  usage.ru_maxrss / 1024,
                  err_path.read_text(encoding="utf-8", errors="replace"))


def window_delays_ns(arrivals, window: int) -> list[int]:
    """Per-triple delay over each window of output lines after the first.

    arrivals holds (time, lines) per read from the child's stdout.  A
    window closes at the read that completes it; reads arrive in pieces
    of the child's output buffer, so a window spans several of them.
    """
    out = []
    lines = 0
    start = arrivals[0][0] if arrivals else 0.0
    for t, k in arrivals[1:]:
        lines += k
        if lines >= window:
            out.append(int((t - start) * 1e9 / lines))
            start = t
            lines = 0
    return out


def _compile_sources(ctx: Context) -> None:
    """Byte-compile distenum once, so every child starts from the cache."""
    compileall.compile_dir(ctx.src / "distenum", quiet=1)


def cli_apsd_unweighted(ctx: Context) -> Run:
    run = Run()
    text, path = _cli_input(ctx)
    _compile_sources(ctx)
    firsts, walls, rss, delays_ns = [], [], [], array("q")
    first_out = None
    first_digest = None
    deadline = time.perf_counter() + ctx.seconds
    while run.ops == 0 or time.perf_counter() < deadline:
        op = run.op()
        res = run_cli(ctx, ["enumerate", str(path)])
        if res.rc != 0:
            run.problem(op, f"exit {res.rc}: {res.stderr.strip()[-200:]}")
            continue
        firsts.append(res.first_byte_s)
        walls.append(res.wall_s)
        rss.append(res.max_rss_mb)
        delays_ns.extend(window_delays_ns(res.arrivals,
                                          ctx.size["cli_window"]))
        digest = hashlib.sha256(res.out).digest()
        if first_out is None:
            first_out, first_digest = res.out, digest
        elif digest != first_digest:
            run.problem(op, "CLI output differs between runs")
    all_ops = range(run.ops)
    if first_out is None:
        return run
    g = parse_graph(text)
    _, report = run_metered(make_enumerator(g, UNCONSTRAINED),
                            keep_triples=False)
    run.fingerprint = report_fields(report)
    _check_report(run, all_ops, report, "run_metered")
    stream = checks.parse_stream(first_out, DistanceTriple)
    if len(stream) != report.pulls - 1:
        run.problem(all_ops, f"CLI printed {len(stream)} triples, "
                             f"run_metered {report.pulls - 1}")
    _validate(run, all_ops, ctx, stream, g, UNCONSTRAINED)
    steps = report_steps(report)
    _put_common(run, setup_s=statistics.median(firsts),
                wall_s=statistics.median(walls),
                triples=len(stream), total_steps=steps,
                max_delay=report.max_delay, pulls_ns=delays_ns,
                query_s=walls, rss_mb=statistics.median(rss))
    return run


# ---------------------------------------------------------------------------
# lib-sorted-weighted

def _sorted_input(ctx: Context) -> str:
    """Directed graph whose reachability is the same on every seed.

    A random cycle through vertices [NO_IN_ARCS, n) makes them strongly
    connected, each of the first NO_IN_ARCS vertices gets one arc into
    the cycle and no arc into itself, and the remaining arcs are
    uniform.  Every source then misses the same targets, so the directed
    infinite sweep runs from every source and the counted steps barely
    move between seeds.
    """
    n = ctx.size["sorted_n"]
    rng = ctx.rng()
    core = list(range(NO_IN_ARCS, n))
    rng.shuffle(core)
    planted = list(zip(core, core[1:] + core[:1]))
    planted += [(u, rng.choice(core)) for u in range(NO_IN_ARCS)]
    edges = graphs.random_edges(n, 4 * n, directed=True,
                                max_weight=MAX_WEIGHT,
                                max_degree=OUT_DEGREE_CAP, rng=rng,
                                planted=planted, no_in_arcs=NO_IN_ARCS)
    return graphs.graph_text(n, edges, directed=True, weighted=True)


def lib_sorted_weighted(ctx: Context) -> Run:
    run = Run()
    text = _sorted_input(ctx)
    g, setup_s = _setup_samples(ctx, text, SORTED_NO_SELF, prepare=True)
    durations = array("q")
    streams: dict[int, Stream] = {}
    deadline = time.perf_counter() + ctx.seconds
    while run.ops == 0 or time.perf_counter() < deadline:
        op = run.op()
        try:
            streams[op] = timed_stream(g, SORTED_NO_SELF, durations)
        except Exception as exc:  # any failure of the program is counted
            run.problem(op, f"{type(exc).__name__}: {exc}")
    rss = max_rss_mb()
    all_ops = range(run.ops)
    if not streams:
        return run
    triples, report = run_metered(make_enumerator(g, SORTED_NO_SELF))
    run.fingerprint = report_fields(report)
    _check_report(run, all_ops, report, "run_metered")
    steps = report_steps(report)
    digest = stream_digest(triples)
    for op, s in streams.items():
        if (s.steps, s.max_delay, s.digest) != \
                (steps, report.max_delay, digest):
            run.problem(op, f"drain drifted from run_metered: steps "
                            f"{s.steps}/{steps}, max delay "
                            f"{s.max_delay}/{report.max_delay}")
        if s.max_delay > s.bound:
            run.problem(op, f"delay {s.max_delay} exceeds bound {s.bound}")
    _validate(run, all_ops, ctx, triples, g, SORTED_NO_SELF)
    walls = [s.wall_s for s in streams.values()]
    _put_common(run, setup_s=setup_s, wall_s=statistics.median(walls),
                triples=report.pulls - 1, total_steps=steps,
                max_delay=report.max_delay, pulls_ns=durations,
                query_s=walls, rss_mb=rss)
    return run


# ---------------------------------------------------------------------------
# knn-queries

class Prefix:
    """An enumerator whose stream ends after its first k triples.

    run_metered drains it, so a k-nearest query gets a DelayReport; the
    closing pull that reports the end does no work.
    """

    def __init__(self, enum, k: int):
        self._enum = enum
        self._left = k

    def __getattr__(self, name):
        return getattr(self._enum, name)

    def pull(self):
        if self._left == 0:
            return None
        self._left -= 1
        return self._enum.pull()


def _knn_input(ctx: Context):
    n = ctx.size["knn_n"]
    rng = ctx.rng()
    edges = graphs.random_edges(n, 4 * n, directed=False,
                                max_weight=MAX_WEIGHT,
                                max_degree=UNDIRECTED_CAP, rng=rng)
    text = graphs.graph_text(n, edges, directed=False, weighted=True)
    sources = [rng.randrange(n) for _ in range(ctx.size["queries"])]
    return text, edges, sources


def _check_prefixes(run: Run, ctx: Context, edges, sources, outs,
                    ops_of) -> float:
    """Check each query's prefix against the reference; return its time."""
    adj = graphs.adjacency(ctx.size["knn_n"], edges, directed=False)
    t0 = time.perf_counter()
    refs = [checks.reference_prefix(adj, s, K_NEAREST) for s in sources]
    elapsed = time.perf_counter() - t0
    for j, (s, (settled, nearest)) in enumerate(zip(sources, refs)):
        out = outs[j]
        if out is None:
            continue
        if ctx.corrupt and j == 0:
            out = checks.corrupt(out)
        why = checks.check_prefix(out, s, settled, nearest)
        if why is not None:
            run.problem(ops_of(j), why)
    return elapsed


def _metered_prefixes(g, sources, tracer: Tracer | None = None):
    """run_metered over each query's prefix: [(triples, report)].

    With a tracer, each query gets a span, after a garbage collection
    outside it.
    """
    results = []
    for s in sources:
        span = nullcontext()
        if tracer is not None:
            gc.collect()
            span = tracer.span("metering.run_metered")
        with span:
            results.append(run_metered(
                Prefix(make_enumerator(g, KNN, source=s), K_NEAREST)))
    return results


def _knn_fingerprint(reports) -> dict:
    fields = [report_fields(r) for r in reports]
    blob = json.dumps(fields, sort_keys=True).encode()
    return {
        "queries": len(reports),
        "pulls": sum(r.pulls for r in reports),
        "max_delay": max(r.max_delay for r in reports),
        "declared_bound_value": max(r.declared_bound_value for r in reports),
        "peak_queue": max(r.peak_queue for r in reports),
        "lazy_cells_allocated": max(r.lazy_cells_allocated for r in reports),
        "preprocessing_steps": sum(r.preprocessing_steps for r in reports),
        "reports_sha256": hashlib.sha256(blob).hexdigest(),
    }


def knn_queries(ctx: Context) -> Run:
    run = Run()
    text, edges, sources = _knn_input(ctx)
    nq = len(sources)
    g, setup_s = _setup_samples(ctx, text, KNN, prepare=False)
    durations = array("q")
    first: list[Stream | None] = [None] * nq
    op_sources: list[int] = []
    per_source: list[list[float]] = [[] for _ in range(nq)]
    deadline = time.perf_counter() + ctx.seconds
    while run.ops < nq or time.perf_counter() < deadline:
        op = run.op()
        j = op % nq
        op_sources.append(j)
        try:
            s = timed_stream(g, KNN, durations, source=sources[j],
                             limit=K_NEAREST, keep=True)
        except Exception as exc:  # any failure of the program is counted
            run.problem(op, f"{type(exc).__name__}: {exc}")
            continue
        per_source[j].append(s.wall_s)
        if s.max_delay > s.bound:
            run.problem(op, f"delay {s.max_delay} exceeds bound {s.bound}")
        if first[j] is None:
            first[j] = s
        elif (s.steps, s.max_delay, s.triples) != \
                (first[j].steps, first[j].max_delay, first[j].triples):
            run.problem(op, f"query {j} drifted between repeats")
    rss = max_rss_mb()
    if not all(per_source):
        return run

    def ops_of(j):
        return [op for op, jj in enumerate(op_sources) if jj == j]

    _check_prefixes(run, ctx, edges, sources,
                    [s.triples if s else None for s in first], ops_of)
    results = _metered_prefixes(g, sources)
    reports = [r for _, r in results]
    run.fingerprint = _knn_fingerprint(reports)
    total_steps = 0
    for j, ((triples, report), s) in enumerate(zip(results, first)):
        _check_report(run, ops_of(j), report, f"query {j}")
        total_steps += report_steps(report)
        if s is not None and (s.steps, s.max_delay, s.triples) != \
                (report_steps(report), report.max_delay, triples):
            run.problem(ops_of(j), f"query {j} drifted from run_metered")
    # wall_s: one pass over the sources, each query at its median
    _put_common(run, setup_s=setup_s,
                wall_s=sum(statistics.median(q) for q in per_source),
                triples=sum(len(t) for t, _ in results),
                total_steps=total_steps,
                max_delay=max(r.max_delay for r in reports),
                pulls_ns=durations,
                query_s=[t for q in per_source for t in q], rss_mb=rss)
    return run


# ---------------------------------------------------------------------------
# traced runs

@dataclasses.dataclass
class Traced:
    """What a span pass saw of one stream; the enumerator is not kept."""
    triples: list
    pulls: int
    steps: int
    preprocessing: int
    peak_queue: int
    allocs: int
    peak_cells: int


def _traced_stream(tracer: Tracer, g, mode, *, source=None,
                   limit=None) -> Traced:
    """One stream with spans around make_enumerator + prepare and the pulls."""
    with tracer.span("enumerators.prepare"):
        enum = make_enumerator(g, mode, source=source)
        enum.prepare()
    counter = enum.counter
    triples = []
    pulls = 0
    with tracer.span("enumerators.drain"):
        start = counter.total
        while limit is None or len(triples) < limit:
            pulls += 1
            t = enum.pull()
            if t is None:
                break
            triples.append(t)
        steps = counter.total - start
    return Traced(triples, pulls, steps, enum.preprocessing_steps,
                  enum.peak_queue, counter.lazy_alloc_count,
                  counter.lazy_peak_cells)


def _put_layers(run: Run, tracer: Tracer, streams: list[Traced], *,
                floor_s: float) -> None:
    prepare = tracer.total("enumerators.prepare")
    drain = tracer.total("enumerators.drain")
    pulls = sum(s.pulls for s in streams)
    run.put("graph.parse_s", tracer.total("graph.parse"), "s")
    run.put("enumerators.prepare_s", prepare, "s")
    run.put("enumerators.preprocessing_steps",
            sum(s.preprocessing for s in streams), "count")
    run.put("enumerators.drain_s", drain, "s")
    run.put("enumerators.pulls", pulls, "count")
    run.put("enumerators.mean_delay_steps",
            sum(s.steps for s in streams) / pulls, "count")
    run.put("enumerators.peak_queue", max(s.peak_queue for s in streams),
            "count")
    run.put("lazyarray.allocs", sum(s.allocs for s in streams), "count")
    run.put("lazyarray.peak_cells", max(s.peak_cells for s in streams),
            "count")
    run.put("metering.overhead_s",
            tracer.total("metering.run_metered") - prepare - drain, "s")
    run.put("oracle.search_floor_s", floor_s, "s")
    run.put("enumerators.floor_ratio", (prepare + drain) / floor_s, "ratio")
    run.put("cli.overhead_s", 0.0, "s")
    run.put("cli.bytes_out", 0, "B")


def _put_profile(run: Run, fn, plain_s: float) -> None:
    """Profile fn, the same work as a span pass that took plain_s."""
    gc.collect()
    elapsed, calls, share, resumes = profile_layers(fn)
    for layer in LAYERS:
        run.put(f"{layer}.calls", calls.get(layer, 0), "count")
        run.put(f"{layer}.self_share", share.get(layer, 0.0), "fraction")
    run.put("enumerators.resumes", resumes, "count")
    run.put("trace.profile_overhead", elapsed / plain_s, "ratio")


def _trace_drain_workload(ctx: Context, text: str, mode, cli_argv) -> Run:
    run = Run()
    tracer = Tracer()
    with tracer.span("graph.parse"):
        g = parse_graph(text)
    op = run.op()
    traced = _traced_stream(tracer, g, mode)
    gc.collect()
    with tracer.span("metering.run_metered"):
        metered, report = run_metered(make_enumerator(g, mode))
    run.fingerprint = report_fields(report)
    _check_report(run, op, report, "run_metered")
    if (traced.triples, traced.preprocessing + traced.steps, traced.pulls) \
            != (metered, report_steps(report), report.pulls):
        run.problem(op, "drain drifted from run_metered")
    _validate(run, op, ctx, traced.triples, g, mode)
    with tracer.span("oracle.search_floor"):
        floor = brute_force_matrix(g, "search")
    if floor != brute_force_matrix(g):
        run.problem(op, "oracle search and relaxation disagree")
    _put_layers(run, tracer, [traced],
                floor_s=tracer.total("oracle.search_floor"))
    run.spans = tracer.summary()
    if cli_argv is None:
        _put_profile(run, lambda: _traced_stream(Tracer(), g, mode),
                     tracer.total("enumerators.prepare")
                     + tracer.total("enumerators.drain"))
        return run
    out_path = ctx.workdir / "cli_out.txt"

    def call_cli(label):
        with open(out_path, "w", encoding="ascii") as fh, \
                redirect_stdout(fh), tracer.span(label):
            return cli.main(cli_argv)

    cli_op = run.op()
    gc.collect()
    rc = call_cli("cli.main")
    if rc != 0:
        run.problem(cli_op, f"cli.main returned {rc}")
    data = out_path.read_bytes()
    if checks.parse_stream(data, DistanceTriple) != metered:
        run.problem(cli_op, "CLI output differs from the library stream")
    run.put("cli.overhead_s", tracer.total("cli.main")
            - tracer.total("graph.parse") - tracer.total("enumerators.prepare")
            - tracer.total("enumerators.drain"), "s")
    run.put("cli.bytes_out", len(data), "B")
    run.spans = tracer.summary()
    _put_profile(run, lambda: call_cli("profiled"), tracer.total("cli.main"))
    return run


def trace_cli_apsd_unweighted(ctx: Context) -> Run:
    text, path = _cli_input(ctx)
    return _trace_drain_workload(ctx, text, UNCONSTRAINED,
                                 ["enumerate", str(path)])


def trace_lib_sorted_weighted(ctx: Context) -> Run:
    return _trace_drain_workload(ctx, _sorted_input(ctx), SORTED_NO_SELF,
                                 None)


def trace_knn_queries(ctx: Context) -> Run:
    run = Run()
    text, edges, sources = _knn_input(ctx)
    tracer = Tracer()
    with tracer.span("graph.parse"):
        g = parse_graph(text)
    traced = []
    for s in sources:
        run.op()
        gc.collect()
        with tracer.span("query"):
            traced.append(_traced_stream(tracer, g, KNN, source=s,
                                         limit=K_NEAREST))
    results = _metered_prefixes(g, sources, tracer)
    run.fingerprint = _knn_fingerprint([r for _, r in results])
    for j, (tr, (metered, report)) in enumerate(zip(traced, results)):
        _check_report(run, j, report, f"query {j}")
        # the prefix's closing pull is free: one more pull, no more steps
        if (tr.triples, tr.preprocessing + tr.steps) != \
                (metered, report_steps(report)):
            run.problem(j, f"query {j} drifted from run_metered")
    floor_s = _check_prefixes(run, ctx, edges, sources,
                              [t.triples for t in traced], lambda j: j)
    _put_layers(run, tracer, traced, floor_s=floor_s)
    run.spans = tracer.summary()

    def work():
        for s in sources:
            _traced_stream(Tracer(), g, KNN, source=s, limit=K_NEAREST)
    _put_profile(run, work, tracer.total("query"))
    return run


WORKLOADS = {
    "cli-apsd-unweighted": (cli_apsd_unweighted, trace_cli_apsd_unweighted),
    "lib-sorted-weighted": (lib_sorted_weighted, trace_lib_sorted_weighted),
    "knn-queries": (knn_queries, trace_knn_queries),
}
