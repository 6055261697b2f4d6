"""Benchmark for distenum: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The graph inputs are generated from the
seed; the program sees only graph text.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics named in BENCHMARK.json with --trace 0,
the per-layer ones with --trace 1.  The lines before it give the
environment, the DelayReport fingerprint, the traced run's spans and
every metric with its unit.
Exits 2 without a result when the distenum sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-apsd-unweighted", "lib-sorted-weighted", "knn-queries")


def git_commit() -> str:
    """HEAD's commit read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run with the per-layer metrics")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one checked distance (checker self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "distenum" / "__init__.py").is_file():
        print(f"error: distenum sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Context

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.workload, args.seed, args.seconds, args.scale,
                  args.corrupt, workdir, SRC)
    try:
        run = WORKLOADS[args.workload][args.trace](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("env", json.dumps(environment(args), sort_keys=True))
    print("fingerprint", json.dumps(run.fingerprint, sort_keys=True))
    for name, (count, total, own) in run.spans.items():
        print(f"span {name} count={count} total_s={total} self_s={own}")
    for op, why in sorted(run.problems.items()):
        print(f"failed op {op}: {'; '.join(why)}")
    if not args.trace:
        run.put("error_rate", run.failed / run.ops, "fraction")
    for name, (value, unit) in run.metrics.items():
        print(f"metric {name} {value} {unit}")
    metrics = {}
    for m in wanted:
        if m["name"] not in run.metrics:
            # a run that failed every operation measured nothing
            if run.failed:
                continue
            print(f"error: metric {m['name']} was not measured",
                  file=sys.stderr)
            return 2
        value, unit = run.metrics[m["name"]]
        if unit != m["unit"]:
            print(f"error: metric {m['name']} in {unit}, BENCHMARK.json "
                  f"says {m['unit']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.ops,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
