"""Paired benchmark runs: HEAD of a clean checkout against a parent commit.

    python3 tools/bench_pairs.py --out BENCH.json [--parent HEAD^]
        [--pairs 10] [--seconds 20] [--workload NAME]...

Run from anywhere inside the repository.  The change side is HEAD as
committed, so a tree with uncommitted edits or untracked files is
refused.  The parent is checked out with `git worktree` into a temporary
directory (under $TMPDIR), which is removed at the end.  Pair i runs the
unchanged perfbench/run.py once on each side with seed 201 + i, the
parent first on even pairs and the change first on odd ones.  The output
file holds, per workload and end-to-end metric, both sides' runs, medians
and quartiles, the change/parent ratio of medians, the change's wins out
of the pairs, and the parent's IQR over its median, flagged `unresolved`
when that spread exceeds the metric's bound in BENCHMARK.json.  Beside
them it puts the quartiles and IQR of the per-pair ratios, which show
how much of the host's drift pairing cancels, and a `separated` flag,
set when every change run beats every parent run.  Each side's `env`
line (python, numpy, cores, commit; the workload and seed are dropped)
is recorded from its first run.  The file is data, not a gate: the exit
code is 0 whenever every run produced a result.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def bench_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result object plus the fingerprint and env
    lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (ln for ln in lines if ln.startswith("fingerprint ")), None)
    result["env"] = next((json.loads(ln.split(" ", 1)[1])
                          for ln in lines if ln.startswith("env ")), None)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """Per-metric comparison of one workload's paired runs."""
    out = {}
    for m in metrics:
        name = m["name"]
        sides = {side: [r["metrics"].get(name, {}).get("value")
                        for r in runs[side]] for side in ("parent", "change")}
        if any(v is None for vals in sides.values() for v in vals):
            out[name] = {"missing": True}
            continue
        par, chg = spread(sides["parent"]), spread(sides["change"])
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        iqr = (par["q3"] - par["q1"]) / par["median"] if par["median"] \
            else 0.0
        ratios = None
        if all(sides["parent"]):
            ratios = spread([c / p for p, c in zip(sides["parent"],
                                                   sides["change"])])
            ratios["iqr"] = ratios["q3"] - ratios["q1"]
        separated = max(sides["change"]) < min(sides["parent"]) if lower \
            else min(sides["change"]) > max(sides["parent"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": par, "change": chg,
            "ratio": chg["median"] / par["median"] if par["median"]
            else None,
            "pair_ratios": ratios,
            "wins": wins, "pairs": len(sides["parent"]),
            "separated": separated,
            "parent_iqr_over_median": iqr, "unresolved": iqr > m["bound"],
        }
    return out


def side_env(run: dict) -> dict | None:
    """A run's env line without the fields that vary from run to run."""
    env = run["env"]
    return env and {k: v for k, v in env.items()
                    if k not in ("workload", "seed")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--parent", default="HEAD^",
                   help="revision to compare against (default HEAD^)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workload", action="append",
                   help="repeatable; default every BENCHMARK.json workload")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    if git(root, "status", "--porcelain"):
        p.error("the working tree has uncommitted changes or untracked "
                "files; commit or stash them so HEAD names the measured code")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent_rev = git(root, "rev-parse", args.parent)
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_root = tmp / "parent"
    report = {"parent": parent_rev, "change": git(root, "rev-parse", "HEAD"),
              "pairs": args.pairs, "seconds": args.seconds,
              "seeds": [201 + i for i in range(args.pairs)],
              "env": {}, "workloads": {}}
    try:
        git(root, "worktree", "add", "--detach", str(parent_root),
            parent_rev)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(report["seeds"]):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    side_root = parent_root if side == "parent" else root
                    runs[side].append(
                        bench_once(side_root, workload, seed, args.seconds))
                    report["env"].setdefault(side, side_env(runs[side][-1]))
                    print(f"{workload} pair {i + 1}/{args.pairs} {side} done",
                          file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "attempted": {s: [r["attempted"] for r in runs[s]]
                              for s in runs},
                "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
                "fingerprints_match": [
                    a["fingerprint"] == b["fingerprint"]
                    for a, b in zip(runs["parent"], runs["change"])],
                "metrics": summarise(runs, spec["end_to_end"]),
            }
            # written after every workload, so a cut run keeps its data
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove",
                        "--force", str(parent_root)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"],
                       capture_output=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
