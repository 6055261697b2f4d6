"""Self-test of the benchmark at tiny sizes, run from the repository root.

    python3 perfbench/selftest.py

For every workload it runs the timed and the traced run on tiny inputs
and checks that every metric is printed with its unit, that the JSON
line carries exactly the metrics BENCHMARK.json names, that two runs
with one seed agree on the DelayReport fingerprint and the step counts,
and that a corrupted stream raises error_rate.  It also checks that the
benchmark refuses to run without the program's sources.  Exits 1 with
the list of failed checks, 0 when all pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# end-to-end metrics printed but not gated (see README.md)
PRINTED_ONLY = {"wall_s": "s", "steps_per_s": "1/s", "queries_per_s": "1/s",
                "error_rate": "fraction"}


def bench(workload: str, trace: int, *, seed: int = 3, corrupt=False,
          root: Path = ROOT):
    argv = [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        argv.append("--corrupt")
    return subprocess.run(argv, capture_output=True, text=True, timeout=170,
                          cwd=root)


def parse(proc):
    """(result, printed metrics name -> (value, unit), fingerprint)."""
    lines = proc.stdout.splitlines()
    printed = {}
    fingerprint = None
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
        elif line.startswith("fingerprint "):
            fingerprint = json.loads(line.split(" ", 1)[1])
    return json.loads(lines[-1]), printed, fingerprint


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(w, trace)
            if proc.returncode != 0:
                expect(False, f"{w} trace {trace} exits 0: {proc.stderr}")
                continue
            result, printed, _ = parse(proc)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            if trace == 0:
                want.update(PRINTED_ONLY)
            missing = [n for n, u in want.items()
                       if printed.get(n, (0, None))[1] != u]
            expect(not missing, f"{w} trace {trace} prints every metric "
                                f"with its unit {missing or ''}")
            expect(set(result["metrics"]) == {m["name"] for m in SPEC[key]},
                   f"{w} trace {trace} JSON holds the {key} metrics")
            expect(result["correct"] and result["failed"] == 0,
                   f"{w} trace {trace} is correct")
            if trace == 0:
                expect(printed["error_rate"][0] == 0,
                       f"{w} error_rate is 0")
            if trace == 1 and w == "cli-apsd-unweighted":
                expect(printed["pq.calls"][0] == 0,
                       f"{w} makes no pq calls")

        first = parse(bench(w, 0))
        again = parse(bench(w, 0))
        expect(first[2] == again[2] and first[2] is not None,
               f"{w} fingerprint repeats")
        expect(all(first[1][n][0] == again[1][n][0]
                   for n in ("total_steps", "max_delay_steps")),
               f"{w} step counts repeat")

        proc = bench(w, 0, corrupt=True)
        result, printed, _ = parse(proc)
        expect(printed["error_rate"][0] > 0 and not result["correct"],
               f"{w} corrupted stream raises error_rate")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(SPEC["workloads"][0]["name"], 0, root=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
