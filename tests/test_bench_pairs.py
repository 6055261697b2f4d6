"""tools/bench_pairs.py: the parent checkout and the per-metric summary
of paired runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "pull_p99_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "triples_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
]


def runs_of(**columns):
    """Synthetic runs: columns maps side to per-metric value lists."""
    return {side: [{"metrics": {name: {"value": v} for name, v in zip(
        values, row)}} for row in zip(*values.values())]
        for side, values in columns.items()}


def test_summarise_paired_ratios_and_separation():
    runs = runs_of(
        parent={"pull_p99_us": [100, 120, 140, 160, 200],
                "triples_per_s": [10, 10, 10, 10, 10]},
        change={"pull_p99_us": [60, 70, 80, 90, 99],
                "triples_per_s": [10, 11, 9, 12, 10]})
    out = bench_pairs.summarise(runs, METRICS)
    p99 = out["pull_p99_us"]
    assert p99["change"]["median"] == 80
    assert p99["ratio"] == pytest.approx(80 / 140)
    assert p99["wins"] == 5 and p99["pairs"] == 5
    assert p99["separated"]
    ratios = [0.6, 70 / 120, 80 / 140, 90 / 160, 99 / 200]
    assert p99["pair_ratios"]["runs"] == pytest.approx(ratios)
    assert p99["pair_ratios"]["median"] == pytest.approx(80 / 140)
    assert p99["pair_ratios"]["q1"] == pytest.approx(90 / 160)
    assert p99["pair_ratios"]["q3"] == pytest.approx(70 / 120)
    assert p99["pair_ratios"]["iqr"] == pytest.approx(70 / 120 - 90 / 160)
    # parent quartiles 120 and 160 over a median of 140
    assert p99["parent_iqr_over_median"] == pytest.approx(40 / 140)
    assert p99["unresolved"]

    tps = out["triples_per_s"]
    assert (tps["wins"], tps["separated"], tps["unresolved"]) == \
        (2, False, False)
    assert tps["pair_ratios"]["runs"] == pytest.approx([1, 1.1, 0.9, 1.2, 1])


def test_summarise_separation_needs_every_run():
    # 4 of 4 pairs won, yet one change run is slower than a parent run
    runs = runs_of(parent={"pull_p99_us": [100, 200, 300, 400]},
                   change={"pull_p99_us": [90, 150, 250, 350]})
    out = bench_pairs.summarise(runs, METRICS[:1])
    assert out["pull_p99_us"]["wins"] == 4
    assert not out["pull_p99_us"]["separated"]


def test_summarise_missing_and_zero_parent():
    runs = runs_of(parent={"pull_p99_us": [0, 0, 0]},
                   change={"pull_p99_us": [0, 1, 0]})
    runs["change"][1]["metrics"]["triples_per_s"] = {"value": 5}
    out = bench_pairs.summarise(runs, METRICS)
    assert out["triples_per_s"] == {"missing": True}
    p99 = out["pull_p99_us"]
    assert p99["ratio"] is None and p99["pair_ratios"] is None
    assert not p99["separated"]


def make_repo(path, commits):
    """A git repo at path with one commit per {file name: text} dict;
    return the commit hashes."""
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=path, check=True, capture_output=True, text=True).stdout.strip()

    path.mkdir()
    git("init", "--quiet")
    hashes = []
    for files in commits:
        for name, text in files.items():
            (path / name).write_text(text)
        git("add", "-A")
        git("commit", "--quiet", "-m", "commit")
        hashes.append(git("rev-parse", "HEAD"))
    return hashes


def test_checkout_is_a_clone_at_the_commit(tmp_path):
    hashes = make_repo(tmp_path / "repo", [{"f.txt": "one"},
                                           {"f.txt": "two"}])
    dest = tmp_path / "parent"
    bench_pairs.checkout(tmp_path / "repo", hashes[0], dest)
    # perfbench reads the commit from .git/HEAD, which a worktree lacks
    assert (dest / ".git").is_dir()
    assert (dest / ".git" / "HEAD").read_text().strip() == hashes[0]
    assert (dest / "f.txt").read_text() == "one"


def test_both_sides_run_in_fresh_clones(tmp_path, monkeypatch):
    # Neither side may run in the working repository, whose caches and
    # test leftovers would follow only the change side.
    repo = tmp_path / "repo"
    spec = json.dumps({"workloads": [{"name": "w"}], "end_to_end": METRICS})
    hashes = make_repo(repo, [{"f.txt": "one", "BENCHMARK.json": spec},
                              {"f.txt": "two"}])
    measured = []

    def fake_bench_once(root, workload, seed, seconds):
        measured.append((root, (root / "f.txt").read_text(),
                         (root / ".git" / "HEAD").read_text().strip()))
        return {"metrics": {m["name"]: {"value": 1.0} for m in METRICS},
                "attempted": 1, "failed": 0, "fingerprint": None,
                "env": None}

    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench_once)
    monkeypatch.chdir(repo)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--out", str(out), "--pairs", "2",
                             "--seconds", "0"]) == 0
    assert len(measured) == 4
    for root, _, _ in measured:
        assert repo not in (root, *root.parents)
        assert not root.exists()    # the clones are removed at the end
    assert {text: commit for _, text, commit in measured} == \
        {"one": hashes[0], "two": hashes[1]}
    report = json.loads(out.read_text())
    assert (report["parent"], report["change"]) == tuple(hashes)
