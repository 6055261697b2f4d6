"""tools/bench_pairs.py: the parent checkout and the per-metric summary
of paired runs."""
import importlib.util
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


def test_checkout_is_a_clone_at_the_commit(tmp_path):
    def git(*args, cwd=tmp_path / "repo"):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()

    (tmp_path / "repo").mkdir()
    git("init", "--quiet")
    hashes = []
    for text in ("one", "two"):
        (tmp_path / "repo" / "f.txt").write_text(text)
        git("add", "f.txt")
        git("commit", "--quiet", "-m", text)
        hashes.append(git("rev-parse", "HEAD"))
    dest = tmp_path / "parent"
    bench_pairs.checkout(tmp_path / "repo", hashes[0], dest)
    # perfbench reads the commit from .git/HEAD, which a worktree lacks
    assert (dest / ".git").is_dir()
    assert (dest / ".git" / "HEAD").read_text().strip() == hashes[0]
    assert (dest / "f.txt").read_text() == "one"
