"""Golden reports: every stream and DelayReport field pinned to stored values.

The stored values live in report_fingerprints.json next to this file.
Each entry pins a SHA-256 of the stream and every DelayReport field but
wall_time_s, lazy_cells_allocated included, exactly.  A change that
moves any of them has changed what the schedules do and must say why.

Regenerate the file (only when a change is meant to move a report) with

    PYTHONPATH=src python tests/test_report_fingerprints.py

which rewrites only the entries that moved and prints each of them with
its moved fields.
"""
import hashlib
import json
import math
from pathlib import Path

from distenum import gen_clique_path, gen_random, make_enumerator, run_metered

from conftest import all_mode_combos, small_corpus

DATA = Path(__file__).with_name("report_fingerprints.json")


def fingerprint_graphs():
    graphs = list(small_corpus())
    graphs.append(("clique-path-8", gen_clique_path(8)))
    for directed in (False, True):
        for max_weight in (0, 20):
            tag = f"rand60-{'d' if directed else 'u'}-w{max_weight}"
            graphs.append((tag, gen_random(60, 240, directed=directed,
                                           max_weight=max_weight, seed=1)))
    return graphs


def _mode_tag(mode):
    flags = [name for name in ("row_wise", "no_self", "reachable_only",
                               "sorted") if getattr(mode, name)]
    return "+".join(flags) or "plain"


def fingerprint_runs():
    """(key, graph, mode, source, dedup) for every pinned run."""
    runs = []
    modes = all_mode_combos()
    for tag, g in fingerprint_graphs():
        for mode in modes:
            runs.append((f"{tag}/{_mode_tag(mode)}", g, mode, None, False))
            if not g.directed:
                runs.append((f"{tag}/{_mode_tag(mode)}/dedup", g, mode, None,
                             True))
        if g.n:
            plain, trimmed = modes[0], modes[-1]
            runs.append((f"{tag}/source0/{_mode_tag(plain)}", g, plain, 0,
                         False))
            runs.append((f"{tag}/source{g.n - 1}/{_mode_tag(trimmed)}", g,
                         trimmed, g.n - 1, False))
    return runs


def measure(g, mode, source, dedup):
    enum = make_enumerator(g, mode, source=source, dedup=dedup)
    triples, rep = run_metered(enum)
    digest = hashlib.sha256()
    for t in triples:
        d = "inf" if t.distance == math.inf else str(t.distance)
        digest.update(f"{t.source} {t.target} {d}\n".encode())
    return {
        "stream_sha256": digest.hexdigest(),
        "pulls": rep.pulls,
        "max_delay": rep.max_delay,
        "mean_delay": str(rep.mean_delay),
        "per_phase_max": dict(sorted(rep.per_phase_max.items())),
        "declared_bound_value": rep.declared_bound_value,
        "fitted_constant": None if rep.fitted_constant is None
        else str(rep.fitted_constant),
        "peak_queue": rep.peak_queue,
        "lazy_cells_allocated": rep.lazy_cells_allocated,
        "preprocessing_steps": rep.preprocessing_steps,
    }


def test_reports_match_fingerprints():
    expected = json.loads(DATA.read_text())
    runs = fingerprint_runs()
    assert sorted(expected) == sorted(key for key, *_ in runs)
    mismatches = []
    for key, g, mode, source, dedup in runs:
        got = measure(g, mode, source, dedup)
        want = expected[key]
        for field, value in got.items():
            if value != want[field]:
                mismatches.append(f"{key}: {field} {value!r} != "
                                  f"{want[field]!r}")
    assert not mismatches, "\n".join(mismatches[:20])


def test_queue_never_exceeds_cap():
    # The append that fills the queue to its cap asks the machine to
    # suspend and ends the pull, so no run ever banks past the cap.
    over = []
    for key, g, mode, source, dedup in fingerprint_runs():
        enum = make_enumerator(g, mode, source=source, dedup=dedup)
        run_metered(enum, keep_triples=False)
        if enum.peak_queue > enum.qcap:
            over.append(f"{key}: {enum.peak_queue} > {enum.qcap}")
    assert not over, "\n".join(over)


def write_fingerprints():
    """Store fresh values, naming first each entry that moved (a field
    differs from the stored one) and its moved fields, after a tally of
    the entries whose max_delay fell and rose."""
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    data, moved = {}, []
    fell = rose = 0
    for key, g, mode, source, dedup in fingerprint_runs():
        got = measure(g, mode, source, dedup)
        want = old.get(key, {})
        fields = [f"{field} {want.get(field)!r} -> {value!r}"
                  for field, value in got.items()
                  if field not in want or value != want[field]]
        if fields:
            moved.append(f"{key}: " + "; ".join(fields))
        if "max_delay" in want:
            fell += got["max_delay"] < want["max_delay"]
            rose += got["max_delay"] > want["max_delay"]
        data[key] = got
    moved += [f"{key}: dropped" for key in sorted(old.keys() - data.keys())]
    print(f"{len(moved)} of {len(data)} entries moved")
    print(f"max_delay fell in {fell} entries and rose in {rose}")
    for line in moved:
        print(line)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} entries to {DATA}")


if __name__ == "__main__":
    write_fingerprints()
