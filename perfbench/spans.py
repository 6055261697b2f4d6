"""Spans around calls into the program's layers, and a per-module profile.

Spans are kept in memory and summarised when the run ends.  The profile
pass runs the same work under cProfile and aggregates by the module
file each function lives in, so per-layer call counts and self-time
shares come from outside the program, with nothing under src/ changed.
"""
from __future__ import annotations

import cProfile
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import PurePath

# Profiled modules of the distenum package, by file stem.
LAYERS = ("graph", "base", "searches", "apsd", "sorted_apsd", "sssd",
          "pq", "lazyarray", "cli")


class Tracer:
    """Records spans as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._open[-1] if self._open else -1,
               time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(e - s for n, _, s, e in self.spans if n == name)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}


def _layer_of(path: str) -> str | None:
    """Layer name of a distenum source file, else None."""
    parts = PurePath(path).parts
    if "distenum" not in parts[:-1]:
        return None
    stem = PurePath(path).stem
    if stem == "__init__":
        return parts[-2]
    return stem


def profile_layers(fn):
    """Run fn under cProfile; return (elapsed_s, calls, self_share, resumes).

    calls counts calls into each layer's functions, generator
    resumptions included.  self_share is each layer's share of all
    profiled self time; a builtin's self time goes to the layer that
    called it.  resumes counts next() calls made by the enumerators,
    i.e. how often the pull scheduler resumed a machine generator.
    """
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    elapsed = time.perf_counter() - t0
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total = 0.0
    resumes = 0
    for (path, _, func), (_, nc, tt, _, callers) in \
            pstats.Stats(prof).stats.items():
        total += tt
        layer = _layer_of(path)
        if layer is not None:
            calls[layer] += nc
            self_s[layer] += tt
            continue
        for (cpath, _, _), (cnc, _, ctt, _) in callers.items():
            clayer = _layer_of(cpath)
            if clayer is not None:
                self_s[clayer] += ctt
                if func == "<built-in method builtins.next>" and \
                        "enumerators" in PurePath(cpath).parts:
                    resumes += cnc
    share = {k: (v / total if total > 0 else 0.0) for k, v in self_s.items()}
    return elapsed, calls, share, resumes
