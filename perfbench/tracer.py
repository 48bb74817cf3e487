"""Spans and counters recorded from the benchmark's own wrappers.

The program is not instrumented. ``Patcher`` swaps a function for a wrapper
at every place the ``capstate`` package holds a reference to it, so calls
made through a module attribute (``cardiac.detect_r_peaks``) and through a
name imported with ``from .dsp import butterworth_bandpass`` are both seen.
``Tracer`` turns each wrapped call into a span (name, start, end, parent span,
run id) kept in memory until the benchmark writes them out.
"""

import functools
import sys
import time
from collections import defaultdict


PACKAGE = "capstate"


class Patcher:
    """Replaces functions by wrappers and puts the originals back on ``undo``."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def wrap(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Wrap ``module_name.attr`` (a function, or ``Class.method``) wherever
        the package refers to it. Returns False when the target is absent."""
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = module
        if module is not None and owner_name:
            owner = getattr(module, owner_name, None)
        target = getattr(owner, leaf, None) if owner is not None else None
        if target is None or not callable(target):
            self.missing.append(f"{module_name}.{attr}")
            return False
        wrapper = make_wrapper(target)
        if owner_name:
            self._set(owner, leaf, wrapper)
            return True
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._set(mod, key, wrapper)
        return True

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def undo(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    """In-memory spans, span attributes and counters, grouped by run id (one
    stage run or set-up each)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.attrs = defaultdict(dict)  # span index -> attributes set by hooks
        self.counts = defaultdict(lambda: defaultdict(float))  # run id -> name -> value
        self.run_id = None
        self._stack = []

    def add(self, name: str, amount: float = 1.0):
        self.counts[self.run_id][name] += amount

    def span(self, name: str, fn, on_return=None):
        """Wrapper around ``fn`` that records one span per call; ``on_return``
        gets (tracer, span index, args, kwargs, result) after the span has
        closed."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(self, idx, args, kwargs, out)
            return out

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": r} for n, s, e, p, r in self.spans
            ],
            "attrs": {str(idx): a for idx, a in self.attrs.items()},
            "counts": {str(run): dict(c) for run, c in self.counts.items()},
        }


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = [
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ())
            if spans[c][2] > start and spans[c][1] < end
        ]
        out.append((end - start) - _union_length(covered))
    return out


def summarize(spans, runs) -> dict:
    """Per span name, mean over ``runs`` of: busy seconds (union of the
    name's spans), self seconds, call count and per-call durations.

    ``runs`` lists the run ids to summarize; spans of other runs are ignored.
    """
    runs = list(runs)
    selfs = self_times(spans)
    per = defaultdict(lambda: {"intervals": defaultdict(list), "self": 0.0, "calls": 0, "durations": []})
    for (name, start, end, _, run), self_s in zip(spans, selfs):
        if run not in runs:
            continue
        entry = per[name]
        entry["intervals"][run].append((start, end))
        entry["self"] += self_s
        entry["calls"] += 1
        entry["durations"].append(end - start)
    n = max(len(runs), 1)
    return {
        name: {
            "s": sum(_union_length(iv) for iv in e["intervals"].values()) / n,
            "self_s": e["self"] / n,
            "calls": e["calls"] / n,
            "durations": e["durations"],
        }
        for name, e in per.items()
    }
