"""Span tracing of loopqkd's public functions, applied from outside the package.

``Tracer.active()`` replaces every public module-level function of the
traced modules (and ``FringeCoefficients.probs``, the per-batch fringe
kernel) with a wrapper that records a span: name, start, end and parent.
Every binding of a function is replaced, including the ones other modules
made with ``from .x import f``, and all of them are restored on exit, so
untraced operations in the same process run the original code.

Spans are aggregated as they close (calls, total time, self time, and the
work counts below), and the first ``SPAN_CAP`` raw spans are kept for the
result file.  A span's self time is its duration minus the durations of its
direct children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("harness", "session", "loopmodel", "quantumchannel", "bb84", "loopnet")
TRACED_METHODS = (("loopmodel", "FringeCoefficients", "probs"),)

# Spans nested inside this one are also counted per call of it.
CALIBRATE = "harness.calibrate"

SPAN_CAP = 20_000


def _work_counts(name, args, result):
    """Units of work one call performed, by counter name (pulses, rows, taps)."""
    if name == "loopmodel.FringeCoefficients.probs":
        return {"elements": np.size(args[1])}
    if name == "quantumchannel.no_click_probabilities":
        return {"elements": np.size(args[0])}
    if name == "session.run_session":
        records = result[1]
        return {"pulses": args[1].pulses, "records": 0 if records is None else len(records)}
    if name == "loopnet.noise_taps":
        return {"taps": len(result)}
    if name == "harness.transcript_csv":
        return {"rows": len(args[0])}
    return None


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "counts", "calls_in_calibrate")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts = defaultdict(int)
        self.calls_in_calibrate = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._calibrate_depth = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            if index < SPAN_CAP:
                self.spans.append((name, 0.0, 0.0, parent))
            else:
                index = -1
            if self._calibrate_depth:
                self.stats[name].calls_in_calibrate += 1
            if name == CALIBRATE:
                self._calibrate_depth += 1
            frame = [name, perf_counter(), 0.0, index]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if name == CALIBRATE:
                    self._calibrate_depth -= 1
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                s = self.stats[name]
                s.calls += 1
                s.total += duration
                s.self_time += duration - frame[2]
                if index >= 0:
                    self.spans[index] = (name, frame[1], end, parent)
            counts = _work_counts(name, args, result)
            if counts:
                for key, value in counts.items():
                    s.counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Trace every call into the traced modules while the block runs."""
        package = sys.modules["loopqkd"]
        modules = [m for n, m in sys.modules.items() if n.startswith("loopqkd.")]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"loopqkd.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        patched = []
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"loopqkd.{short}"], cls_name)
            original = vars(cls)[attr]
            patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "calls_in_calibrate": s.calls_in_calibrate,
                **{f"count_{k}": v for k, v in s.counts.items()},
            }
            for name, s in sorted(self.stats.items())
        }
