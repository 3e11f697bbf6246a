"""Outside-in span recorder for the benchmark's traced runs.

The program under test carries no tracing of its own.  This module wraps
the public entry points of each layer *from outside*: every wrapper is
installed where its caller looks the name up (a module global for a
function imported by name, the defining class for a method), records one
span per call while the recorder is active, and is removed again when
the :class:`Patches` context exits, so the untraced runs execute the
original objects.

Spans stay in memory as ``(id, parent, iteration, name, start, end)``
rows.  A span's self time is its duration minus the time its child
spans cover; the layer metrics are derived from the finished rows in
``layers.py``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    """In-memory span and counter store for one traced run.

    Wrappers record only while :attr:`active` is true, which ``run.py``
    sets for the measured part of each iteration; output checks and the
    reference oracle run with the recorder inactive, so they add no
    spans and no counts.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.counters: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.iteration = -1
        self.active = False
        self._stack: List[int] = []

    def begin_iteration(self) -> None:
        self.iteration += 1
        self.active = True

    def end_iteration(self) -> None:
        self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # reserve the row now so children get higher ids than the parent
        self.spans.append((sid, parent, self.iteration, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.iteration, name, start,
                               end)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[self.iteration][name] += amount


class NullRecorder:
    """The untraced runs' recorder: phase spans cost one no-op call."""

    active = False

    def begin_iteration(self) -> None:
        pass

    def end_iteration(self) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str):
        yield


def _wrap(original: Callable, recorder: Recorder, name: str,
          counter: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        with recorder.span(name):
            result = original(*args, **kwargs)
        recorder.count(name + ".calls")
        if counter is not None:
            for key, amount in counter(args, result).items():
                recorder.count(key, amount)
        return result

    return wrapper


class Patches:
    """Install span wrappers over ``(owner, attr, span, counter)`` targets
    for the duration of a ``with`` block, then restore the originals.

    ``owner`` is a module or a class; for a class only an attribute the
    class defines itself is patched, so overriding subclasses are listed
    as targets of their own.  ``counter(args, result)`` may return extra
    ``{counter_name: amount}`` increments per call.
    """

    def __init__(self, recorder: Recorder, targets) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        try:
            for owner, attr, name, counter in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr,
                        _wrap(original, self.recorder, name, counter))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Deriving per-iteration layer figures from the span rows
# ---------------------------------------------------------------------------

class SpanTable:
    """Per-iteration totals over finished span rows."""

    def __init__(self, recorder: Recorder) -> None:
        spans = recorder.spans
        child_time = [0.0] * len(spans)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.total: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.self_time: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.durations: Dict[int, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.top_level: Dict[int, float] = defaultdict(float)
        for sid, parent, it, name, start, end in spans:
            duration = end - start
            self.self_time[it][name] += duration - child_time[sid]
            self.durations[it][name].append(duration)
            if parent < 0:
                self.top_level[it] += duration
            # a nested call of the same entry point (a ``super()`` chain)
            # is already inside its caller's total
            if parent < 0 or spans[parent][3] != name:
                self.total[it][name] += duration
        self.counters = recorder.counters


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
