"""Spans and counts taken from outside the program.

Every hook replaces a fusionpose function where its caller looks it up:
a module global (``dataio.downsample``, ``train.motion_loss``) or a
class attribute (``Adam.step``). Spans live in memory as
``[name, start, end, parent, step]`` lists and are written out once the
workload has finished. ``uninstall`` restores every original, so
untraced code never pays for a hook it does not use.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Patcher:
    """Replace attributes and remember the originals."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


class StepClock(Patcher):
    """Return times of one callable: the closed loop's step boundaries.

    This is the only hook the untraced run installs; it costs one clock
    read per step (an optimizer step, a scored window or a frame).
    ``on_return`` also sees each result, e.g. the datasets run_study
    builds.
    """

    def __init__(self, owner, attr: str, on_return=None):
        super().__init__()
        self.times: list[float] = []

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.times.append(time.perf_counter())
                if on_return is not None:
                    on_return(result)
                return result
            return wrapper

        self.replace(owner, attr, make)

    def intervals_ms(self, start: float) -> list[float]:
        marks = [start, *self.times]
        return [1e3 * (b - a) for a, b in zip(marks, marks[1:])]


class Tracer(Patcher):
    """Nested spans plus named counts.

    ``step_span`` names the span whose start opens a new step (a batch,
    a window or a frame); every span records the step it ran in.
    """

    def __init__(self, step_span: str | None = None):
        super().__init__()
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.step = -1
        self.step_span = step_span
        self.open_names: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``count(counts, args, kwargs, result)`` runs after the span has
        closed, so its own cost lands in the parent span only.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if name == tracer.step_span:
                    tracer.step += 1
                record = [name, 0.0, 0.0,
                          tracer._stack[-1] if tracer._stack else -1, tracer.step]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                tracer.open_names[name] += 1
                record[1] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    tracer.open_names[name] -= 1
                    tracer._stack.pop()
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result
            return wrapper

        self.replace(owner, attr, make)

    def counter(self, owner, attr: str, count) -> None:
        """Count calls of ``owner.attr`` without a span (for hot primitives)."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                count(tracer, args, result)
                return result
            return wrapper

        self.replace(owner, attr, make)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of directly nested spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Seconds per span name, nested spans included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for record in self.spans:
            out[record[0]] += 1
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")
