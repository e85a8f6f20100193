"""Layer tracing from outside the program.

A :class:`Tracer` replaces chosen methods (class attributes) or module
functions with timing wrappers for the duration of one traced run and
puts the originals back afterwards.  Every wrapped call is aggregated in
place as a call count, total time and child time, so a layer's *self*
time is its total minus the time spent in other wrapped layers it
called.  Layers marked as spans (steps, flush windows, ``read_trace``,
collect) also record one ``(name, start, end, parent)`` span per call;
spans are kept in memory and written out when the run ends.

A :class:`LapClock` is the much lighter wrapper the metric runs use: it
only reads the clock when a chosen call returns, splitting the timed
section into laps (one per step or flush window) whose per-lap medians
over the repeats add up to the section's time.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["Hook", "Lap", "LapClock", "LayerStats", "Tracer"]

_MISSING = object()


@dataclass(frozen=True)
class Hook:
    """Where to wrap one layer, and how to book its calls.

    *owner* is a class or module and *attr* the method or function name
    looked up on it at call time.  *layer* names the metric that receives
    the layer's self time; several hooks may share one (their calls then
    add up).  *rows*, when given, is called with the wrapped call's
    arguments before the clock starts and returns a work count to add to
    the layer's ``rows``.  *calls_metric* and *rows_metric* name the
    metrics that report the layer's call and row counts.
    """

    owner: Any
    attr: str
    layer: str
    span: bool = False
    rows: Callable[..., int] | None = None
    calls_metric: str | None = None
    rows_metric: str | None = None


@dataclass
class LayerStats:
    """Aggregate of every call into one layer."""

    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    rows: int = 0

    @property
    def self_s(self) -> float:
        """Busy time in the layer itself, excluding wrapped callees."""
        return self.total_s - self.child_s


class _Patches:
    """Replaces attributes with wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._installed: list[tuple[Any, str, Any]] = []

    def _patch(
        self, owner: Any, attr: str, wrap: Callable[[Callable[..., Any]], Any]
    ) -> None:
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, wrap(original))
        self._installed.append((owner, attr, own))

    def remove(self) -> None:
        """Restore every wrapped attribute, innermost installation first."""
        while self._installed:
            owner, attr, own = self._installed.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


@dataclass(frozen=True)
class Lap:
    """A call whose return ends a lap: on every call, or every *every*-th.

    *owner* and *attr* are looked up as for :class:`Hook`.
    """

    owner: Any
    attr: str
    every: int = 1


class LapClock(_Patches):
    """Reads the clock when a lap call returns; nothing else.

    A call that raises ends no lap.  Use one clock per timed section.
    """

    def __init__(self) -> None:
        super().__init__()
        self.marks: list[float] = []

    def install(self, laps: list[Lap]) -> None:
        """Wrap every lap call; :meth:`remove` undoes all of them."""
        for lap in laps:
            self._patch(lap.owner, lap.attr, functools.partial(self._wrap, lap=lap))

    def laps(self, start: float, end: float) -> list[float]:
        """The lap durations of a section timed from *start* to *end*."""
        points = [start, *self.marks, end]
        return [b - a for a, b in zip(points, points[1:])]

    def _wrap(self, fn: Callable[..., Any], lap: Lap) -> Callable[..., Any]:
        mark = self.marks.append
        clock = time.perf_counter
        every = lap.every
        calls = 0

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nonlocal calls
            result = fn(*args, **kwargs)
            calls += 1
            if calls == every:
                calls = 0
                mark(clock())
            return result

        return wrapper


class Tracer(_Patches):
    """Installs timing wrappers, aggregates calls, records coarse spans."""

    def __init__(self) -> None:
        super().__init__()
        self.origin = time.perf_counter()
        self.layers: dict[str, LayerStats] = {}
        #: ``[name, start, end, parent_index]``; end is None while open.
        self.spans: list[list[Any]] = []
        # One [child_seconds] cell per active wrapped call, innermost last.
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []

    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook's target; :meth:`remove` undoes all of them."""
        for hook in hooks:
            self._patch(hook.owner, hook.attr, functools.partial(self._wrap, hook=hook))

    def _wrap(self, fn: Callable[..., Any], hook: Hook) -> Callable[..., Any]:
        stats = self.layers.setdefault(hook.layer, LayerStats())
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        rows = hook.rows
        name = hook.layer
        is_span = hook.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if rows is not None:
                stats.rows += rows(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if is_span:
                index = len(spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(index)
            t0 = clock()
            if is_span:
                spans.append([name, t0, None, parent])
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                elapsed = t1 - t0
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if is_span:
                    spans[index][2] = t1
                    open_spans.pop()

        return wrapper

    # -- results --------------------------------------------------------------
    def self_seconds(self) -> float:
        """Self time summed over every layer (the traced time accounted for)."""
        return sum(stats.self_s for stats in self.layers.values())

    def write(self, path: Path, **extra: Any) -> Path:
        """Write spans (relative to the tracer's start) and aggregates."""
        origin = self.origin
        document = {
            **extra,
            "layers": {
                name: {
                    "calls": stats.calls,
                    "total_s": stats.total_s,
                    "self_s": stats.self_s,
                    "rows": stats.rows,
                }
                for name, stats in sorted(self.layers.items())
            },
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": (end if end is not None else start) - origin,
                    "parent": parent,
                }
                for name, start, end, parent in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        return path
