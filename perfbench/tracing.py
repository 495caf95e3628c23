"""Span timing for the traced benchmark run.

Spans are aggregated as they close, keyed by (name, tags, parent name), so a
run of tens of thousands of replications keeps a few dozen accumulators in
memory instead of one record per call. Spans measure CPU seconds of this
process by default. A span's self time is its duration minus the durations
of the spans opened directly inside it.

Library functions are traced by rebinding a module attribute to a wrapper
that opens a span around the original; `Tracer.installed` rebinds a list of
targets and puts every original back when the block ends, also on error.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator


def ratio(part: float, base: float) -> float:
    """part / base, or 0.0 when the base is empty.

    Callers report the base next to the ratio, so an empty base reads as
    "nothing attempted" rather than as a measured zero.
    """
    return part / base if base else 0.0


@dataclass(frozen=True)
class Target:
    """One module attribute to rebind: `module.attr` becomes a span `name`.

    `tags` maps the call's arguments to span tags; `on_result` sees the
    arguments and the result, for counters such as cache hits.
    """

    module: object
    attr: str
    name: str
    tags: Callable[..., dict] | None = None
    on_result: Callable[..., None] | None = None


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class NullTracer:
    """Tracer stand-in for the untraced run: every span is a no-op."""

    def span(self, name: str, **tags):
        return nullcontext()


class Tracer:
    """Aggregating span recorder with attribute wrapping."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.spans: dict[tuple, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[None]:
        frame = [name, 0.0]  # name, seconds spent in child spans
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            self._stack.pop()
            parent = self._stack[-1][0] if self._stack else None
            key = (name, tuple(sorted(tags.items())), parent)
            stats = self.spans.get(key)
            if stats is None:
                stats = self.spans[key] = SpanStats()
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tags = target.tags(*args, **kwargs) if target.tags else {}
            with self.span(target.name, **tags):
                result = original(*args, **kwargs)
            if target.on_result is not None:
                target.on_result(self, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self, targets: list[Target]) -> Iterator[None]:
        """Rebind every target to a span wrapper for the block's duration."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrapper(t, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stats(self, name: str, parent: str | None = "*", **tags) -> SpanStats:
        """Sum over spans called `name` whose tags include `tags`.

        `parent="*"` accepts any enclosing span; otherwise only spans opened
        directly inside `parent` (None: at top level) count.
        """
        out = SpanStats()
        for (n, key_tags, key_parent), s in self.spans.items():
            if n != name or (parent != "*" and key_parent != parent):
                continue
            if any((k, v) not in key_tags for k, v in tags.items()):
                continue
            out.calls += s.calls
            out.total += s.total
            out.self_time += s.self_time
        return out
