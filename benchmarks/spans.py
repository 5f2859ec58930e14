"""Spans recorded from outside the program, for the traced run.

The benchmark times the objects it passes in (a ``DiskCache`` subclass, a
``ModelGateway`` subclass and the fakes) and, while a traced round runs, two
standard-library entry points: ``threading.Thread.start`` (threads started
and the peak alive) and ``ThreadPoolExecutor.submit``, which carries the
submitting task's span context into the worker, so every span knows its
pair. A span is ``(id, name, start_ns, end_ns, parent_id, pair_id)``; spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable

from halodet.cache import CacheKey, DiskCache
from halodet.gateway import ModelGateway, ModelRequest, ModelResponse
from halodet.model import ImageTextPair

_CURRENT: contextvars.ContextVar[tuple[int, str | None]] = contextvars.ContextVar(
    "benchmark_span", default=(0, None))


class _Span:
    __slots__ = ("tracer", "name", "pair", "sid", "token", "start", "parent")

    def __init__(self, tracer: "Tracer", name: str, pair: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.pair = pair

    def __enter__(self) -> "_Span":
        parent, inherited = _CURRENT.get()
        self.pair = self.pair if self.pair is not None else inherited
        self.sid = next(self.tracer._ids)
        self.token = _CURRENT.set((self.sid, self.pair))
        self.start = time.perf_counter_ns()
        self.parent = parent
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.perf_counter_ns()
        _CURRENT.reset(self.token)
        self.tracer.spans.append((self.sid, self.name, self.start, end,
                                  self.parent, self.pair))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, str | None]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.threads_started = 0
        self.peak_threads = 0
        self._saved: tuple[Callable, Callable] | None = None

    def span(self, name: str, pair: str | None = None) -> _Span:
        return _Span(self, name, pair)

    def reset(self) -> None:
        self.spans = []
        self.threads_started = 0
        self.peak_threads = threading.active_count()

    def install(self) -> None:
        """Count thread starts and carry span context into pool workers."""
        original_start = threading.Thread.start
        original_submit = ThreadPoolExecutor.submit
        tracer = self

        def start(thread: threading.Thread) -> None:
            with tracer._lock:
                tracer.threads_started += 1
            original_start(thread)
            alive = threading.active_count()
            with tracer._lock:
                tracer.peak_threads = max(tracer.peak_threads, alive)

        def submit(pool: ThreadPoolExecutor, fn: Callable, /, *args: Any, **kwargs: Any):
            context = contextvars.copy_context()
            pair = next((a.id for a in args if isinstance(a, ImageTextPair)), None)
            if pair is None:
                return original_submit(pool, context.run, fn, *args, **kwargs)

            def run_pair() -> Any:
                with tracer.span("executor.pair", pair):
                    return fn(*args, **kwargs)

            return original_submit(pool, context.run, run_pair)

        self._saved = (original_start, original_submit)
        threading.Thread.start = start  # type: ignore[method-assign]
        ThreadPoolExecutor.submit = submit  # type: ignore[method-assign]

    def uninstall(self) -> None:
        if self._saved is not None:
            threading.Thread.start, ThreadPoolExecutor.submit = self._saved  # type: ignore[method-assign]
            self._saved = None


class TimedGateway(ModelGateway):
    def __init__(self, backend: Any, tracer: Tracer) -> None:
        super().__init__(backend)
        self._tracer = tracer

    def complete(self, request: ModelRequest) -> ModelResponse:
        with self._tracer.span("gateway.complete"):
            return super().complete(request)


class TimedCache(DiskCache):
    def __init__(self, directory: Any, tracer: Tracer) -> None:
        super().__init__(directory)
        self._tracer = tracer
        self._count_lock = threading.Lock()
        self.gets = 0
        self.get_hits = 0
        self.puts = 0

    def get(self, key: CacheKey) -> tuple[bool, Any]:
        with self._tracer.span("cache.get"):
            hit, value = super().get(key)
        with self._count_lock:
            self.gets += 1
            self.get_hits += hit
        return hit, value

    def put(self, key: CacheKey, value: Any) -> None:
        with self._tracer.span("cache.put"):
            super().put(key, value)
        with self._count_lock:
            self.puts += 1


# --- derived figures --------------------------------------------------------------


def waves(intervals: list[tuple[int, int]]) -> int:
    """Sequential waves: runs of calls that overlap in time."""
    count, horizon = 0, None
    for start, end in sorted(intervals):
        if horizon is None or start > horizon:
            count += 1
            horizon = end
        else:
            horizon = max(horizon, end)
    return count


def span_figures(spans: list[tuple[int, str, int, int, int, str | None]]) -> dict[str, Any]:
    """Per-pair waves and spans, gateway self time and call durations."""
    backend: dict[str, list[tuple[int, int]]] = {}
    layer: dict[str, list[tuple[int, int]]] = {}
    children: dict[int, int] = {}
    durations: dict[str, list[int]] = {}
    for sid, name, start, end, parent, pair in spans:
        durations.setdefault(name, []).append(end - start)
        if name.startswith("backend."):
            children[parent] = children.get(parent, 0) + (end - start)
            if pair is not None:
                backend.setdefault(pair, []).append((start, end))
        if (name.startswith("backend.") or name.startswith("cache.")) and pair is not None:
            layer.setdefault(pair, []).append((start, end))
    self_ns = [end - start - children.get(sid, 0)
               for sid, name, start, end, _, _ in spans if name == "gateway.complete"]
    pair_ids = {pair for _, name, _, _, _, pair in spans if name == "executor.pair"}
    return {
        "waves": [waves(backend.get(pair, [])) for pair in pair_ids],
        "pair_span_ns": [max(e for _, e in iv) - min(s for s, _ in iv)
                         for iv in layer.values()],
        "gateway_self_ns": self_ns,
        "durations": durations,
    }


def time_calls(fn: Callable[..., Any], inputs: Iterable[tuple], repeats: int = 5) -> list[int]:
    """Nanoseconds per call of ``fn`` over each input, ``repeats`` times each."""
    samples = []
    for args in inputs:
        for _ in range(repeats):
            started = time.perf_counter_ns()
            fn(*args)
            samples.append(time.perf_counter_ns() - started)
    return samples
