"""In-memory spans around calls into trajtomo's layers.

A span records a name, a start, an end, the span open when it began
(its parent) and a trace id; the benchmark gives every iteration its
own trace id.  Spans stay in memory until the run ends.  Calls are
expected from one thread: the open-span stack is not locked.
"""
from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict
from contextlib import contextmanager


def span_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self._open: list[int] = []
        self.trace_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def self_times(self, trace_id: int) -> dict[str, float]:
        """Self time summed per span name within one trace.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = defaultdict(float)
        for name, start, end, parent, tid in self.spans:
            if tid == trace_id and parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, tid) in enumerate(self.spans):
            if tid == trace_id:
                out[name] += end - start - child[index]
        return dict(out)

    def dump(self, origin: float) -> list[dict]:
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "trace": t}
            for n, s, e, p, t in self.spans
        ]


def layer(tracer: Tracer | None, fn, name: str | None = None):
    """``fn`` itself, or ``fn`` inside a span when tracing."""
    if tracer is None:
        return fn
    return tracer.wrap(name or span_name(fn), fn)


@contextmanager
def instrument(tracer: Tracer | None):
    """Route the command line's calls into the library through spans.

    Every trajtomo function imported into ``trajtomo.cli`` and every
    function of ``trajtomo.io`` (reached there as ``tio``) is wrapped,
    and so is ``RMatrix.interval``, which both the command line and the
    in-process workloads call as a method.  Everything is restored on
    exit.  Without a tracer nothing is patched.
    """
    if tracer is None:
        yield
        return
    import trajtomo.cli as cli
    import trajtomo.io as tio
    from trajtomo.confidence import RMatrix

    patches = {
        attr: tracer.wrap(span_name(obj), obj)
        for attr, obj in vars(cli).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("trajtomo.")
        and obj.__module__ != cli.__name__
    }
    io_proxy = types.SimpleNamespace(**{
        attr: tracer.wrap(span_name(obj), obj)
        if inspect.isfunction(obj) and obj.__module__ == tio.__name__ else obj
        for attr, obj in vars(tio).items()
        if not attr.startswith("__")
    })
    patches["tio"] = io_proxy
    saved = {attr: getattr(cli, attr) for attr in patches}
    interval = RMatrix.interval
    try:
        for attr, obj in patches.items():
            setattr(cli, attr, obj)
        RMatrix.interval = tracer.wrap("confidence.interval", interval)
        yield
    finally:
        for attr, obj in saved.items():
            setattr(cli, attr, obj)
        RMatrix.interval = interval
