"""Observation from outside the program: wrappers, spans and GC pauses.

Nothing under ``src/`` knows it is being measured.  :class:`Patcher`
replaces a function or method with a wrapper and rebinds every alias a
``repro`` module holds to it (``from x import f`` copies the reference,
so patching ``x.f`` alone would miss those callers); :meth:`restore`
puts every original back.  Wrappers are installed before any machine
is built, so methods bound at construction time bind the wrapper.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
from functools import update_wrapper
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from measure import Span


class Patcher:
    """Installs wrappers and remembers how to take them out again."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, module: str, name: str, make: Callable) -> None:
        """Wrap ``module.name`` and every ``repro`` alias of it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Wrap a method defined on ``cls`` itself, keeping its kind."""
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(cls, name, wrapped)
        self._undo.append((cls, name, raw))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def subclasses(cls: type) -> List[type]:
    """``cls`` and every loaded subclass of it, each once."""
    seen: List[type] = []
    stack = [cls]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.append(current)
            stack.extend(current.__subclasses__())
    return seen


class Tracer:
    """Records one span per wrapped call, in memory.

    A call nested directly inside a span of the same layer is charged
    to the outer span (``super()`` chains and recursive spec rendering
    stay one span).  ``iteration`` and ``tag`` are set by the run
    loop: spans of one pass share the iteration id, and the tag names
    the operation in flight (the storm policy).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.iteration = 0
        self.tag: Any = None
        self._stack: List[Tuple[int, str]] = []
        self._next = 0

    def wrapper(self, layer: str) -> Callable:
        def make(fn: Callable) -> Callable:
            tracer = self
            stack = self._stack
            spans = self.spans

            def traced(*args, **kwargs):
                if stack and stack[-1][1] == layer:
                    return fn(*args, **kwargs)
                sid = tracer._next
                tracer._next = sid + 1
                parent = stack[-1][0] if stack else -1
                stack.append((sid, layer))
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans.append((sid, parent, tracer.iteration, layer, start, end, tracer.tag))

            return update_wrapper(traced, fn)

        return make

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\titeration\tlayer\tstart\tend\ttag\n")
            for sid, parent, it, layer, start, end, tag in self.spans:
                fh.write(f"{sid}\t{parent}\t{it}\t{layer}\t{start:.9f}\t{end:.9f}\t{tag or ''}\n")


class GcMonitor:
    """Cyclic-GC pause time and generation-2 collections, via
    ``gc.callbacks`` and ``gc.get_stats()``.  Collections asked for
    through :meth:`collect` are left out of both."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.explicit = 0
        self._started = 0.0
        self._asked = False

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if self._asked:
            return
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_s += perf_counter() - self._started

    def collect(self) -> None:
        self._asked = True
        try:
            gc.collect()
        finally:
            self._asked = False
        self.explicit += 1

    @staticmethod
    def gen2_collections() -> int:
        return gc.get_stats()[2]["collections"]

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


class ExecProbe:
    """The observation both modes share: per-simulation host time and
    the simulated counters the digest and the layer metrics need.

    It wraps ``repro.api.session.execute`` (one line per call, with its
    host time and workload, is appended to the sink file, whose
    descriptor forked sweep workers inherit) and ``Machine.run`` (its
    event queue's ``events_processed``).  Counters
    accumulate in this process only and are reset by the run per pass.
    """

    def __init__(self) -> None:
        self.fd: int = -1
        self.counters: Dict[str, float] = {}
        self.last_events = 0
        self.reset()

    def reset(self) -> None:
        self.counters = dict.fromkeys(
            (
                "sims", "events", "trace_records", "checkpoints_recorded",
                "checkpoint_peak_held", "tasks_reissued", "steps_wasted",
                "steps_total", "load_arrivals",
            ),
            0,
        )

    def open_sink(self, path: str) -> None:
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def close_sink(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
        self.fd = -1

    def install(self, patcher: Patcher) -> None:
        import repro.api.session  # noqa: F401 - the module the patch targets
        from repro.sim.machine import Machine

        probe = self

        def make_execute(fn: Callable) -> Callable:
            def execute(*args, **kwargs):
                start = perf_counter()
                handle = fn(*args, **kwargs)
                elapsed = perf_counter() - start
                if probe.fd >= 0:
                    line = f"{elapsed:.9f}\t{handle.record['workload']}\n"
                    os.write(probe.fd, line.encode("utf-8"))
                probe._count(handle)
                return handle

            return update_wrapper(execute, fn)

        def make_run(fn: Callable) -> Callable:
            def run(machine, *args, **kwargs):
                result = fn(machine, *args, **kwargs)
                probe.last_events = machine.queue.events_processed
                probe.counters["events"] += probe.last_events
                probe.counters["trace_records"] += len(result.trace)
                return result

            return update_wrapper(run, fn)

        patcher.function("repro.api.session", "execute", make_execute)
        patcher.method(Machine, "run", make_run)

    def _count(self, handle: Any) -> None:
        c = self.counters
        m = handle.record["metrics"]
        c["sims"] += 1
        c["checkpoints_recorded"] += m["checkpoints_recorded"]
        c["checkpoint_peak_held"] = max(c["checkpoint_peak_held"], m["checkpoint_peak_held"])
        c["tasks_reissued"] += m["tasks_reissued"]
        c["steps_wasted"] += m["steps_wasted"]
        c["steps_total"] += m["steps_total"]
        if "load" in handle.record:
            c["load_arrivals"] += handle.record["load"]["arrivals"]


def read_sink(path: str) -> List[Tuple[float, str]]:
    """The ``(seconds, workload)`` of each ``execute`` call an
    :class:`ExecProbe` recorded."""
    if not os.path.exists(path):
        return []
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            seconds, workload = line.rstrip("\n").split("\t")
            out.append((float(seconds), workload))
    return out
