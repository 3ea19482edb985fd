"""In-memory span tracer that wraps the program's functions from outside.

Spans are ``(trace, id, parent, name, start, end)`` tuples kept in a list
and written out once, at the end of a run. A span's *trace* is the id of
the root span it descends from, so every span of one fold task or one
GBABS call shares an identifier. Wrappers return the wrapped function's
value unchanged; an optional *observer* turns a call's arguments and
result into counters recorded at the same boundary.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Observer = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Span:
    trace: int
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one process (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, int]] = []  # (trace, id) of open spans
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        trace, parent = self._stack[-1] if self._stack else (sid, 0)
        self._stack.append((trace, sid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(trace, sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                for key, value in observe(args, kwargs, out).items():
                    self.counters[key] += value
            return out

        return traced

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one span run one after another in this single-threaded
        tracer, so the covered part is the sum of their durations.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s.parent:
                child[s.parent] += s.seconds
        return {s.id: s.seconds - child[s.id] for s in self.spans}

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")


class Patch:
    """Replaces functions and methods of loaded ``repro`` modules with wrappers.

    Every reference to a wrapped function in any loaded ``repro`` module is
    replaced, so a call made through another module's ``from x import f``
    is traced too. ``restore`` puts every original back.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def functions(self, module: str, observers: dict[str, Observer] | None = None) -> None:
        """Wrap every public function named in ``module.__all__``."""
        mod = importlib.import_module(module)
        observers = observers or {}
        layer = module.removeprefix("repro.")
        wrapped = {}
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                wrapped[fn] = self.tracer.wrap(f"{layer}.{name}", fn, observers.get(name))
        for loaded in [m for n, m in sys.modules.items() if n.split(".")[0] == "repro"]:
            for attr, value in list(vars(loaded).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(loaded, attr, wrapped[value])

    def methods(self, cls: type, names: list[str], label: str) -> None:
        """Wrap methods of ``cls`` as spans named ``<label>.<method>``."""
        for name in names:
            self._set(cls, name, self.tracer.wrap(f"{label}.{name}", getattr(cls, name)))

    def restore(self) -> None:
        for owner, attr, value, had in reversed(self._undo):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()
