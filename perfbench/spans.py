"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of the ``repro`` layers
from outside the library: :class:`Instrumentation` swaps each target
(a module-level function, every module-level alias of it, or a class
method) for a wrapper that opens a span on a :class:`Tracer` and puts
the original back on :meth:`Instrumentation.remove`.  Spans (name,
start, end, parent) stay in memory; :func:`layer_table` turns them into
per-layer calls / total / self time once the run is over, and
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path
from time import perf_counter
from typing import Any


class Tracer:
    """In-memory span store plus named counters recorded at span exits."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name, start, end, parent]
                        for name, start, end, parent in zip(
                            self.names, self.starts, self.ends, self.parents
                        )
                    ],
                },
                handle,
            )


def layer_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """``name -> {calls, s, self_s}``; self time excludes child spans.

    Spans nest strictly (one thread), so a span's children never
    overlap and self time is its duration minus theirs.
    """
    child_time = [0.0] * len(tracer.names)
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += tracer.ends[index] - tracer.starts[index]
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for index, name in enumerate(tracer.names):
        duration = tracer.ends[index] - tracer.starts[index]
        row = table[name]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child_time[index]
    return dict(table)


#: ``after(tracer, state, args, kwargs, result)`` — records counts at a
#: span's exit; ``state`` is what ``before(args, kwargs)`` returned.
Hook = tuple[
    Callable[[tuple, dict], Any] | None,
    Callable[[Tracer, Any, tuple, dict, Any], None],
]


def _traced(tracer: Tracer, name: str, original: Callable, hook: Hook | None):
    before, after = hook if hook is not None else (None, None)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, state, args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Install span wrappers on ``repro`` entry points; remove them after.

    ``targets`` rows are ``(span name, module, attribute path, hook)``
    where the attribute path is ``"function"`` or ``"Class.method"``.
    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so ``from x import f`` call sites
    are traced too.
    """

    def __init__(self, tracer: Tracer, targets) -> None:
        self.tracer = tracer
        self.targets = targets
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for span, module_name, path, hook in self.targets:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, _traced(self.tracer, span, original, hook))
                continue
            original = getattr(module, attribute)
            wrapper = _traced(self.tracer, span, original, hook)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, alias, wrapper)

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
