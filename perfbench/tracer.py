"""In-memory span tracer for the benchmark's traced run.

Spans sit at layer boundaries only.  They come from two places: calls the
benchmark makes itself (``with tracer.span(...)``) and calls the program
makes, captured by :meth:`Tracer.patch`, which replaces a layer's public
callable at the name its caller resolves and restores it on
:meth:`Tracer.restore`.  Every span records its name, start, end and the
index of its parent span; counts are recorded at the same boundaries.
Nothing is written until :meth:`Tracer.dump`.

A traced solve crosses a few hundred thousand boundaries, so spans live in
flat typed arrays rather than one Python object each: that keeps the cost
per span small and leaves the garbage collector nothing to scan.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np


class Tracer:
    """Spans as parallel arrays (name id, start, end, parent) plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------------
    def wrap(
        self,
        original: Callable[..., Any],
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``original`` inside a span named ``name``, counted once per call.

        A call made while a span of the same name is already open (an engine
        method delegating to another engine method) passes straight through,
        so one layer crossing is one span and one count.  ``on_result`` sees
        the return value and may add counts.
        """
        name_id = self._intern(name)
        stack, name_ids, counts = self._stack, self.name_id, self.counts
        open_span, close_span = self._open, self._close

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and name_ids[stack[-1]] == name_id:
                return original(*args, **kwargs)
            index = open_span(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index)
            counts[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self, owner: Any, attr: str, replacement: Callable[..., Any]) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span named ``name`` (see :meth:`wrap`)."""
        self.install(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.frombuffer(self.name_id, dtype=np.int32)
        durations = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parents = np.frombuffer(self.parent, dtype=np.int32)
        return names, durations, parents

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        names, durations, parents = self._arrays()
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        per_name = np.bincount(names, weights=durations - child_time, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def child_count(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose parent span is named ``parent_name``."""
        if name not in self._name_ids or parent_name not in self._name_ids:
            return 0
        names, _durations, parents = self._arrays()
        mask = (names == self._name_ids[name]) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mask]] == self._name_ids[parent_name]))

    def dump(self, path: Path) -> None:
        """Write every span (name, start, end, parent) and count to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, _durations, parents = self._arrays()
        start = np.frombuffer(self.start, dtype=np.float64)
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=names,
            start_s=start - origin,
            end_s=np.frombuffer(self.end, dtype=np.float64) - origin,
            parent=parents,
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
        )
