"""In-memory spans around calls into ffinit, recorded from outside the package.

A :class:`Tracer` swaps module-level names (for example
``ffinit.harness.infer_from_feedforward``) for wrappers while it is
patched in. Callers inside the package look those names up at call time,
so every call made through them is caught. Each wrapper records one span:
its name (``<defining module>.<function>``), start, end and parent. The
spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("index", "name", "parent", "root", "start", "end", "arg0", "result")

    def __init__(self, index: int, name: str, parent: int, root: int, arg0: int):
        self.index = index
        self.name = name
        self.parent = parent
        self.root = root
        self.arg0 = arg0
        self.start = self.end = 0.0
        self.result = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans; ``arg0`` and ``result`` hold ``id()`` values so that a
    span can be matched to the parameters it ran with."""

    def __init__(self):
        self.spans: list[Span] = []
        # (span index of the training call, pair, epoch, error, timestamp)
        self.progress: list[tuple[int, int, int, float, float]] = []
        self._stack: list[int] = []

    def _open(self, name: str, arg0: int) -> Span:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        span = Span(idx, name, parent, root, arg0)
        self.spans.append(span)
        self._stack.append(idx)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one measured pass."""
        span = self._open(name, 0)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            span = self._open(name, id(args[0]) if args else 0)
            progress = kwargs.get("progress")
            if progress is not None:
                kwargs["progress"] = self._stamped(span.index, progress)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.result = id(result)
                return result
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def _stamped(self, idx: int, progress):
        def stamped(pair, epoch, err):
            self.progress.append((idx, pair, epoch, err, time.perf_counter()))
            progress(pair, epoch, err)
        return stamped

    @contextmanager
    def patched(self, targets):
        """Replace each ``(module, name)`` in ``targets`` by a traced wrapper."""
        saved = [(module, name, getattr(module, name)) for module, name in targets]
        for module, name, fn in saved:
            setattr(module, name, self._wrap(fn))
        try:
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    # -- analysis -------------------------------------------------------

    def under(self, *root_names: str) -> list[Span]:
        """All spans whose root span has one of the given names."""
        return [s for s in self.spans if self.spans[s.root].name in root_names]

    def self_times(self, spans: list[Span]) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        child_time = {}
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: dict[str, float] = {}
        for s in spans:
            own = s.duration - child_time.get(s.index, 0.0)
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.root] for s in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "root"],
                                    "spans": rows,
                                    "progress": self.progress}) + "\n")
