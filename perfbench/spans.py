"""Outside-in tracer: spans and counters recorded around calls into the library.

Nothing in the library is edited. `Tracer.wrap` replaces a public function
on every object through which its callers look it up (a module that bound
it with `from .x import f` holds its own reference, so that module must be
patched too) and `Tracer.close` puts the originals back. Spans
(name, start, end, parent index) and counters stay in memory until
`Tracer.write` is called at the end of a run.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional, Sequence


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.open: Counter = Counter()  # names of the spans currently open
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.open[name] += 1
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.open[name] -= 1
            self._stack.pop()

    def wrap(
        self,
        owners: Sequence[object],
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        span: bool = True,
        cpu: bool = False,
    ) -> None:
        """Route every lookup of `attr` on `owners` through a recording wrapper.

        `after(args, kwargs, result, exc)` runs once the call returns or
        raises; with span=False only `after` runs, for calls too frequent
        or too small to time. cpu=True adds the process CPU time spent in
        the call (all threads, so BLAS workers count) to `<name>.cpu_s`.
        """
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same object as on {owners[0]!r}")

        def wrapper(*args, **kwargs):
            result, exc = None, None
            cpu_start = time.process_time() if cpu else 0.0
            try:
                if span:
                    with self.span(name):
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                if cpu:
                    self.counters[f"{name}.cpu_s"] += time.process_time() - cpu_start
                if after is not None:
                    after(args, kwargs, result, exc)

        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped function, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> [calls, seconds] over all spans of that name."""
        out: dict = {}
        for name, start, end, _ in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return out

    def child_seconds(self) -> dict:
        """span index -> seconds covered by its direct children."""
        out: dict = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] = out.get(parent, 0.0) + end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
