"""Spans around the public functions of the `qtamper` modules, recorded
from outside the package.

`install` replaces every public function of every `qtamper` module with a
timing wrapper, in every module namespace that binds it, so that for
example `tamper.require_unitary` and `moments.require_unitary` both record
spans named `linalg.require_unitary`. Nothing under `src/` changes.

A span holds its name, start, end, parent span, thread and operation. Its
self time is its duration minus that of its child spans in the same
thread; a span opened on a worker thread has no parent there. Spans are
kept in per-thread column arrays, which need no lock on the hot path, and
written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import threading
import types
from array import array
from time import perf_counter

# Per-permutation and per-coefficient helpers are called hundreds of
# thousands of times per operation; a span around each would mostly
# measure the wrapper.
UNWRAPPED = frozenset({
    "perm.compose", "perm.invert", "perm.cycles_of", "perm.num_cycles",
    "perm.cycle_type_of", "field.is_prime",
})


class _ThreadSpans:
    """Column store of the spans one thread closed."""

    def __init__(self, slot: int):
        self.thread = threading.get_ident()
        self.base = slot << 32
        self.opened = 0
        self.stack: list[list] = []  # [span id, child seconds] per open span
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.ops = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self.cached: dict[str, object] = {}  # name -> lru_cache wrapper
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        if hasattr(fn, "cache_info"):
            self.cached[name] = fn
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans()
            stack = spans.stack
            span_id = spans.base | spans.opened
            spans.opened += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.ids.append(span_id)
                spans.parents.append(parent)
                spans.names.append(name_id)
                spans.ops.append(tracer.op)
                spans.starts.append(start)
                spans.ends.append(end)
                spans.selfs.append(end - start - frame[1])

        return traced

    def summary(self, n_ops: int) -> dict:
        """name -> {"calls", "s", "self_s"}, each a per-operation list."""
        out = {name: {"calls": [0] * n_ops, "s": [0.0] * n_ops, "self_s": [0.0] * n_ops}
               for name in self.names}
        for t in self._threads:
            for name_id, op, start, end, self_s in zip(t.names, t.ops, t.starts,
                                                       t.ends, t.selfs):
                if op < 0:
                    continue
                row = out[self.names[name_id]]
                row["calls"][op] += 1
                row["s"][op] += end - start
                row["self_s"][op] += self_s
        return {name: row for name, row in out.items() if any(row["calls"])}

    def write(self, path: str, origin: float) -> None:
        """All spans as gzipped JSON lines; times in seconds from `origin`."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for t in self._threads:
                for row in zip(t.ids, t.parents, t.names, t.ops, t.starts, t.ends):
                    span_id, parent, name_id, op, start, end = row
                    fh.write(
                        f'{{"id":{span_id},"parent":{parent},'
                        f'"name":"{self.names[name_id]}","op":{op},'
                        f'"thread":{t.thread},"start":{start - origin:.9f},'
                        f'"end":{end - origin:.9f}}}\n'
                    )


def _is_traceable(obj) -> bool:
    if hasattr(obj, "cache_info"):
        return True
    return isinstance(obj, types.FunctionType) and not inspect.isgeneratorfunction(obj)


def install(package: str = "qtamper") -> Tracer:
    """Wrap the public functions of every loaded module of `package`."""
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.startswith(package + ".")]
    wrappers: dict[int, object] = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _is_traceable(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith(package + "."):
                continue
            name = f"{home[len(package) + 1:]}.{obj.__name__}"
            if name in UNWRAPPED:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(name, obj)
            setattr(module, attr, wrappers[id(obj)])
    return tracer
