"""In-memory span tracer for the traced benchmark run.

Spans are recorded only around calls into the package's public functions,
by replacing module attributes (``Tracer.wrap``); nothing inside ``src/``
is instrumented.  A span is (name, start, end, parent span, op id).  Spans are
kept in flat arrays while the run lasts and written out once at the end.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records nested spans around wrapped callables.

    Wrapped callables record only inside an ``op()`` block, so calls the
    benchmark makes to check outputs stay out of the trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def op(self):
        """One timed operation: the root span that all wrapped calls nest in."""
        self._op = self._ops
        self._ops += 1
        idx = self._open(self._nid("bench.op"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx], self.end[idx] = t0, t1
            self._op = -1

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper until close().

        ``observe(tracer, span, args, kwargs, result)`` runs after a traced
        call returns, to record counts at the same boundary.
        """
        fn = getattr(module, attr)
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx], tracer.end[idx] = t0, t1
            if observe is not None:
                observe(tracer, idx, args, kwargs, result)
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """Copies of (name id, parent, start, end) as numpy arrays."""
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def summary(self, top_level: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans never overlap their siblings, because the run is
        single-threaded.  With ``top_level``, only spans called directly
        from an operation (children of a ``bench.op`` root) are counted.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        if top_level:
            keep = has_parent & (name_id[np.maximum(parent, 0)] == self._nid("bench.op"))
            name_id, dur, self_t = name_id[keep], dur[keep], self_t[keep]
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_t, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])} for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, op_id=np.array(self.op_id, dtype=np.int32),
                            start=start, end=end)
