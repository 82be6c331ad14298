"""In-memory span tracing around the program's public functions.

A traced run replaces each public function at the attribute through which
its callers reach it (for example ``cfsig.replica.parse_dot``) with a wrapper
that records one span per call: name, start, end, parent span and operation
id. Spans stay in memory until the run ends and are then written out; the
originals are restored by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections.abc import Callable, Iterable

NO_PARENT = -1


class Tracer:
    """Records spans and counters for the calls made on one thread.

    Calls from any other thread (for example a transport's accept threads)
    run untraced, so spans of one operation always nest properly.
    """

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_ids = array("q")
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: dict[str, int] = {}
        self.deferred: list[Callable[[], None]] = []
        self.op = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def full(self) -> bool:
        return len(self.starts) >= self.max_spans

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        """Return *fn* recording a span per call; *on_return(args, result)* counts."""
        name_id = self._name_id(name)
        tracer, stack, thread = self, self._stack, self._thread
        get_ident, now = threading.get_ident, time.perf_counter_ns
        op_ids, parents, name_ids = self.op_ids.append, self.parents.append, self.name_ids.append
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            idx = len(starts)
            op_ids(tracer.op)
            parents(stack[-1] if stack else NO_PARENT)
            name_ids(name_id)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str,
                on_return: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_deferred(self) -> None:
        """Run bookkeeping that must not fall inside any span."""
        for task in self.deferred:
            task()
        self.deferred.clear()

    def records(self) -> Iterable[tuple[int, int, int, str, int, int]]:
        """Spans as ``(id, parent, op, name, start_ns, end_ns)``."""
        for i in range(len(self.starts)):
            yield (i, self.parents[i], self.op_ids[i], self.names[self.name_ids[i]],
                   self.starts[i], self.ends[i])


def self_times(parents: list[int], starts: list[int], ends: list[int]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes negative.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for i, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    result = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered, reach = 0, lo
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, hi)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(hi - lo - covered)
    return result


def layer_totals(tracer: Tracer) -> dict[str, list[int]]:
    """Per span name: ``[calls, total self time in ns]``."""
    totals: dict[str, list[int]] = {name: [0, 0] for name in tracer.names}
    own = self_times(tracer.parents, tracer.starts, tracer.ends)
    for name_id, self_ns in zip(tracer.name_ids, own):
        entry = totals[tracer.names[name_id]]
        entry[0] += 1
        entry[1] += self_ns
    return totals
