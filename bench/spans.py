"""In-memory span tracing of calls into fracdyn's public functions.

A ``Tracer`` replaces module attributes such as ``cli.solve`` or
``mlf.ml_two`` with wrappers that record one span per call: name, start,
end, parent span and thread.  Spans stay in compact arrays until the run
ends; ``restore`` puts every original attribute back.  Self time and
cross-thread overlap are computed afterwards from the recorded arrays, so
the traced calls pay only for two clock reads and a few appends.
"""

import functools
import inspect
import itertools
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

NO_PARENT = -1


@dataclass
class SpanTable:
    """Recorded spans as parallel arrays, ordered by span id."""

    names: list              # span name per name index
    name: np.ndarray         # name index of each span
    start: np.ndarray        # perf_counter seconds
    end: np.ndarray
    parent: np.ndarray       # row of the parent span, NO_PARENT for roots
    thread: np.ndarray       # small thread index, 0 for the first seen
    failed: np.ndarray       # the call raised the tracer's failure type

    @property
    def duration(self):
        return self.end - self.start

    def rows(self, name):
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)


def _merged(starts, ends):
    """Disjoint intervals covering the same points, in order."""
    merged = []
    for i in np.argsort(starts, kind="stable"):
        if merged and starts[i] <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], ends[i])
        else:
            merged.append([starts[i], ends[i]])
    return merged


def union_length(starts, ends):
    """Total length covered by a set of intervals."""
    return float(sum(hi - lo for lo, hi in _merged(starts, ends)))


def self_times(table):
    """Each span's duration minus the part of it its children cover.

    Children on the parent's own thread never overlap, so their durations
    add up.  Children on other threads (a thread pool working for the
    span) may overlap each other and are merged as intervals, clipped to
    the parent.
    """
    dur = table.duration
    child = table.parent != NO_PARENT
    covered = np.bincount(table.parent[child], weights=dur[child],
                          minlength=dur.size)
    cross = child.copy()
    cross[child] = table.thread[child] != table.thread[table.parent[child]]
    for p in np.unique(table.parent[cross]):
        kids = table.parent == p
        lo = np.maximum(table.start[kids], table.start[p])
        hi = np.minimum(table.end[kids], table.end[p])
        covered[p] = union_length(lo, np.maximum(lo, hi))
    return dur - covered


def overlap_time(starts, ends, threads):
    """Time during which spans on two or more threads are open at once."""
    events = []
    for th in np.unique(threads):
        # merge one thread's intervals first so nesting counts once
        mine = threads == th
        for lo, hi in _merged(starts[mine], ends[mine]):
            events += [(lo, 1), (hi, -1)]
    events.sort()
    total, depth, last = 0.0, 0, None
    for when, step in events:
        if depth >= 2:
            total += when - last
        depth += step
        last = when
    return float(total)


class Tracer:
    """Records spans for calls made through patched module attributes.

    ``failure`` is the exception type that marks a span as failed (the
    library's base error); other exceptions pass through unmarked.
    """

    def __init__(self, failure=Exception):
        self.failure = failure
        self.names = []
        self.counters = {}           # (span name, counter) -> total
        self._name_ids = {}
        self._threads = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []           # (owner, attribute, original)
        self._root = NO_PARENT       # parent of root spans on pool threads
        self._cols = {
            "id": array("q"), "name": array("H"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "thread": array("H"),
            "failed": array("B"),
        }

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name_id, start, end, parent, failed, counts):
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            cols = self._cols
            cols["id"].append(sid)
            cols["name"].append(name_id)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(parent)
            cols["thread"].append(thread)
            cols["failed"].append(failed)
            if counts:
                name = self.names[name_id]
                for key, value in counts.items():
                    self.counters[name, key] = \
                        self.counters.get((name, key), 0.0) + value

    def wrap(self, fn, name, counts=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``counts(arguments, result, error)`` returns the counter increments
        of one call; ``arguments`` maps parameter names to bound values.
        """
        name_id = self._name_id(name)
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                inc = None
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    inc = counts(bound.arguments, result, error)
                self._record(sid, name_id, start, end, parent,
                             isinstance(error, self.failure), inc)

        return traced

    @contextmanager
    def operation(self, name):
        """Span for one benchmark operation.

        Root spans opened on other threads while it runs (the CLI's thread
        pool) become its children.
        """
        name_id = self._name_id(name)
        sid = next(self._ids)
        outer = self._root
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        failed = False
        start = time.perf_counter()
        try:
            yield
        except self.failure:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = outer
            self._record(sid, name_id, start, end, outer, failed, None)

    # ------------------------------------------------------------- patching

    def patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def trace_attribute(self, owner, attribute, name, counts=None):
        """Wrap ``owner.attribute`` if it exists; return whether it did."""
        if not hasattr(owner, attribute):
            return False
        self.patch(owner, attribute,
                   self.wrap(getattr(owner, attribute), name, counts))
        return True

    def traced_system(self, spec):
        """Copy of a SystemSpec whose field and Jacobian record spans."""
        jac = spec.jacobian
        return replace(
            spec,
            field=self.wrap(spec.field, "systems.field"),
            jacobian=None if jac is None else self.wrap(jac,
                                                        "systems.jacobian"))

    def restore(self):
        """Put back every patched attribute, last patch first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- results

    def table(self):
        """The spans recorded so far, as a ``SpanTable``.

        Call it when no span is open: span ids are then exactly
        0 .. n-1, so a span's id is its row.
        """
        with self._lock:
            ids = np.frombuffer(self._cols["id"], dtype=np.int64) \
                if self._cols["id"] else np.zeros(0, dtype=np.int64)
            if ids.size and ids.max() + 1 != ids.size:
                raise RuntimeError("spans are still open")

            def by_id(key, dtype):
                col = self._cols[key]
                out = np.empty(ids.size, dtype=dtype)
                if col:
                    out[ids] = np.frombuffer(col, dtype=col.typecode)
                return out

            return SpanTable(
                names=list(self.names),
                name=by_id("name", np.int64),
                start=by_id("start", np.float64),
                end=by_id("end", np.float64),
                parent=by_id("parent", np.int64),
                thread=by_id("thread", np.int64),
                failed=by_id("failed", bool),
            )
