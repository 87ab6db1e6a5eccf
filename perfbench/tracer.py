"""In-memory span tracer that wraps a package's functions from outside.

A wrapper replaces the target function in every loaded module of the
package that bound it by name (``from .x import f`` makes a second binding),
so calls through any of those names are traced.  Each thread keeps its own
span stack and its own totals, so spans opened on worker threads are
counted without locks and merged when the run ends.  A span's self time is
its duration minus the time of the spans it directly caused on the same
thread.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array


class _ThreadState:
    """Span stack, totals and span log of one thread."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack: list[list] = []  # [name id, start ns, child ns, span index]
        self.calls: dict[int, int] = {}
        self.total_ns: dict[int, int] = {}
        self.self_ns: dict[int, int] = {}
        self.keys: dict[int, set] = {}
        self.counts: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter_ns):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._register = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # --- spans and counters ------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._register:
                self._states.append(state)
        return state

    def enter(self, name_id: int, key=None) -> _ThreadState:
        state = self._state()
        parent = state.stack[-1][3] if state.stack else -1
        index = len(state.span_name)
        state.span_name.append(name_id)
        state.span_parent.append(parent)
        state.span_start.append(0)
        state.span_end.append(0)
        if key is not None:
            state.keys.setdefault(name_id, set()).add(key)
        start = self.clock()
        state.span_start[index] = start
        state.stack.append([name_id, start, 0, index])
        return state

    def exit(self, state: _ThreadState) -> None:
        end = self.clock()
        name_id, start, child_ns, index = state.stack.pop()
        state.span_end[index] = end
        duration = end - start
        state.calls[name_id] = state.calls.get(name_id, 0) + 1
        state.total_ns[name_id] = state.total_ns.get(name_id, 0) + duration
        state.self_ns[name_id] = state.self_ns.get(name_id, 0) + duration - child_ns
        if state.stack:
            state.stack[-1][2] += duration

    def count(self, counter: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[counter] = counts.get(counter, 0) + amount

    # --- installing wrappers ----------------------------------------------

    def _rebind(self, original, wrapper) -> int:
        """Replace ``original`` in every loaded module of the package."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    bound += 1
        return bound

    def _lookup(self, module_name: str, attr: str):
        module = sys.modules.get(module_name)
        target = getattr(module, attr, None) if module is not None else None
        if target is None:
            self.absent.append(f"{module_name}.{attr}")
        return target

    def wrap_function(self, module_name: str, attr: str, span: str,
                      key=None, on_result=None, nested=None) -> bool:
        """Trace calls of ``module_name.attr`` under span name ``span``.

        ``key(*args, **kwargs)`` gives a hashable identity for counting
        distinct calls; ``on_result(result, *args, **kwargs)`` may record
        counters; ``nested`` maps a counter to a span name, and the counter
        adds up the calls of that span made inside this one.  Returns False,
        and records the target as absent, when it does not exist.
        """
        original = self._lookup(module_name, attr)
        if original is None:
            return False
        wrapper = self._make_wrapper(original, span, key, on_result, nested)
        self._rebind(original, wrapper)
        return True

    def wrap_method(self, module_name: str, class_name: str, attr: str,
                    span: str, key=None, on_result=None) -> bool:
        """Trace a method or classmethod defined on a class."""
        cls = self._lookup(module_name, class_name)
        if cls is None:
            return False
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.absent.append(f"{module_name}.{class_name}.{attr}")
            return False
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._make_wrapper(raw.__func__, span, key, on_result))
        else:
            wrapped = self._make_wrapper(raw, span, key, on_result)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)
        return True

    def wrap_generator(self, module_name: str, attr: str, span: str,
                       on_item=None) -> bool:
        """Trace each ``next()`` of a generator function as its own span.

        The span closes before the item is handed to the consumer, so the
        consumer's work between items is not counted as the generator's.
        """
        original = self._lookup(module_name, attr)
        if original is None:
            return False
        name_id = self.name_id(span)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                state = tracer.enter(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(state)
                if on_item is not None:
                    on_item(item)
                yield item

        self._rebind(original, wrapper)
        return True

    def patch_attribute(self, module_name: str, attr: str, replacement) -> bool:
        """Replace one module attribute (e.g. an imported module) as is."""
        module = sys.modules.get(module_name)
        if module is None or not hasattr(module, attr):
            self.absent.append(f"{module_name}.{attr}")
            return False
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)
        return True

    def _make_wrapper(self, original, span, key, on_result, nested=None):
        name_id = self.name_id(span)
        inner = [(counter, self.name_id(name)) for counter, name in (nested or {}).items()]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = tracer.enter(
                name_id, key(*args, **kwargs) if key is not None else None
            )
            # a thread's calls inside this span are the ones made meanwhile
            before = [state.calls.get(i, 0) for _counter, i in inner]
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(state)
            for (counter, i), calls in zip(inner, before):
                state.counts[counter] = state.counts.get(counter, 0) + state.calls.get(i, 0) - calls
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self ns, distinct keys; counters."""
        spans: dict[str, dict] = {}
        counters: dict[str, int] = {}
        for state in self._states:
            for name_id, calls in state.calls.items():
                row = spans.setdefault(
                    self.names[name_id],
                    {"calls": 0, "total_ns": 0, "self_ns": 0, "keys": set()},
                )
                row["calls"] += calls
                row["total_ns"] += state.total_ns[name_id]
                row["self_ns"] += state.self_ns[name_id]
                row["keys"] |= state.keys.get(name_id, set())
            for counter, amount in state.counts.items():
                counters[counter] = counters.get(counter, 0) + amount
        for row in spans.values():
            row["distinct"] = len(row.pop("keys"))
        return {"spans": spans, "counters": counters}

    def write_spans(self, path) -> int:
        """Write every span as ``thread index parent name start_ns end_ns``."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("thread\tindex\tparent\tname\tstart_ns\tend_ns\n")
            for number, state in enumerate(self._states):
                for i in range(len(state.span_name)):
                    fh.write(
                        f"{number}\t{i}\t{state.span_parent[i]}\t"
                        f"{self.names[state.span_name[i]]}\t"
                        f"{state.span_start[i]}\t{state.span_end[i]}\n"
                    )
                    written += 1
        return written

