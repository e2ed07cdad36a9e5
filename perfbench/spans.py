"""Span tracer that wraps the public callables of the library's layer modules.

Nothing in the library is edited: ``Tracer.install`` replaces each public
function of a layer module with a timing wrapper, in the defining module and
in every package module that imported it by name (``cli``, ``analysis`` and
``interval_maps`` use ``from ... import``).  Dataclass construction is
counted by wrapping ``__post_init__`` on the class; public methods and
``__str__`` of the layer classes are wrapped too.  Generator functions get
one span per resumption, so the work done between two yields is billed to the
generator and not to its consumer.

Spans nest through an explicit stack.  Every span records its parent's name
and the operation it belongs to; nested spans are aggregated per (operation
kind, name, parent) in memory, because a workload makes millions of calls,
while the root span of each operation is kept whole with its op id.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the summed duration of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("words", "odometers", "word_actions", "trees", "codecs",
          "interval_maps", "analysis", "cli")

PACKAGE = "baire_odometers"
ROOT = "<op>"


class Tracer:
    """Owns the span stack, the aggregates and the patches it installed."""

    def __init__(self) -> None:
        # per (op kind, name, parent): [calls, total seconds, child seconds]
        self.agg: dict[tuple[str, str, str], list] = {}
        self.op_spans: list[tuple[int, str, float, float]] = []
        self._stack: list[list] = [[ROOT, 0.0]]
        self._kind = ""
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _finish(self, name: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += elapsed
        key = (self._kind, name, parent[0])
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += frame[1]

    def _wrap_function(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._finish(name, frame, clock() - start)

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                tracer._stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._finish(name, frame, clock() - start)
                yield item

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def run_op(self, op_id: int, kind: str, call):
        """Run call() as the root span of one operation."""
        self._kind = kind
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.op_spans.append((op_id, kind, start, end))
            del self._stack[1:]

    def spanned_seconds(self) -> float:
        """Summed duration of the outermost layer spans."""
        return self._stack[0][1]

    def reset(self) -> None:
        self.agg.clear()
        self.op_spans.clear()
        self._stack[0][1] = 0.0

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every public callable of every layer module."""
        modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        replace: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    replace[id(obj)] = wrapper
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        owners = [m for name, m in sys.modules.items()
                  if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in owners:
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped_by_perfbench__", None) is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__post_init__":
                label = "init"
            elif attr == "__str__":
                label = "str"
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{label}", obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # ------------------------------------------------------------ output

    def by_name(self) -> dict[str, list]:
        """Aggregate over parents: name -> [calls, total seconds, self seconds]."""
        out: dict[str, list] = {}
        for (_kind, name, _parent), (calls, total, child) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += total - child
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"op_kind": kind, "name": name, "parent": parent, "calls": calls,
                       "total_s": total, "self_s": total - child}
                      for (kind, name, parent), (calls, total, child) in sorted(self.agg.items())],
            "ops": [{"op": op_id, "kind": kind, "start": start, "end": end}
                    for op_id, kind, start, end in self.op_spans],
        }
