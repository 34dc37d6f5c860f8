"""Per-layer tracing of primspec from outside the package.

The tracer wraps the public functions of each layer module, and the public
methods of the classes those modules define, without editing the program.
A wrapped callable is rebound at every attribute of every loaded
``primspec`` module that holds it, because ``cli`` and ``classify`` import
names with ``from .x import y`` and would otherwise keep calling the
original.

Timed callables record one span per call (name, start, end, parent span,
op id) in flat in-memory arrays.  Callables in ``COUNT_ONLY`` are called
so often that timing each call would distort the run, so they only bump a
counter; their time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("rings", "ideals", "spectra", "topology", "classify", "report", "cli", "zsymbolic")

# Called tens of thousands of times per op: counted, never timed.
COUNT_ONLY = frozenset(
    {
        "ideals.IdealLattice.id_of",
        "ideals.IdealLattice.render",
        "ideals.iter_bits",
        "zsymbolic.is_probable_prime",
    }
)

# Constant-time accessors that neither count nor time anything useful; wrapping
# them would only add overhead.
SKIP = frozenset(
    {
        "ideals.IdealLattice.mask",
        "ideals.IdealLattice.contains_ideal",
        "ideals.IdealLattice.radical_id",
        "ideals.IdealLattice.nilradical_id",
        "ideals.mask_of",
        "spectra.Spectrum.all_points",
        "spectra.Spectrum.render_point",
        "spectra.Spectrum.render_point_set",
        "spectra.Spectrum.variety",
    }
)

# Dunder methods that do a layer's work rather than plain construction.
EXTRA_METHODS = frozenset({"ideals.IdealLattice.__init__"})


class Spans:
    """Flat span arrays; span i has name names[name_ids[i]]."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def add(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        """Append one finished span; used by tests to build synthetic trees."""
        self.name_ids.append(self.name_id(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.name_ids) - 1

    def __len__(self) -> int:
        return len(self.name_ids)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans come from one thread, so children of one parent never overlap
        and their durations can simply be summed.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def inclusive(self, names: set[str]) -> float:
        """Total duration of spans named in ``names`` that have no ancestor
        named in ``names``, so nested calls are not counted twice."""
        wanted = {self._name_index[n] for n in names if n in self._name_index}
        total = 0.0
        for i, nid in enumerate(self.name_ids):
            if nid not in wanted:
                continue
            parent = self.parents[i]
            while parent >= 0 and self.name_ids[parent] not in wanted:
                parent = self.parents[parent]
            if parent < 0:
                total += self.ends[i] - self.starts[i]
        return total

    def summary(self) -> dict[str, float]:
        """``<name>.self_ms`` totals and ``<name>.calls`` counts per span name."""
        out: dict[str, float] = Counter()
        for nid, own in zip(self.name_ids, self.self_times()):
            name = self.names[nid]
            out[f"{name}.self_ms"] += own * 1000.0
            out[f"{name}.calls"] += 1
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.name_ids),
                    "start": list(self.starts),
                    "end": list(self.ends),
                    "parent": list(self.parents),
                    "op": list(self.ops),
                },
                fh,
            )


def _targets(modules: dict[str, object]):
    """(traced name, owner, attribute, callable) for every wrappable callable."""
    for layer in LAYERS:
        module = modules[f"primspec.{layer}"]
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj) and not attr.startswith("_"):
                for meth, fn in vars(obj).items():
                    name = f"{layer}.{attr}.{meth}"
                    public = not meth.startswith("_") or name in EXTRA_METHODS
                    if public and inspect.isfunction(fn):
                        yield name, obj, meth, fn


class Tracer:
    """Installs span and count wrappers on primspec; ``remove`` undoes them."""

    def __init__(self):
        self.spans = Spans()
        self._ticks: dict[str, itertools.count] = {}
        self._reads: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = spans.name_id(name)

        def wrapper(*args, **kwargs):
            span = len(spans.name_ids)
            spans.name_ids.append(nid)
            spans.parents.append(stack[-1])
            spans.ops.append(self.op_id)
            spans.ends.append(0.0)
            stack.append(span)
            spans.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.ends[span] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        # itertools.count ticks in C, at about half the cost of a dict update
        tick = self._ticks.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def counts(self) -> dict[str, int]:
        """Calls of each counted callable so far."""
        out = {}
        for name, ticks in self._ticks.items():
            out[name] = next(ticks) - self._reads[name]  # next() itself ticks once
            self._reads[name] += 1
        return out

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "primspec" or name.startswith("primspec.")
        }
        replaced: dict[int, object] = {}
        for name, owner, attr, fn in _targets(modules):
            if name in SKIP:
                continue
            if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
                wrapper = self._counted(name, fn)
            else:
                wrapper = self._timed(name, fn)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if not inspect.isclass(owner):
                replaced[id(fn)] = (fn, wrapper)
        # Methods are looked up on their class; module-level functions may also
        # be bound under other modules' names, so rebind those too.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def op_span(self, op_id: int, call):
        """Run ``call()`` as the root span of op ``op_id``; return its result."""
        self.op_id = op_id
        return self._timed("op", call)()
