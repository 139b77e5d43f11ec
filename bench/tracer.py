"""In-memory spans and counters wrapped around a package's functions from outside.

A span records a name, its start and end (perf_counter seconds), the span
that was open when it started, and whether a span of the same name was
already open (so recursive calls are not counted twice in inclusive time).
Spans live in flat arrays until the run ends; `summarize` turns them into
per-name call counts, inclusive time and self time, where a span's self
time is its duration minus the durations of its direct children.  Children
run inside their parent on one thread, so they never overlap.

Wrapping rebinds every reference a package holds to the wrapped function,
because `from .mod import f` copies the binding into the importing module:
patching `mod.f` alone would silently miss those callers.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.outer.append(self._active[nid] == 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int, nid: int) -> None:
        self.end[idx] = perf_counter()
        self._active[nid] -= 1
        self.stack.pop()

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name: str, fn, after=None):
        """fn inside a span; after(args, kwargs, result) runs on normal return."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx, nid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, before=None, after=None):
        """fn without a span; hooks see the call and its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def yield_counted(self, key: str, fn, before=None):
        """A generator function whose yielded items are counted under key."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            counts = self.counts
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch_function(self, package: str, module, attr: str, make_wrapper) -> int:
        """Replace module.attr and every other binding of it inside package."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        hits = 0
        for mod in package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    hits += 1
        return hits

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def uninstall(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def stale_references(self, package: str) -> list[str]:
        """Places in package that still hold a wrapped original function."""
        originals = {id(orig): f"{getattr(orig, '__module__', '?')}.{getattr(orig, '__name__', '?')}"
                     for _, _, orig in self._restore}
        stale = []
        for mod in package_modules(package):
            for key, value in vars(mod).items():
                inner = [value]
                if isinstance(value, dict):
                    inner = list(value.values())
                elif isinstance(value, (list, tuple)):
                    inner = list(value)
                for item in inner:
                    if id(item) in originals:
                        stale.append(f"{mod.__name__}.{key} -> {originals[id(item)]}")
        return stale

    # -- output ---------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["outer", "b"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.outer, self.start, self.end):
                arr.tofile(fh)

    def summarize(self) -> dict[str, dict]:
        return summarize(self.names, self.name, self.parent, self.outer,
                         self.start, self.end)


def package_modules(package: str):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def summarize(names, name, parent, outer, start, end) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds of outermost spans, self seconds."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    out = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0} for nm in names}
    for i in range(n):
        row = out[names[name[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        if outer[i]:
            row["s"] += dur
    return out


def roots(parent) -> list[int]:
    """Index of the top-level ancestor of every span (spans are in start order)."""
    out = []
    for i, p in enumerate(parent):
        out.append(i if p < 0 else out[p])
    return out
