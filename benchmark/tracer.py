"""Span tracer that wraps the library's public functions from outside.

Each target is a dotted name such as ``prolate_ewald.mesh.forward_density``
or ``prolate_ewald.mesh.TransformProvider.forward``.  A function is replaced
under every name a ``prolate_ewald`` module binds it to, so a call made
through ``prolate_ewald.evaluate.short_range`` is traced as well as one made
through the package.  A method is replaced on its class.  A target that no
longer exists is recorded as absent and skipped.

Spans stay in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

PACKAGE = "prolate_ewald"


class Tracer:
    def __init__(self, targets):
        """``targets`` maps a dotted name to a count function or None.

        A count function takes (args, kwargs, result) and returns a dict of
        counts stored on the span.
        """
        self.targets = dict(targets)
        self.spans = []
        self.absent = []
        self.op = None
        self._stack = []
        self._patches = []
        self._resolved = {}
        for dotted in self.targets:
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
            else:
                self._resolved[dotted] = found

    def install(self, op):
        """Start attributing spans to ``op`` and patch every target."""
        self.op = op
        for dotted, (owner, attr, original) in self._resolved.items():
            wrapped = self._wrap(dotted[len(PACKAGE) + 1:], original,
                                 self.targets[dotted])
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.op = None

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": tracer.op,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                try:
                    span["counts"] = count(args, kwargs, result)
                except Exception as exc:  # a renamed attribute must not stop the run
                    span["count_error"] = repr(exc)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def _resolve(dotted):
    """(owner, attribute, original object) for a dotted target, or None."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        owner = obj
        for attr in parts[split:]:
            owner, obj = obj, getattr(obj, attr, None)
            if obj is None:
                return None
        return owner, parts[-1], obj
    return None


class OpSpans:
    """Duration queries over the spans of one operation."""

    def __init__(self, spans, op):
        self.spans = spans
        self.mine = [k for k, s in enumerate(spans) if s["op"] == op]
        self.children = {k: [] for k in self.mine}
        for k in self.mine:
            if spans[k]["parent"] in self.children:
                self.children[spans[k]["parent"]].append(k)

    def _named(self, name):
        return [k for k in self.mine if self.spans[k]["name"] == name]

    def _dur(self, k):
        return self.spans[k]["end"] - self.spans[k]["start"]

    def total(self, *names):
        return sum(self._dur(k) for name in names for k in self._named(name))

    def calls(self, name, where=lambda span: True):
        return sum(1 for k in self._named(name) if where(self.spans[k]))

    def count(self, name, key):
        return sum(self.spans[k].get("counts", {}).get(key, 0)
                   for k in self._named(name))

    def excluding(self, names, inner):
        """Duration of spans in ``names`` minus their topmost ``inner`` descendants."""
        return sum(self._dur(k) - self._covered(k, inner)
                   for name in names for k in self._named(name))

    def self_time(self, name):
        """Duration of spans named ``name`` minus all their direct children."""
        return sum(self._dur(k) - sum(self._dur(c) for c in self.children[k])
                   for k in self._named(name))

    def _covered(self, k, inner):
        return sum(self._dur(c) if self.spans[c]["name"] in inner
                   else self._covered(c, inner) for c in self.children[k])
