"""Spans around calls into precubical's public module functions.

The tracer replaces module attributes with timing wrappers, so calls made
by the library itself through those attributes (``reductions.run`` from
the greedy scan, ``core.validate`` from ``modelio.parse``) are recorded
too. Nothing under ``src/`` changes: ``uninstall`` puts the originals
back. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def _run_span(args, kwargs):
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "apply")
    return "reductions.check" if mode == "check" else "reductions.apply"


def _check_passed(args, kwargs, result):
    cert = result[1]
    return 1 if cert.all_conditions_hold and cert.fbg_guaranteed else 0


# (module, attribute, span name or function of the call's arguments,
#  function of (args, kwargs, result) giving the span's count or None)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("modelio", "parse", "modelio.parse", lambda a, kw, r: len(a[0] if a else kw["text"])),
    ("modelio", "serialize", "modelio.serialize", None),
    ("modelio", "grid_with_holes", "modelio.grid_with_holes", None),
    ("core", "validate", "core.validate", None),
    ("core", "is_regular", "core.is_regular", None),
    ("core", "are_isomorphic", "core.are_isomorphic", None),
    ("reductions", "run", _run_span, _check_passed),
    ("reductions", "auto_reduce", "reductions.auto_reduce", lambda a, kw, r: len(r[1])),
    ("recipes", "grid_reduction_recipe", "recipes.grid_reduction_recipe", lambda a, kw, r: len(r)),
    ("recipes", "format_recipe", "recipes.format_recipe", None),
    ("recipes", "parse_recipe", "recipes.parse_recipe", None),
    ("fbg", "fundamental_bipartite_graph", "fbg.fundamental_bipartite_graph", None),
    ("fbg", "dihomotopy_classes", "fbg.dihomotopy_classes", lambda a, kw, r: len(r)),
    ("fbg", "enumerate_dipaths", "fbg.enumerate_dipaths", lambda a, kw, r: len(r)),
    ("fbg", "one_skeleton_is_acyclic", "fbg.one_skeleton_is_acyclic", None),
)

SETUP = "setup"


class Tracer:
    """Records [name, start, end, parent index, model id, count] spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.model = SETUP
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, modules):
        for module_name, attr, name, count in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [
                name(args, kwargs) if callable(name) else name,
                perf_counter(), 0.0, stack[-1] if stack else -1, self.model, None,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[5] = count(args, kwargs, result)
                return result
            finally:
                record[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, model, count in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "model": model, "count": count,
                }) + "\n")

    def summary(self):
        """Per span name: calls, total seconds, self seconds and summed
        counts, split into set-up spans and model spans, plus the time
        of each model covered by its top-level spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, model, count in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {
            scope: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            for scope in ("setup", "model")
        }
        covered = defaultdict(float)
        for index, (name, start, end, parent, model, count) in enumerate(self.spans):
            entry = stats["setup" if model == SETUP else "model"][name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if count is not None:
                entry["count"] += count
            if parent < 0:
                covered[model] += end - start
        return stats, covered
