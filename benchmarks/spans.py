"""Span tracing of the hambox modules from outside the package.

`Tracer.install` wraps every public function defined in a `hambox` module
and rebinds each name that refers to it, in the defining module and in every
module that imported it, so calls between modules go through the wrapper.
Each call records a span (name, start, end, parent); `geometry.pairwise_iou`
also counts the pairs it computes, the size of its largest matrix and the
share of nonzero entries. Calls inside one module that reach a function
through its module globals are traced too; private helpers are not wrapped,
so their time is their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("geometry", "anchors", "assignment", "mining", "losses", "stats", "simulator", "ingest", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_pairs = name == "geometry.pairwise_iou"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count_pairs:
                self._count_pairs(result)
            return result

        return traced

    def _count_pairs(self, ious: np.ndarray) -> None:
        c = self.counts
        c["geometry.pairwise_iou.pairs"] += ious.size
        c["geometry.pairwise_iou.nonzero"] += int(np.count_nonzero(ious))
        c["geometry.pairwise_iou.max_matrix_mb"] = max(
            c["geometry.pairwise_iou.max_matrix_mb"], ious.size * ious.itemsize / 1e6
        )

    def install(self) -> None:
        modules = [importlib.import_module(f"hambox.{m}") for m in MODULES]
        modules.append(importlib.import_module("hambox"))
        wrappers = {}
        for mod in modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time.

        A span's self time is its duration minus the spans of other modules
        that it called, directly or through functions of its own module; a
        layer is a module, so `ingest.load_wider_annotations` keeps the time
        of the parser it calls in `ingest`.
        """
        foreign = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            if parent >= 0:
                same = name.split(".")[0] == self.spans[parent][0].split(".")[0]
                foreign[parent] += foreign[i] if same else end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), f in zip(self.spans, foreign):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - f
        return dict(out)
