"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each public function of the traced modules (and
a few named methods) with a wrapper that records a span: name, start, end,
parent span and command id.  A function is replaced at every module that
holds a reference to it, so ``nullspace`` is traced whether it is called as
``linalg.nullspace`` or through the name ``idempotents`` imported.
``Tracer.uninstall`` restores every original; ``with tracer:`` does both.

Self time is a span's duration minus the time its child spans cover; child
spans never overlap, because the benchmark runs in one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

PACKAGE = "okubo"
TRACED_MODULES = ("cli", "idempotents", "_kernels", "linalg", "liealg", "algebra",
                  "models", "fields")

#: span name -> (module, class, method) for methods traced besides module functions
TRACED_METHODS = {
    "linalg.Matrix.matmul": ("linalg", "Matrix", "__matmul__"),
    "algebra.multiply": ("algebra", "StructureConstantAlgebra", "multiply"),
    "algebra.check_symmetric_composition":
        ("algebra", "StructureConstantAlgebra", "check_symmetric_composition"),
}

def _untraced(fn):
    """The original of a traced function, so that a counter makes no spans."""
    return fn.__wrapped__ if hasattr(fn, "span_name") else fn


def _census_counts(arguments, result):
    """Points scanned (q^dim), hits, and ``bytes_computed``: the bytes of one
    chunk's candidate arrays in the numpy kernel.  The codes and the output
    buffer are counted at the element size of the returned codes, the digits
    v and the images w at the element size of the field's tables, for
    ``min(chunk, points)`` rows.  Computed from sizes, not measured."""
    field, dim = arguments["field"], arguments["dim"]
    points = field.cardinality ** dim
    tables = _untraced(sys.modules[f"{PACKAGE}._kernels"].tables_for)(field)
    per_row = 2 * result.dtype.itemsize + 2 * dim * tables.add.dtype.itemsize
    return {"points": points, "hits": int(result.size),
            "bytes_computed": min(arguments["chunk"], points) * per_row}


def _batch_counts(arguments, result):
    return {"rows": int(arguments["X"].shape[0])}


#: span name -> function computing counts from (bound arguments, result)
COUNTERS = {
    "kernels.census_codes": _census_counts,
    "kernels.batch_multiply": _batch_counts,
}
#: counts aggregated by their largest value rather than their sum
MAX_COUNTS = ("bytes_computed",)

# span record fields
NAME, START, END, PARENT, CMD, CHILD, COUNTS = range(7)


def _is_public_function(name, obj, module):
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.spans = []
        self.cmd = None
        self._stack = []
        self._patches = []

    # -- wrapping --

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.cmd, 0.0, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - rec[START]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[COUNTS] = counter(bound.arguments, result)
            return result

        traced.span_name = name
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        targets = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in list(vars(module).items()):
                if _is_public_function(name, obj, module):
                    targets[id(obj)] = self._wrap(f"{short.lstrip('_')}.{name}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for span_name, (short, cls_name, meth) in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            self._patch(cls, meth, self._wrap(span_name, vars(cls)[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --

    def aggregate(self, select):
        """Per span name, over the spans whose command id ``select`` accepts:
        calls, inclusive seconds (outermost spans of that name only, so
        recursion is not counted twice), self seconds, and the counts: summed,
        or the largest for those in ``MAX_COUNTS``."""
        spans = self.spans
        table = {}
        for rec in spans:
            if not select(rec[CMD]):
                continue
            row = table.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["self_s"] += dur - rec[CHILD]
            parent = rec[PARENT]
            while parent >= 0 and spans[parent][NAME] != rec[NAME]:
                parent = spans[parent][PARENT]
            if parent < 0:
                row["s"] += dur
            for key, value in (rec[COUNTS] or {}).items():
                old = row.get(key, 0)
                row[key] = max(old, value) if key in MAX_COUNTS else old + value
        return table

    def write(self, path):
        """All spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, rec in enumerate(self.spans):
                row = {"id": i, "name": rec[NAME], "start": rec[START] - t0,
                       "end": rec[END] - t0, "parent": rec[PARENT], "cmd": rec[CMD]}
                if rec[COUNTS]:
                    row["counts"] = rec[COUNTS]
                fh.write(json.dumps(row))
                fh.write("\n")
