"""Layer probes that time one operation directly, outside any CLI command.

* ``field_ops``: ns per ``Scalar`` add, mul and inverse on seeded nonzero
  operands, for a prime field, an extension field and Q(omega).  The loop
  overhead of iterating the operand pairs is included.
* ``classify_gf9``: ms per ``classify_idempotent`` call on a seeded sample
  of GF(9) idempotents found by slice search; it predicts the full GF(9)
  census without running it.

Each probe also checks its own results and returns how many checks failed.
"""

from __future__ import annotations

import random
import statistics
import time

FIELD_PROBES = {"gf3": "gf(3)", "gf9": "gf(3^2;t^2+1)", "qw": "q(w)"}
OPERANDS = 20000
REPEATS = 5
GF9_SAMPLE = 32


def _ns_per_op(fn, pairs):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(pairs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(pairs) * 1e9


def _add(pairs):
    for a, b in pairs:
        a + b


def _mul(pairs):
    for a, b in pairs:
        a * b


def _inv(pairs):
    for a, _ in pairs:
        a.inverse()


def field_ops(seed):
    """Returns (metrics, failed checks)."""
    from okubo.fields import field_from_spec

    metrics = {}
    failed = 0
    for label, spec in FIELD_PROBES.items():
        field = field_from_spec(spec)
        rng = random.Random(seed)
        pairs = []
        while len(pairs) < OPERANDS:
            a, b = field.random_scalar(rng), field.random_scalar(rng)
            if a and b:
                pairs.append((a, b))
        for op, fn in (("add", _add), ("mul", _mul), ("inv", _inv)):
            metrics[f"fields.{label}.{op}_ns"] = _ns_per_op(fn, pairs)
        one = field.one
        failed += sum(1 for a, b in pairs[:200]
                      if a * a.inverse() != one or (a + b) - b != a)
    return metrics, failed


def classify_gf9(seed):
    """Returns (ms per classified idempotent, failed checks)."""
    from okubo import idempotents
    from okubo.errors import ClassificationAnomaly
    from okubo.fields import field_from_spec
    from okubo.models import build_split_okubo

    algebra = build_split_okubo(field_from_spec("gf(3^2;t^2+1)"))
    sample = idempotents.find_idempotents_slice_search(algebra, GF9_SAMPLE, seed=seed)
    known = {idempotents.QUATERNIONIC, idempotents.QUADRATIC, idempotents.SINGULAR}
    failed = GF9_SAMPLE - len(sample)
    tags = []
    t0 = time.perf_counter()
    for f in sample:
        try:
            tags.append(idempotents.classify_idempotent(algebra, f).type_tag)
        except ClassificationAnomaly:
            tags.append(None)
    elapsed = time.perf_counter() - t0
    failed += sum(1 for tag in tags if tag not in known)
    return elapsed / max(len(sample), 1) * 1e3, failed
