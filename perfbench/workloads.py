"""The benchmark's workloads and the correctness gate applied to every report.

A workload is a fixed list of CLI argument vectors, made from the workload
seed alone.  The gate checks each report the CLI prints: the exit code, the
report's own ``passed`` flag, the seed-independent facts the paper states,
and that a repeat of an argument vector reproduces the first ``results``
byte for byte.
"""

from __future__ import annotations

import json
import random

FIELDS = ("gf(3)", "gf(7)", "gf(3^2;t^2+1)", "q(w)")
TWIST_FIELDS = ("gf(3)", "gf(3^2;t^2+1)")
ALL_ONES = ",".join(["1"] * 8)

#: census commands per list, structure sweeps per list
CLASSIFY_REPEATS = 15
SCAN_REPEATS = 2
STRUCTURE_SWEEPS = 4

WORKLOADS = ("census_classify", "census_scan", "structure")


def commands(workload, seed):
    """The workload's fixed command list for one seed."""
    s = ["--seed", str(seed)]
    if workload == "census_classify":
        return [["census", "--field", "gf(3)", *s]] * CLASSIFY_REPEATS
    if workload == "census_scan":
        return [["census", "--field", "gf(3)", "--full-field", "gf(7)", *s]] * SCAN_REPEATS
    if workload == "structure":
        sweep = [[cmd, "--field", f, *s] for cmd in ("verify", "models", "derivations")
                 for f in FIELDS]
        sweep += [["twist", "--field", f, "--idempotent", ALL_ONES, *s] for f in TWIST_FIELDS]
        rng = random.Random(seed)
        out = []
        for _ in range(STRUCTURE_SWEEPS):
            order = list(sweep)
            rng.shuffle(order)
            out += order
        return out
    raise ValueError(f"unknown workload {workload!r}")


def distinct(cmds):
    """The distinct argument vectors of a command list, in first-seen order."""
    seen = {}
    for argv in cmds:
        seen.setdefault(tuple(argv), list(argv))
    return list(seen.values())


# ---------------------------------------------------------------------------
# seed-independent facts
# ---------------------------------------------------------------------------

_CENSUS_GF3 = {
    "total": 81,
    "by_type": {"quaternionic": 1, "quadratic": 72, "singular": 8},
    "quaternionic_witness": ["1"] * 8,
    "quaternionic_is_distinguished": True,
    "anomalies": [],
    "all_norms_one": True,
    "dual_pass_consistent": True,
}

_FULL_GF7 = {
    "full_field.total": 2793,
    "full_field.all_norms_one": True,
    "full_field.minpoly_degrees": [2],
    "full_field.minpoly_at_most_2": True,
}

_DERIVATIONS_CHAR3 = {"dim_der": 10, "dim_inner": 8, "dim_derived": 8, "center_dim": 0,
                      "killing_rank": 0, "simple": True}
_DERIVATIONS_GF7 = {"dim_der": 8, "dim_inner": 8, "dim_derived": 8, "center_dim": 0,
                    "killing_rank": 8, "simple": True}
_DERIVATIONS_QW = {"dim_der": 8, "dim_inner": 8, "dim_derived": 8, "center_dim": 0,
                   "killing_rank": 8, "simple": None}

_TWIST = {"unit_ok": True, "norm_multiplicative_basis_ok": True, "recovery_ok": True,
          "alternative_ok": True, "alternative_trials": 500}


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def expected_facts(argv):
    """Dotted ``results`` paths and the value each must hold for this command."""
    cmd, field = argv[0], _option(argv, "--field")
    char3 = field in ("gf(3)", "gf(3^2;t^2+1)")
    if cmd == "census":
        facts = dict(_CENSUS_GF3)
        if _option(argv, "--full-field") == "gf(7)":
            facts.update(_FULL_GF7)
        return facts
    if cmd == "verify":
        return {"composition.passed": True, "grading_ok": True, "commutative_center_dim": 0}
    if cmd == "models":
        second = "truncated" if char3 else "sl3"
        return {"models_built": ["table", second], "reports.0.passed": True}
    if cmd == "derivations":
        if char3:
            return _DERIVATIONS_CHAR3
        return _DERIVATIONS_GF7 if field == "gf(7)" else _DERIVATIONS_QW
    if cmd == "twist":
        return _TWIST
    raise ValueError(f"no expected facts for {argv}")


def _lookup(results, path):
    node = results
    for key in path.split("."):
        if isinstance(node, list):
            node = node[int(key)] if key.isdigit() and int(key) < len(node) else None
        elif isinstance(node, dict):
            node = node.get(key)
        else:
            return None
    return node


class Gate:
    """Counts commands attempted and failed, and says why each failure failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._first_results = {}

    def check(self, argv, rc, stdout):
        """Gate one command's exit code and printed report; returns the reasons."""
        self.attempted += 1
        reasons = []
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            report = None
        if rc != 0:
            reasons.append(f"exit code {rc}")
        if not isinstance(report, dict) or "results" not in report:
            reasons.append("no JSON report with results")
        else:
            results = report["results"]
            if report.get("passed") is not True:
                reasons.append(f"passed = {report.get('passed')!r}")
            for path, want in expected_facts(argv).items():
                got = _lookup(results, path)
                if got != want:
                    reasons.append(f"{path} = {got!r}, expected {want!r}")
            canon = json.dumps(results, sort_keys=True)
            first = self._first_results.setdefault(tuple(argv), canon)
            if canon != first:
                reasons.append("results differ from the first run of this command")
        if reasons:
            self.failed += 1
            self.failures.append({"argv": list(argv), "reasons": reasons})
        return reasons

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0
