"""Command-line front end: reproducible JSON verification reports.

Subcommands:

* ``verify``      -- the symmetric-composition axiom suite for one field
* ``models``      -- build every model available over the field and check the
                     isomorphisms exactly
* ``derivations`` -- derivation-algebra profile (dims, Killing rank, center,
                     simplicity, grading)
* ``census``      -- exhaustive idempotent census with classification
* ``twist``       -- verify the unital twist at a given idempotent
* ``export``      -- write the structure-constant JSON for the algebra

Every run emits one JSON report on stdout with the command, field, seed and
timestamp; rerunning with the same command and seed reproduces the
``results`` object byte for byte.  Exit code 0 means every check passed,
1 that a check failed, and 2 that the request was invalid, including a
command line the parser rejects; an exit-2 report carries a JSON ``error``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone

from . import idempotents, liealg
from .errors import BadOption, OkuboError, OutputError
from .fields import field_from_spec
from .models import (
    build_char3_model,
    build_split_okubo,
    model_isomorphism_char_not3,
)


#: the largest ``--trials``: verify and twist draw the coordinates of every
#: trial before checking any, as one batch in memory
MAX_TRIALS = 10**4


def _field(args):
    return field_from_spec(args.field)


def cmd_verify(args):
    field = _field(args)
    algebra = build_split_okubo(field)
    comp = algebra.check_symmetric_composition(trials=args.trials, seed=args.seed)
    grading_ok = algebra.check_grading()
    center_dim = algebra.commutative_center().dim
    results = {
        "composition": comp.summary(),
        "grading_ok": grading_ok,
        "commutative_center_dim": center_dim,
        "commutative_center_trivial": center_dim == 0,
    }
    passed = comp.passed and grading_ok and center_dim == 0
    return results, passed


def cmd_models(args):
    field = _field(args)
    results = {"models_built": ["table"], "reports": []}
    passed = True
    if field.characteristic == 3:
        _, rep = build_char3_model(field)
        results["models_built"].append("truncated")
        results["reports"].append(rep.summary())
        passed = passed and rep.passed
    else:
        from .fields import cube_root_of_unity

        if cube_root_of_unity(field) is not None:
            _, rep = model_isomorphism_char_not3(field)
            results["models_built"].append("sl3")
            results["reports"].append(rep.summary())
            passed = passed and rep.passed
        else:
            results["note"] = (
                "no cube root of unity: only the multiplication-table model exists"
            )
    return results, passed


def cmd_derivations(args):
    field = _field(args)
    algebra = build_split_okubo(field)
    analysis = liealg.analyze_derivations(algebra, seed=args.seed)
    results = analysis.summary()
    # characteristic 2 dimensions are reported without an asserted expectation
    checks = {}
    if field.characteristic == 3:
        checks["der_dim_expected_10"] = analysis.dim_der == 10
        checks["inner_dim_8"] = analysis.dim_inner == 8
        checks["derived_equals_inner"] = analysis.derived_equals_inner
    elif field.characteristic != 2:
        checks["der_dim_expected_8"] = analysis.dim_der == 8
        checks["der_equals_inner"] = analysis.inner_equals_der
    results["checks"] = checks
    passed = all(checks.values()) if checks else True
    return results, passed


def cmd_census(args):
    algebra = build_split_okubo(_field(args))
    falg = None
    if args.full_field:
        falg = build_split_okubo(field_from_spec(args.full_field))
    # both scans must fit the budget before either runs
    for alg in (algebra, falg):
        if alg is not None:
            idempotents.check_census_budget(alg.field, alg.dim, args.budget)
    summary = idempotents.census_summary(algebra, budget=args.budget)
    results = summary.summary()
    passed = summary.passed
    if falg is not None:
        extra, extra_passed = idempotents.full_field_census(falg, budget=args.budget)
        results["full_field"] = extra
        passed = passed and extra_passed
    return results, passed


def cmd_twist(args):
    field = _field(args)
    algebra = build_split_okubo(field)
    coords = [field.parse(c) for c in args.idempotent.split(",")]
    f = algebra.element(coords)
    report = idempotents.twist_report(algebra, f, trials=args.trials, seed=args.seed)
    return report.summary(), report.passed


def cmd_export(args):
    field = _field(args)
    algebra = build_split_okubo(field)
    _write_text(args.out, algebra.to_json(indent=2))
    results = {
        "path": args.out,
        "dim": algebra.dim,
        "entries": len(algebra.entries),
    }
    return results, True


def _write_text(path, text):
    """Write text and a final newline to path; a failure is an OutputError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are BadOption, so that a malformed
    command line gets a JSON error like any other invalid request."""

    def error(self, message):
        # a subcommand's parser is named "okubo <command>"
        raise BadOption(f"{self.prog}: {message}", command=self.prog.partition(" ")[2] or None)


@functools.lru_cache(maxsize=1)
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every command line can share it."""
    parser = _Parser(
        prog="okubo",
        description="exact verification suite for the split Okubo algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default=None):
        """The options every command takes; ``--trials`` only where a
        default is given, since only verify and twist draw random trials."""
        p.add_argument("--field", required=True, help="gf(3), gf(3^2;t^2+1), q, q(w)")
        p.add_argument("--seed", type=int, default=0)
        if trials_default is not None:
            p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                       help="also write the report to this file")

    p = sub.add_parser("verify", help="symmetric-composition axiom suite")
    common(p, trials_default=200)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("models", help="build models and check the isomorphisms")
    common(p)
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("derivations", help="derivation-algebra profile")
    common(p)
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("census", help="exhaustive idempotent census")
    common(p)
    p.add_argument("--full-field", default=None,
                   help="also run a raw census over this (possibly large) field")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("twist", help="verify the unital twist at an idempotent")
    common(p, trials_default=500)
    p.add_argument("--idempotent", required=True,
                   help="comma-separated coordinates, e.g. 1,1,1,1,1,1,1,1")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("export", help="write the structure-constant JSON")
    common(p)
    p.add_argument("out", help="output path")
    p.set_defaults(fn=cmd_export)

    return parser


def _check_options(args):
    """Reject option values no command can run with, before any work."""
    trials = getattr(args, "trials", None)
    if trials is not None and not 1 <= trials <= MAX_TRIALS:
        raise BadOption(f"--trials must be between 1 and {MAX_TRIALS}, got {trials}")
    if getattr(args, "budget", 1) <= 0:
        raise BadOption(f"--budget must be positive, got {args.budget}")
    for path in (getattr(args, "out", None), args.json_path):
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise OutputError(f"cannot write {path}: no such directory")


def main(argv=None):
    """Run one command line, print its JSON report and return the exit code."""
    text, code = _run(argv)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early (``okubo verify ... | head``):
        # point stdout at devnull, so that the flush at exit stays quiet, and
        # keep the command's own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _run(argv):
    """(report text, exit code) for one command line."""
    args = None
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise BadOption(f"okubo {args.command}: unrecognized arguments: {' '.join(extra)}")
        _check_options(args)
        results, passed = args.fn(args)
        text = _report_text(args, results, passed)
        if args.json_path:
            _write_text(args.json_path, text)
    except OkuboError as exc:
        report = {
            # only the parser raises before args exist
            "command": args.command if args is not None else exc.command,
            "error": f"{type(exc).__name__}: {exc}",
        }
        return json.dumps(report, indent=2, sort_keys=True), 2
    return text, 0 if passed else 1


def _report_text(args, results, passed):
    report = {
        "command": args.command,
        "field": getattr(args, "field", None),
        "seed": getattr(args, "seed", None),
        "trials": getattr(args, "trials", None),
        # a constant: every finite-field kernel runs on numpy; the key stays
        # so that the report's layout does not change
        "backend": "numpy",
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
        "passed": passed,
    }
    return json.dumps(report, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
