#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the okubo CLI.

    python3 perfbench/run.py --workload census_classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of CLI commands (see workloads.py) that one
client sends in a closed loop, in-process through ``okubo.cli.main``, in a
single-threaded process.  Every report is checked by the correctness gate.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: a fresh import of the package plus one cold pass over each
  distinct command, repeated at least three times and for three seconds;
  the median.
* ``wall_s``: the median time to finish the whole command list; the list is
  repeated until ``--seconds`` have passed.
* ``cmd_p50_ms``: the median latency over every command of the timed loop.
* ``peak_rss_mb``: the peak resident memory of the process.

``--trace 1`` imports the package afresh and runs a cold pass traced, then
the list untraced, traced and untraced again.  The tracer (tracer.py) wraps
the package's public functions only while it is active.  Per-layer metrics
come from the spans of the traced list, except the set-up layers
(``models.build_split_okubo.s``, ``kernels.tables_for.s``), which come from
the traced cold pass.  The probes in probes.py run untraced afterwards.
``trace.overhead_s`` is the traced time of the list minus the mean of the
two untraced times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the share of failed commands is
``failed / attempted``.  The full result, with metadata, is written to
``.bench_results/`` at the root of the checkout.
"""

import os

# one thread per process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# imported before any timing: numpy is a dependency, not the program measured
import numpy  # noqa: E402

import probes  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Gate, commands, distinct  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
#: set-up is repeated at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_ms": "ms", "peak_rss_mb": "MB"}

#: per-layer metrics: span name -> the keys reported for it, in the order of
#: the end-to-end metric each should move (classifier, scan, structure, set-up)
LAYER_KEYS = {
    "idempotents.classify_idempotent": ("calls", "self_s"),
    "idempotents.tau_map": ("calls", "self_s"),
    "linalg.Matrix.matmul": ("calls", "self_s"),
    "linalg.nullspace": ("calls", "self_s"),
    "algebra.multiply": ("calls",),
    "kernels.census_codes": ("calls", "s", "points", "hit_ratio", "bytes_computed"),
    "idempotents.minpoly_check_char_not3": ("calls", "self_s"),
    "idempotents.enumerate_idempotents": ("s",),
    "idempotents.census_summary": ("s",),
    "kernels.rref_encoded": ("calls", "s"),
    "linalg.rref": ("calls", "self_s"),
    "liealg.leibniz_system": ("s",),
    "liealg.derivations": ("s",),
    "liealg.is_simple_finite": ("s",),
    "liealg.analyze_derivations": ("s",),
    "algebra.check_symmetric_composition": ("s",),
    "kernels.batch_multiply": ("calls", "rows", "s"),
    "models.build_char3_model": ("s",),
    "models.model_isomorphism_char_not3": ("s",),
    "idempotents.twist_report": ("s",),
    "models.build_split_okubo": ("s",),
    "kernels.tables_for": ("s",),
}
#: layers whose cost is paid in set-up; read from the traced cold pass
SETUP_LAYERS = ("models.build_split_okubo", "kernels.tables_for")
KEY_UNITS = {"calls": "count", "points": "count", "rows": "count",
             "s": "s", "self_s": "s", "hit_ratio": "ratio", "bytes_computed": "B"}

PER_LAYER = {f"{name}.{key}": KEY_UNITS[key]
             for name, keys in LAYER_KEYS.items() for key in keys}
PER_LAYER.update({f"fields.{label}.{op}_ns": "ns"
                  for label in probes.FIELD_PROBES for op in ("add", "mul", "inv")})
PER_LAYER["idempotents.classify_gf9.ms_per_idem"] = "ms"
PER_LAYER["trace.overhead_s"] = "s"


# ---------------------------------------------------------------------------
# driving the program
# ---------------------------------------------------------------------------


class ProgramMissing(Exception):
    pass


def fresh_import():
    """Import okubo.cli from the checkout's src/, discarding any earlier import."""
    if not (SRC / "okubo" / "cli.py").is_file():
        raise ProgramMissing(f"no okubo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "okubo" or n.startswith("okubo.")]:
        del sys.modules[name]
    cli = importlib.import_module("okubo.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"okubo imported from {cli.__file__}, not {SRC}")
    return cli


def run_command(cli, argv, gate):
    """Run one CLI command in-process; gate its report; return its latency."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            rc = "exception: " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    gate.check(argv, rc, out.getvalue())
    return elapsed


def run_list(cli, cmds, gate, latencies=None, tracer=None):
    """Run the command list once, traced if a tracer is given; returns seconds."""
    t0 = time.perf_counter()
    with tracer or contextlib.nullcontext():
        for i, argv in enumerate(cmds):
            if tracer is not None:
                tracer.cmd = i
            dt = run_command(cli, argv, gate)
            if latencies is not None:
                latencies.append(dt)
    return time.perf_counter() - t0


def cold_pass(cmds, gate, tracer=None):
    """Fresh import plus one run of each distinct command; returns (cli, seconds)."""
    t0 = time.perf_counter()
    cli = fresh_import()
    with tracer or contextlib.nullcontext():
        for i, argv in enumerate(distinct(cmds)):
            if tracer is not None:
                tracer.cmd = f"setup:{i}"
            run_command(cli, argv, gate)
    return cli, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def measure(cmds, gate, seconds):
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        cli, dt = cold_pass(cmds, gate)
        setups.append(dt)
    walls, latencies = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(run_list(cli, cmds, gate, latencies))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # per command, so that a seed on which one command is slow shows as such
    by_command = {}
    for i, dt in enumerate(latencies):
        by_command.setdefault(" ".join(cmds[i % len(cmds)]), []).append(dt * 1e3)
    details = {"setup_runs_s": setups, "list_runs_s": walls,
               "command_p50_ms": {c: statistics.median(v) for c, v in by_command.items()},
               "latencies_ms": [t * 1e3 for t in latencies]}
    return metrics, details


def layer_metrics(steady, setup):
    """Per-layer metrics from the aggregated spans of the traced list and of
    the traced cold pass; a layer that was not called reads 0."""
    m = {}
    for name, keys in LAYER_KEYS.items():
        row = (setup if name in SETUP_LAYERS else steady).get(name, {})
        for key in keys:
            m[f"{name}.{key}"] = row.get(key, 0)
    census = steady.get("kernels.census_codes", {})
    points = census.get("points", 0)
    m["kernels.census_codes.hit_ratio"] = census["hits"] / points if points else 0.0
    return m


def trace_run(cmds, gate, seed, spans_path):
    tracer = Tracer()
    cli, _ = cold_pass(cmds, gate, tracer)
    untraced_before = run_list(cli, cmds, gate)
    traced = run_list(cli, cmds, gate, tracer=tracer)
    untraced_after = run_list(cli, cmds, gate)
    untraced = (untraced_before + untraced_after) / 2
    steady = tracer.aggregate(lambda cmd: isinstance(cmd, int))
    setup = tracer.aggregate(lambda cmd: isinstance(cmd, str))
    metrics = layer_metrics(steady, setup)
    field_metrics, field_failed = probes.field_ops(seed)
    metrics.update(field_metrics)
    ms_per_idem, gf9_failed = probes.classify_gf9(seed)
    metrics["idempotents.classify_gf9.ms_per_idem"] = ms_per_idem
    metrics["trace.overhead_s"] = traced - untraced
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    details = {"untraced_wall_s": [untraced_before, untraced_after], "traced_wall_s": traced,
               "spans": len(tracer.spans), "layers": steady, "setup_layers": setup,
               "probe_checks_failed": field_failed + gf9_failed}
    return metrics, details, field_failed + gf9_failed


# ---------------------------------------------------------------------------
# metadata and output
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository; the
    search for a repository stops at the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def emit(result, units):
    for name, value in result["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    payload = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(payload))


def run_workload(args):
    cmds = commands(args.workload, args.seed)
    gate = Gate()
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe_failed = 0
    if args.trace:
        metrics, details, probe_failed = trace_run(cmds, gate, args.seed,
                                                   stem.with_suffix(".spans.jsonl.gz"))
        units = PER_LAYER
    else:
        metrics, details = measure(cmds, gate, args.seconds)
        units = END_TO_END
    result = {
        "correct": gate.failed == 0 and probe_failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record = {"metadata": metadata(args), "result": result,
              "failed_frac": gate.failed_frac, "failures": gate.failures,
              "commands": cmds, "details": details}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"failed_frac = {gate.failed_frac} (of {gate.attempted} commands)")
    emit(result, units)


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {workload} exited {proc.returncode}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric["value"]
            units[f"{workload}.{name}"] = metric["unit"]
    print("== all")
    emit(combined, units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_workload(args)
    except ProgramMissing as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
