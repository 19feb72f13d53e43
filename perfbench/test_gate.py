"""Checks that the benchmark's correctness gate can fail, and that
BENCHMARK.json names exactly the metrics run.py emits.

    python3 -m pytest -q perfbench/test_gate.py
"""

import contextlib
import copy
import io
import json

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, Gate, commands, expected_facts

CENSUS = ["census", "--field", "gf(3)", "--seed", "0"]
DERIVATIONS = ["derivations", "--field", "gf(7)", "--seed", "0"]


@pytest.fixture(scope="module")
def cli():
    return run.fresh_import()


def _report(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def _gate_one(argv, report, rc=0):
    gate = Gate()
    reasons = gate.check(argv, rc, json.dumps(report))
    return gate, reasons


def test_real_reports_pass(cli):
    for argv in (CENSUS, DERIVATIONS):
        gate, reasons = _gate_one(argv, _report(cli, argv))
        assert reasons == [] and gate.failed_frac == 0.0


def test_tampered_quadratic_count_fails(cli):
    report = _report(cli, CENSUS)
    report["results"]["by_type"]["quadratic"] = 71
    gate, reasons = _gate_one(CENSUS, report)
    assert gate.failed_frac > 0
    assert any("by_type" in r for r in reasons)


def test_tampered_derivation_dimension_fails(cli):
    report = _report(cli, DERIVATIONS)
    report["results"]["dim_der"] = 9
    gate, reasons = _gate_one(DERIVATIONS, report)
    assert gate.failed_frac > 0
    assert any("dim_der" in r for r in reasons)


def test_repeat_with_different_results_fails(cli):
    report = _report(cli, DERIVATIONS)
    changed = copy.deepcopy(report)
    changed["results"]["notes"] = ["an extra note"]
    gate = Gate()
    assert gate.check(DERIVATIONS, 0, json.dumps(report)) == []
    reasons = gate.check(DERIVATIONS, 0, json.dumps(changed))
    assert gate.failed == 1 and gate.attempted == 2
    assert any("differ" in r for r in reasons)


def test_exit_code_and_passed_flag_fail(cli):
    report = _report(cli, CENSUS)
    _, reasons = _gate_one(CENSUS, report, rc=1)
    assert any("exit code" in r for r in reasons)
    report["passed"] = False
    _, reasons = _gate_one(CENSUS, report)
    assert any("passed" in r for r in reasons)
    _, reasons = _gate_one(CENSUS, "not a report")
    assert reasons


def test_every_workload_command_has_expected_facts():
    for workload in WORKLOADS:
        for argv in commands(workload, 7):
            assert expected_facts(argv)


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_tracer_counts_scan_from_program_objects(cli):
    from okubo import _kernels
    from okubo.fields import field_from_spec
    from okubo.models import build_split_okubo

    field = field_from_spec("gf(3)")
    algebra = build_split_okubo(field)
    original = _kernels.census_codes
    tracer = Tracer()
    with tracer:
        tracer.cmd = 0
        codes = _kernels.census_codes(field, algebra.entries, algebra.dim, chunk=1000)
    assert _kernels.census_codes is original
    table = tracer.aggregate(lambda cmd: cmd == 0)
    row = table["kernels.census_codes"]
    itemsize = _kernels.tables_for(field).add.dtype.itemsize
    assert (row["calls"], row["points"], row["hits"]) == (1, 3 ** 8, codes.size)
    assert row["bytes_computed"] == 1000 * (2 * codes.dtype.itemsize + 2 * 8 * itemsize)
    # the counter looks the tables up without making a span of its own
    assert table["kernels.tables_for"]["calls"] == 1
