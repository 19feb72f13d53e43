import json
import subprocess
import sys

import numpy as np
import pytest

from okubo import _kernels, cli
from okubo.algebra import StructureConstantAlgebra
from okubo.cli import main
from okubo.models import build_split_okubo
from okubo.fields import GF


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSubcommands:
    def test_verify(self, capsys):
        code, report = run_cli(capsys, "verify", "--field", "gf(3)", "--trials", "50")
        assert code == 0 and report["passed"]
        assert report["results"]["commutative_center_dim"] == 0
        assert report["results"]["grading_ok"]

    def test_verify_gf4(self, capsys):
        code, report = run_cli(capsys, "verify", "--field", "gf(2^2;t^2+t+1)", "--trials", "50")
        assert code == 0 and report["passed"]

    def test_verify_qw(self, capsys):
        code, report = run_cli(capsys, "verify", "--field", "q(w)", "--trials", "25")
        assert code == 0 and report["passed"]

    def test_models_char_not3(self, capsys):
        code, report = run_cli(capsys, "models", "--field", "gf(7)")
        assert code == 0 and report["passed"]
        assert "sl3" in report["results"]["models_built"]

    def test_models_char3(self, capsys):
        code, report = run_cli(capsys, "models", "--field", "gf(3)")
        assert code == 0 and report["passed"]
        assert "truncated" in report["results"]["models_built"]

    def test_models_no_omega(self, capsys):
        code, report = run_cli(capsys, "models", "--field", "gf(5)")
        assert code == 0 and report["passed"]
        assert report["results"]["models_built"] == ["table"]
        assert "note" in report["results"]

    def test_derivations_gf3(self, capsys):
        code, report = run_cli(capsys, "derivations", "--field", "gf(3)")
        assert code == 0 and report["passed"]
        assert report["results"]["dim_der"] == 10
        assert report["results"]["grading_dims"]["(0,0)"] == 2

    def test_derivations_gf7(self, capsys):
        code, report = run_cli(capsys, "derivations", "--field", "gf(7)")
        assert code == 0 and report["passed"]
        assert report["results"]["dim_der"] == 8
        assert report["results"]["checks"]["der_equals_inner"]

    @pytest.mark.parametrize("field,seed", [("gf(3^2;t^2+1)", "9"), ("gf(7)", "14")])
    def test_derivations_former_seed_tails(self, capsys, field, seed):
        # the slowest seeds over 0-99 when characteristic polynomials were
        # factored by trial division (17.7 s and 1.8 s)
        code, report = run_cli(capsys, "derivations", "--field", field, "--seed", seed)
        assert code == 0 and report["passed"]
        assert report["results"]["simple"] is True

    def test_derivations_gf2_reported_only(self, capsys):
        code, report = run_cli(capsys, "derivations", "--field", "gf(2)")
        assert code == 0 and report["passed"]
        assert report["results"]["checks"] == {}

    def test_census(self, capsys):
        code, report = run_cli(capsys, "census", "--field", "gf(3)")
        assert code == 0 and report["passed"]
        assert report["results"]["total"] == 81
        assert report["results"]["by_type"]["quaternionic"] == 1

    def test_census_wrong_characteristic(self, capsys):
        code, report = run_cli(capsys, "census", "--field", "gf(5)")
        assert code == 2
        assert "BadCharacteristic" in report["error"]

    def test_twist(self, capsys):
        code, report = run_cli(
            capsys, "twist", "--field", "gf(3)",
            "--idempotent", "1,1,1,1,1,1,1,1", "--trials", "100",
        )
        assert code == 0 and report["passed"]

    def test_twist_rejects_non_idempotent(self, capsys):
        code, report = run_cli(
            capsys, "twist", "--field", "gf(3)", "--idempotent", "1,0,0,0,0,0,0,0"
        )
        assert code == 2
        assert "NotIdempotent" in report["error"]

    @pytest.mark.parametrize(
        "field, idempotent, error",
        [
            ("gf(3)", "1,1", "CoordinateCount"),
            ("q", "1/0,0,0,0,0,0,0,0", "BadFieldSpec"),
            ("q", "abc,0,0,0,0,0,0,0", "BadFieldSpec"),
            ("q(w)", "1/0+w,0,0,0,0,0,0,0", "BadFieldSpec"),
        ],
    )
    def test_twist_malformed_idempotent(self, capsys, field, idempotent, error):
        code, report = run_cli(
            capsys, "twist", "--field", field, "--idempotent", idempotent
        )
        assert code == 2
        assert report["error"].startswith(error)

    def test_full_field_budget_checked_before_any_scan(self, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a scan ran before the budget check")

        monkeypatch.setattr(_kernels, "census_codes", no_scan)
        monkeypatch.setattr(_kernels, "census_codes_reference", no_scan)
        code, report = run_cli(
            capsys, "census", "--field", "gf(3)", "--full-field", "gf(11)"
        )
        assert code == 2
        assert "BudgetExceeded" in report["error"]

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_rejected(self, capsys, budget):
        code, report = run_cli(capsys, "census", "--field", "gf(3)", "--budget", budget)
        assert code == 2
        assert "BadOption" in report["error"]

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, report = run_cli(capsys, "verify", "--field", "gf(3)", "--trials", trials)
        assert code == 2
        assert "BadOption" in report["error"]

    @pytest.mark.parametrize("command", ["verify", "twist"])
    @pytest.mark.parametrize("trials", [cli.MAX_TRIALS + 1, 10**8])
    def test_trials_above_cap_rejected_before_any_work(self, capsys, monkeypatch, command, trials):
        def no_work(field):
            raise AssertionError("an algebra was built before the --trials check")

        monkeypatch.setattr(cli, "build_split_okubo", no_work)
        extra = ["--idempotent", "1,1,1,1,1,1,1,1"] if command == "twist" else []
        code, report = run_cli(capsys, command, "--field", "gf(3^2;t^2+1)",
                               "--trials", str(trials), *extra)
        assert code == 2
        assert report["error"] == (f"BadOption: --trials must be between 1 and "
                                   f"{cli.MAX_TRIALS}, got {trials}")
        assert cli.MAX_TRIALS >= 10**4

    @pytest.mark.parametrize("command", ["census", "models", "derivations", "export"])
    def test_trials_rejected_where_unused(self, capsys, tmp_path, command):
        out = tmp_path / "x.json"
        argv = [command, "--field", "gf(3)", "--trials", "5"]
        code, report = run_cli(capsys, *argv, *([str(out)] if command == "export" else []))
        assert code == 2
        assert report["command"] == command
        assert report["error"].startswith("BadOption: ") and "--trials" in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, trials",
        [
            (["verify", "--field", "gf(3)"], 200),
            (["twist", "--field", "gf(3)", "--idempotent", "1,1,1,1,1,1,1,1"], 500),
            (["models", "--field", "gf(5)"], None),
            (["derivations", "--field", "gf(3)"], None),
            (["census", "--field", "gf(3)"], None),
            (["export", "--field", "gf(3)"], None),
        ],
    )
    def test_trials_key(self, capsys, tmp_path, argv, trials):
        out = [str(tmp_path / "x.json")] if argv[0] == "export" else []
        code, report = run_cli(capsys, *argv, *out)
        assert code == 0
        assert report["trials"] == trials

    def test_bad_field_spec(self, capsys):
        code, report = run_cli(capsys, "verify", "--field", "gf(6)")
        assert code == 2
        assert "error" in report

    @pytest.mark.parametrize(
        "argv, command, text",
        [
            (["census", "--field", "gf(3)", "--budget", "1e9"], "census", "--budget"),
            (["verify"], "verify", "--field"),
            (["verify", "--field", "gf(3)", "--seed", "x"], "verify", "--seed"),
            (["verify", "--field", "gf(3)", "--extra", "1"], "verify", "--extra"),
            (["bogus"], None, "bogus"),
            ([], None, "command"),
        ],
    )
    def test_parser_errors_are_json(self, capsys, argv, command, text):
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2
        assert report["command"] == command
        assert report["error"].startswith("BadOption: ") and text in report["error"]
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: okubo")

    def test_parser_built_once(self, capsys):
        parser = cli.build_parser()
        assert main(["bogus"]) == 2
        with pytest.raises(SystemExit):
            main(["twist", "--help"])
        capsys.readouterr()
        assert cli.build_parser() is parser


MIXED_RUN = [
    ["verify", "--field", "gf(3)", "--trials", "10", "--seed", "4"],
    ["twist", "--field", "gf(3)", "--idempotent", "1,0,0,0,0,0,0,0"],
    ["verify", "--field", "gf(3)", "--seed", "x"],
    ["twist", "--field", "gf(3^2;t^2+1)", "--idempotent", "1,1,1,1,1,1,1,1", "--trials", "30"],
    ["census", "--field", "gf(3)", "--trials", "5"],
    ["models", "--field", "gf(7)"],
]


def without_timestamp(text):
    report = json.loads(text)
    report.pop("timestamp", None)
    return report


def test_mixed_run_in_one_process_matches_fresh_processes(capsys):
    # one parser serves every command line of a process, so a run of valid
    # and invalid commands must report what each gives in a process of its own
    in_process = []
    for argv in MIXED_RUN:
        code = main(list(argv))
        in_process.append((code, without_timestamp(capsys.readouterr().out)))
    fresh = []
    for argv in MIXED_RUN:
        proc = subprocess.run([sys.executable, "-m", "okubo.cli", *argv],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, without_timestamp(proc.stdout)))
    assert [code for code, _ in in_process] == [0, 2, 2, 0, 2, 0]
    assert in_process == fresh


class TestExportAndReports:
    def test_export_round_trip(self, capsys, tmp_path):
        out = tmp_path / "okubo.json"
        code, report = run_cli(capsys, "export", "--field", "gf(3)", str(out))
        assert code == 0
        data = out.read_text()
        back = StructureConstantAlgebra.from_json(data)
        assert back.tensor == build_split_okubo(GF(3)).tensor

    def test_json_flag_writes_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report = run_cli(
            capsys, "verify", "--field", "gf(3)", "--trials", "20", "--json", str(path)
        )
        assert code == 0
        on_disk = json.loads(path.read_text())
        assert on_disk["results"] == report["results"]

    def test_export_missing_directory_rejected_before_work(self, capsys, tmp_path, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the algebra was built before the path check")

        monkeypatch.setattr("okubo.cli.build_split_okubo", no_build)
        out = tmp_path / "missing" / "x.json"
        code, report = run_cli(capsys, "export", "--field", "gf(3)", str(out))
        assert code == 2
        assert "OutputError" in report["error"]

    def test_json_missing_directory_rejected(self, capsys, tmp_path):
        path = tmp_path / "missing" / "y.json"
        code, report = run_cli(capsys, "verify", "--field", "gf(3)", "--json", str(path))
        assert code == 2
        assert "OutputError" in report["error"]

    @pytest.mark.parametrize("command", [["verify", "--json"], ["export"]])
    def test_write_failure_is_exit_2(self, capsys, tmp_path, command):
        # the parent directory exists, but the path itself is a directory
        code, report = run_cli(capsys, command[0], "--field", "gf(3)", *command[1:], str(tmp_path))
        assert code == 2
        assert "OutputError" in report["error"]

    def test_results_reproducible_for_fixed_seed(self, capsys):
        _, a = run_cli(capsys, "verify", "--field", "gf(3)", "--seed", "5", "--trials", "30")
        _, b = run_cli(capsys, "verify", "--field", "gf(3)", "--seed", "5", "--trials", "30")
        assert json.dumps(a["results"], sort_keys=True) == json.dumps(b["results"], sort_keys=True)
        _, c = run_cli(capsys, "census", "--field", "gf(3)", "--seed", "5")
        _, d = run_cli(capsys, "census", "--field", "gf(3)", "--seed", "5")
        assert json.dumps(c["results"], sort_keys=True) == json.dumps(d["results"], sort_keys=True)

    def test_report_metadata(self, capsys):
        _, report = run_cli(capsys, "verify", "--field", "gf(3)", "--seed", "3", "--trials", "20")
        assert report["command"] == "verify"
        assert report["field"] == "gf(3)"
        assert report["seed"] == 3
        assert "timestamp" in report
        assert report["backend"] in ("numba", "numpy")


def test_scan_fault_caught_by_dual_pass(capsys, monkeypatch):
    # the main kernel loses one cross term; the reference kernel of the dual
    # pass does not split the tensor, so the census must fail its check
    split = _kernels._split_entries

    def drop_one_cross_term(entries, h):
        pure_hi, pure_lo, cross = split(entries, h)
        return pure_hi, pure_lo, cross[1:]

    monkeypatch.setattr(_kernels, "_split_entries", drop_one_cross_term)
    code, report = run_cli(capsys, "census", "--field", "gf(3)")
    assert code == 1 and not report["passed"]
    assert report["results"]["dual_pass_consistent"] is False


def test_scan_false_hit_reported_as_failed_check(capsys, monkeypatch):
    # a kernel that also returns the non-idempotent basis vector x(1,-1)
    scan = _kernels.census_codes
    monkeypatch.setattr(
        _kernels, "census_codes", lambda *a, **kw: np.concatenate([[1], scan(*a, **kw)])
    )
    code, report = run_cli(capsys, "census", "--field", "gf(3)")
    assert code == 1 and not report["passed"]
    assert report["results"]["dual_pass_consistent"] is False
    false_hit = {"element": ["0"] * 7 + ["1"], "not_idempotent": True}
    assert false_hit in report["results"]["anomalies"]


@pytest.mark.slow
def test_census_full_field_gf7(capsys):
    code, report = run_cli(
        capsys, "census", "--field", "gf(3)", "--full-field", "gf(7)"
    )
    assert code == 0 and report["passed"]
    extra = report["results"]["full_field"]
    assert extra["total"] == 2793
    assert extra["all_norms_one"]
    assert extra["minpoly_at_most_2"]
    assert extra["minpoly_degrees"] == [2]


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "okubo.cli", "verify", "--field", "gf(3)", "--trials", "10"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["passed"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--field", "q", "--trials", "10"], 0),
        (["census", "--field", "gf(3)", "--trials", "5"], 2),
    ],
)
def test_closed_stdout_pipe_is_quiet(argv, code):
    # the reader is gone before the report is written, so every write to
    # the pipe fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "okubo.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait() == code
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
