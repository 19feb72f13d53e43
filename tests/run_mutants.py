"""Run the mutation gate: every mutant of ``tests/mutants.py`` must be killed.

    python tests/run_mutants.py [name substring ...]

Each mutant is applied to a fresh copy of ``src`` in a temporary directory,
and only the tests it names run, against that copy.  A mutant survives when
all of them pass.  First the named tests run on an unchanged copy, where
they must all pass.  Prints each mutant's time and name, then its verdict
with the first failed test, and exits 1 if any mutant survives or its text
is not found exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def run(tests, workdir, mutant=None):
    """(passed, first failure line) of the tests on a copy of ``src``, with
    the mutant applied if one is given."""
    src = Path(workdir) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / "okubo" / mutant["file"]
        text = path.read_text()
        if text.count(mutant["find"]) != 1:
            raise SystemExit(f"{mutant['name']}: text not found exactly once in {mutant['file']}")
        path.write_text(text.replace(mutant["find"], mutant["replace"]))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    check = subprocess.run([sys.executable, "-c", "import okubo; print(okubo.__file__)"],
                           env=env, capture_output=True, text=True, check=True)
    assert check.stdout.strip().startswith(str(src)), check.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or [proc.stdout.strip()[-200:]])[0]


def main(selected):
    mutants = [m for m in MUTANTS if not selected or any(s in m["name"] for s in selected)]
    survivors = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        tests = sorted({t for m in mutants for t in m["tests"]})
        passed, failure = run(tests, workdir)
        if not passed:
            raise SystemExit(f"the named tests fail without a mutant: {failure}")
        for mutant in mutants:
            t0 = time.perf_counter()
            survived, failure = run(mutant["tests"], workdir, mutant)
            verdict = "SURVIVED" if survived else f"killed: {failure[:150]}"
            print(f"{time.perf_counter() - t0:6.1f} s  {mutant['name']}\n  {verdict}", flush=True)
            if survived:
                survivors.append(mutant["name"])
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
