"""The mutation gate's registry follows the code: each registered text occurs
exactly once in its file, so ``tests/run_mutants.py`` can make every mutant."""

from pathlib import Path

import pytest

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "okubo"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_registered_text_occurs_once(mutant):
    assert (PACKAGE / mutant["file"]).read_text().count(mutant["find"]) == 1
    assert mutant["replace"] != mutant["find"] and mutant["tests"]
