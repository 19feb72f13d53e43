"""The ``results`` of ``derivations``, ``models`` and ``twist`` at seed 0,
frozen from an earlier version of the program (``golden_results.json``): a
change of backend or algorithm must not change a reported fact."""

import json
from pathlib import Path

import pytest

from okubo import cli

GOLDEN = json.loads((Path(__file__).with_name("golden_results.json")).read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_results_equal_golden(command, capsys):
    assert cli.main(command.split()) == 0
    assert json.loads(capsys.readouterr().out)["results"] == GOLDEN[command]
