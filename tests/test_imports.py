"""Importing the command line pulls in no optional package and builds no
array: a benchmark's cold pass imports the package again and again, and each
discarded copy keeps whatever its modules hold."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import numpy as np
import okubo.cli
optional = sorted(m for m in ("sympy", "scipy", "numba") if m in sys.modules)
held = sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items())
    if name == "okubo" or name.startswith("okubo.")
    for attr, value in vars(module).items()
    if isinstance(value, np.ndarray)
    or isinstance(value, (list, tuple, dict))
    and any(isinstance(v, np.ndarray) for v in (value.values() if isinstance(value, dict) else value))
)
print(json.dumps({"optional": optional, "held": held}))
"""


def test_cli_import_is_lean():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"optional": [], "held": []}
