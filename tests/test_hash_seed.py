"""The golden CLI output and certificate bytes do not depend on string
hashing: both golden checks pass again in a child interpreter under a fixed
``PYTHONHASHSEED`` other than the one this process drew."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_checks_pass_under_a_fixed_hash_seed():
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_golden.py", "tests/test_golden_certs.py"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout
