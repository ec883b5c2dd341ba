"""The golden CLI output, certificate bytes and witness table do not depend
on string hashing: the golden checks pass again in a child interpreter under
a fixed ``PYTHONHASHSEED`` other than the one this process drew.  Neither
does the violation that ``is_homomorphism`` names."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_golden_checks_pass_under_a_fixed_hash_seed():
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_golden.py", "tests/test_golden_certs.py", "tests/test_witness_table.py"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout


# Two wrong targets each way: ``x`` steps to p and q, which map to v and w
# that ``u`` does not reach (extra edges), and conversely (missing edges).
HOMOMORPHISM_VIOLATIONS = """
from starchart import Prechart, is_homomorphism
X = Prechart.make(("a",), ("x", "p", "q"), {}, {"x": {"a": ["p", "q"]}}, root="x")
Y = Prechart.make(("a",), ("u", "v", "w"), {}, {}, root="u")
print(is_homomorphism({"x": "u", "p": "v", "q": "w"}, X, Y)[1])
print(is_homomorphism({"u": "x", "v": "p", "w": "q"}, Y, X)[1])
"""


@pytest.mark.parametrize("seed", ["8", "12345"])
def test_homomorphism_violations_name_the_first_successor(seed):
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-c", HOMOMORPHISM_VIOLATIONS],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [
        "HomViolation(reason='extra-edge', state='x', action='a', target='v')",
        "HomViolation(reason='missing-edge', state='u', action='a', target='p')",
    ]
