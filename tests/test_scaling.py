"""Scaling laws as tests: each operation's growth, pinned by call counts.

Wall time is too noisy to pin, but the number of Python and builtin calls
that ``cProfile`` counts in one operation repeats exactly, once a warm-up
call has run in the process and string hashing is fixed.  So a child
interpreter, under ``PYTHONHASHSEED=0``, counts the calls of each operation
below at n = 25, 50 and 100, on inputs built anew for each call (an
expression carries memos), and the growth exponent from n to 2n, log2 of
the ratio of the counts, must stay within the row's bound: 1.15 for a
linear model, 2.15 for a quadratic one.  A bound that must move is a change
of behaviour, to be listed with the new measurement.

| operation | model | why | bound |
|---|---|---|---|
| ``chart_of`` of ``a^n``, left-nested | quadratic | each of the n derivatives is a word rebuilt by ``expr_step``, up to n nodes long | 2.15 |
| ``certify(a^n, a^(n+1))``, right-nested | quadratic | only round n separates the roots, and the layered decision computes round k on the states within n - k steps | 2.15 |
| replay of that certificate | linear | the formula is a chain of n diamonds, checked on the two charts' n and n + 1 states | 1.15 |
| ``certify(*gen.wstar_pair(n))`` | linear | the normal forms meet: ``e`` is normalised once and shared by ``e + e`` | 1.15 |
| ``gen.local_certify(*gen.wstar_pair(n))`` | quadratic | it walks the charts of both inputs, whose states are derivatives of a left-nested n-letter word, rebuilt as in the first row | 2.15 |
| replay of that certificate | quadratic | replay walks the same charts to check the projections | 2.15 |

``wstar_pair(n)``'s word alternates ``a`` and ``b``, so for even n its
cycle collapses to two states and for odd n to n: from n = 25 to 50 the
last two rows compare different collapses, and only 50 to 100 tests the
model.

The counts come from the profiler's entries per code object, summed:
``pstats`` merges code objects that share a line, such as nested
comprehensions, and keeps one of them in an order that depends on
addresses.  Run ``python tests/test_scaling.py`` to print the counts.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starchart import Atom, Seq, certify, chart_of, recheck_certificate
from gen import local_certify, wstar_pair

ROOT = Path(__file__).resolve().parent.parent
SIZES = (25, 50, 100)
LINEAR, QUADRATIC = 1.15, 2.15


def word(n: int, left: bool):
    """``a^n`` as one atom sequenced n times, left- or right-nested."""
    a = Atom("a")
    w = a
    for _ in range(n - 1):
        w = Seq(w, a) if left else Seq(a, w)
    return w


# per row: its inputs at n, the operation, and the exponent bound
ROWS = {
    "chart_of-left": (lambda n: (word(n, True),), chart_of, QUADRATIC),
    "certify-right": (lambda n: (word(n, False), word(n + 1, False)), certify, QUADRATIC),
    "replay-right": (lambda n: (certify(word(n, False), word(n + 1, False)).to_json(),), recheck_certificate,
                     LINEAR),
    "certify-wstar": (wstar_pair, certify, LINEAR),
    "local-wstar": (wstar_pair, local_certify, QUADRATIC),
    "replay-local-wstar": (lambda n: (local_certify(*wstar_pair(n)).to_json(),), recheck_certificate, QUADRATIC),
}


def calls(op, args) -> int:
    profile = cProfile.Profile()
    profile.runcall(op, *args)
    return sum(entry.callcount for entry in profile.getstats())


def measure() -> dict[str, list[int]]:
    """Per row, the counts at each of ``SIZES`` after a warm-up call, then
    the count at the first size again."""
    counts = {}
    for name, (make, op, _) in ROWS.items():
        op(*make(SIZES[0]))
        counts[name] = [calls(op, make(n)) for n in (*SIZES, SIZES[0])]
    return counts


@pytest.fixture(scope="module")
def counts() -> dict[str, list[int]]:
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run([sys.executable, str(Path(__file__))], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", ROWS)
def test_the_growth_exponent_is_within_the_model(counts, name):
    *at, again = counts[name]
    assert again == at[0], "the counts do not repeat"
    exponents = [math.log2(b / a) for a, b in zip(at, at[1:])]
    assert max(exponents) <= ROWS[name][2], (at, exponents)


if __name__ == "__main__":
    print(json.dumps(measure()))
