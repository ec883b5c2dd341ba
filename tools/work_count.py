"""Print the Python calls of each workload's operations, primary and replay.

    python3 tools/work_count.py            # the working tree
    python3 tools/work_count.py HEAD~1     # a committed revision
    python3 tools/work_count.py --items 5  # each workload's first 5 inputs

The benchmark's times move with the machine; these counts do not.  Run this
before and after a change to a hot path, and compare the lines: a change
that does less work shows here in about two seconds, with no benchmark run.

It copies the working tree, or ``git archive REV``, into a temporary
directory as ``collector_probe.py`` does, and imports the copy's
``perfbench/worker.py``, ``run`` and ``corpus`` unchanged, one workload per
fresh interpreter with ``PYTHONHASHSEED=0``.  Each of the workload's first
``run.ITEMS`` base inputs, in order and not renamed, goes through
``worker.make_op`` and ``cli.main`` under ``cProfile``, and its answer
through ``worker.check_primary``; then each record that primary emitted goes
through ``worker.replay_call`` under ``cProfile``, and its result through
``worker.replay_ok``.  It prints one line per workload, ``workload
primary_calls replay_calls``, where a count is every call ``cProfile``
sees, built-ins included.  A wrong answer, a failed replay or an exception
exits 1.  It writes nothing in the repository.

Limits: a count shows the direction of a change, and wall time stays the
arbiter of a gain.
- A built-in call counts as one call, whatever it does, so work moved into
  ``sorted`` or a set operation looks cheaper than it is.
- ``cProfile`` does not see slot-wrapper calls such as
  ``object.__setattr__``.  When ``Sum``, ``Seq`` and ``Star`` stopped
  making three such calls per node built, the replay counts stayed at
  38 136 / 74 141 / 146 287, though every replay parses faster.
- Counts differ across Python versions: compare lines from one interpreter.
- Under another hash seed, hash order moves certify_inequiv's count by
  about 0.02%.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
# a child counts one workload: ``count(tree, workload, items)`` from this file
CHILD = "import sys; sys.path.insert(0, sys.argv.pop()); from work_count import count; sys.exit(count(*sys.argv[1:]))"


def count(tree: str, workload: str, items: str) -> int:
    """Print ``workload``'s line for the copy ``tree``, in this interpreter;
    ``items`` of ``-1`` means ``run.ITEMS``."""
    sys.path.insert(0, str(Path(tree, "perfbench")))
    import run
    import worker

    cli = sys.modules["starchart.cli"]
    letters = worker.corpus.BASE_ALPHABET
    n = run.ITEMS[workload] if int(items) < 0 else int(items)
    primary, replay, records = cProfile.Profile(), cProfile.Profile(), []
    for i, item in enumerate(worker.corpus.population(workload, n)):
        argv = worker.make_op(workload, item, letters, Path(tree).parent)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = primary.runcall(cli.main, argv)
        good, record = worker.check_primary(item, letters, code, out.getvalue())
        if not good:
            print(f"error: {workload} item {i}: wrong answer, exit {code}", file=sys.stderr)
            return 1
        if record is not None:
            records.append(record)
    for i, record in enumerate(records):
        if not worker.replay_ok(record, replay.runcall(worker.replay_call(record))):
            print(f"error: {workload} record {i}: replay failed", file=sys.stderr)
            return 1
    print(workload, *(sum(entry.callcount for entry in profile.getstats()) for profile in (primary, replay)))
    return 0


def report(tree: Path, items: int | None) -> int:
    """Print every workload's line for the copy ``tree``, each counted in a
    fresh interpreter; the first error ends the report and is returned."""
    for workload in ("certify_equiv", "certify_inequiv", "solve_infer"):
        proc = subprocess.run(
            # -B: importing this file writes no tools/__pycache__
            [sys.executable, "-B", "-c", CHILD, str(tree), workload, str(-1 if items is None else items), str(TOOLS)],
            cwd=tree, env={**os.environ, "PYTHONHASHSEED": "0"}, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"error: {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        print(proc.stdout.strip(), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision (default: the working tree)")
    parser.add_argument("--items", type=int, help="base inputs per workload (default: run.ITEMS)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # as in the children
    sys.path.insert(0, str(TOOLS))
    from collector_probe import copy_tree

    with tempfile.TemporaryDirectory(prefix="work-count-") as tmp:
        tree = Path(tmp, "tree")
        copy_tree(args.rev, tree)
        return report(tree, args.items)


if __name__ == "__main__":
    sys.exit(main())
