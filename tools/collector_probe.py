"""Print what the cyclic collector collects in each workload's ready-time sample.

    python3 tools/collector_probe.py          # the working tree
    python3 tools/collector_probe.py HEAD~1   # a committed revision

The benchmark's fresh-interpreter medians (``setup_s``, and solve_infer's
``replay_p50_ms``) depend on where ``gc.get_count()`` stands when a worker
reaches its first operation: a collection that falls inside the ready-time
speed sample moves ``setup_s``, and any object made at import time can move
that point.  Run this before and after a change to import-time code or to
chart construction, and compare the lines.

It copies the working tree, or ``git archive REV``, into a temporary
directory, and makes the copy's ``perfbench/worker.py`` run the ready-time
``SPEED.sample()`` between two reads of ``gc.get_count()`` and exit.  The
first read is turned into a string at once, so the tuple is freed and the
probe adds no tracked object before the sample, which runs as it does in
the worker.  It runs each workload's ``primary`` phase as ``run.py`` does:
``PYTHONHASHSEED=0``, seed 3, copy 0 and ``run.ITEMS`` items.  The
compiler's work on the sources moves the count, and a benchmark run may
compile them or load cached bytecode, so it runs every workload under two
settings, each from cleared ``__pycache__`` directories:
``dont-write-bytecode``, with ``PYTHONDONTWRITEBYTECODE=1``, where every
interpreter compiles the sources; and ``write-bytecode``, where the first
workload writes the copy's caches and the later ones load them.  It prints
one line per setting and workload, ``setting workload (gen0, gen1, gen2) ->
(gen0, gen1, gen2) collected``, the counts before and after the sample and
the oldest generation that the sample collected (``gen0``, ``gen1``,
``gen2`` or ``none``, see ``collected``), and writes nothing in the
repository.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKER = Path("perfbench", "worker.py")
# the ready-time sample, which ``setup_s`` is measured up to
ANCHOR = "            SPEED.sample()\n            setup_s = SPEED.scaled(START, ready)\n"
PROBE = ("            import gc; _before = str(gc.get_count()); SPEED.sample(); "
         "print(_before, gc.get_count(), flush=True); raise SystemExit(0)\n")
SEED, COPY = 3, 0
# each setting's label and the environment variables it sets; the
# variables that decide whether and where bytecode is written are unset
# for both first
SETTINGS = (("dont-write-bytecode", {"PYTHONDONTWRITEBYTECODE": "1"}), ("write-bytecode", {}))
BYTECODE_VARIABLES = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def probed(worker: str) -> str:
    """``worker.py``'s text with the probe inserted before the ready-time sample."""
    if worker.count(ANCHOR) != 1:
        raise ValueError(f"the ready-time SPEED.sample() is not found exactly once in {WORKER}")
    return worker.replace(ANCHOR, PROBE + ANCHOR)


def collected(before: tuple[int, int, int], after: tuple[int, int, int]) -> str:
    """The oldest generation collected between two ``gc.get_count()`` reads.

    A collection of generation ``g`` zeroes the counts of the generations
    up to ``g`` and adds one to that of ``g + 1``, and only a collection
    lowers the count of generation 1 or 2 or raises that of 1 or 2.  So a
    lower count 2 means generation 2 was collected; else a higher count 2
    or a lower count 1 means generation 1; else a higher count 1 means
    generation 0.
    """
    if after[2] < before[2]:
        return "gen2"
    if after[2] > before[2] or after[1] < before[1]:
        return "gen1"
    return "gen0" if after[1] > before[1] else "none"


def copy_tree(rev: str | None, dest: Path) -> None:
    if rev is None:
        shutil.copytree(REPO, dest, ignore=shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".work"))
        return
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], capture_output=True, check=True)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision (default: the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="collector-probe-") as tmp:
        tree = Path(tmp, "tree")
        copy_tree(args.rev, tree)
        worker = tree / WORKER
        try:
            worker.write_text(probed(worker.read_text(encoding="utf-8")), encoding="utf-8")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(worker.parent))
        import run  # the copy's workloads and item counts

        base = {k: v for k, v in os.environ.items() if k not in BYTECODE_VARIABLES}
        for label, variables in SETTINGS:
            for cache in list(tree.rglob("__pycache__")):
                shutil.rmtree(cache)
            for workload in run.WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, str(worker), "primary", "--workload", workload, "--seed", str(SEED),
                     "--copy", str(COPY), "--items", str(run.ITEMS[workload]),
                     "--records", str(Path(tmp, "records.json")), "--work", tmp],
                    cwd=tree, env={**base, **variables, "PYTHONHASHSEED": "0"}, capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    print(f"error: {label} {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                          file=sys.stderr)
                    return 1
                before, after = map(ast.literal_eval, re.findall(r"\([^()]*\)", proc.stdout))
                print(label, workload, before, "->", after, collected(before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
