"""Print the cyclic collector's counts at each workload's first operation.

    python3 tools/collector_probe.py          # the working tree
    python3 tools/collector_probe.py HEAD~1   # a committed revision

The benchmark's fresh-interpreter medians (``setup_s``, and solve_infer's
``replay_p50_ms``) depend on where ``gc.get_count()`` stands when a worker
reaches its first operation: a collection that falls inside the ready-time
speed sample moves ``setup_s``, and any object made at import time can move
that point.  Run this before and after a change to import-time code or to
chart construction, and compare the lines.

It copies the working tree, or ``git archive REV``, into a temporary
directory, makes the copy's ``perfbench/worker.py`` print ``gc.get_count()``
and exit just before the ready-time ``SPEED.sample()``, and runs each
workload's ``primary`` phase as ``run.py`` does: ``PYTHONHASHSEED=0``, seed
3, copy 0 and ``run.ITEMS`` items.  The compiler's work on the sources moves
the count, and a benchmark run may compile them or load cached bytecode, so
it runs every workload under two settings, each from cleared
``__pycache__`` directories: ``dont-write-bytecode``, with
``PYTHONDONTWRITEBYTECODE=1``, where every interpreter compiles the sources;
and ``write-bytecode``, where the first workload writes the copy's caches
and the later ones load them.  It prints one line per setting and workload,
``setting workload (gen0, gen1, gen2)``, and writes nothing in the
repository.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKER = Path("perfbench", "worker.py")
# the ready-time sample, which ``setup_s`` is measured up to
ANCHOR = "            SPEED.sample()\n            setup_s = SPEED.scaled(START, ready)\n"
PROBE = "            import gc; print(gc.get_count(), flush=True); raise SystemExit(0)\n"
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
                print(label, workload, proc.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
