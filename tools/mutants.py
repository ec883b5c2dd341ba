"""Mutation analysis of ``src/starchart``: the small edits that no test tells apart.

    python3 tools/mutants.py                            # every site of every module
    python3 tools/mutants.py syntax cli                 # the sites of two modules
    python3 tools/mutants.py --sample 20 --seed 1 cli   # 20 of cli's sites, drawn with seed 1

A mutant is the source with one small edit at one site:
- a comparison swapped: ``==``/``!=``, ``<``/``>=``, ``<=``/``>``,
  ``in``/``not in``, ``is``/``is not``, each operator of a chain apart;
- ``and``/``or``, every operator of one boolean operation;
- a ``not`` dropped;
- a literal ``0``, ``1``, ``True`` or ``False`` flipped (``0``/``1``,
  ``True``/``False``).
Sites are found with ``ast`` and the edit is made in the source text at the
node's offsets, so the rest of the file stays byte for byte as it is.
Annotations hold no site.

A MODULE is a name of ``TESTS`` (``cli``, or ``src/starchart/cli.py``);
none means all of them.  ``--sample N`` draws N of the selected modules'
sites with ``--seed S`` (default 0).

It copies the working tree into a temporary directory, one copy per worker
(two, or one on a one-CPU machine), and writes nothing in the repository.
On the unmutated copy it first runs each selected module's test files and
then the Tier-1 command, and stops if either fails; their times set the
timeouts.  Then, per mutant, it runs the module's test files from ``TESTS``
with ``-x -p no:cacheprovider``; if they all pass, the Tier-1 command
(``python -m pytest --continue-on-collection-errors``, with ``-x -p
no:cacheprovider``) confirms the survivor.  A run that outlives its timeout
(``TIMEOUT_FACTOR`` times the unmutated run, plus ``TIMEOUT_SLACK``
seconds) is killed with its whole process group, and the mutant counts as
killed by a timeout.

It prints one JSON line per mutant as each one ends, in no fixed order::

    {"file": "src/starchart/cli.py", "line": 466, "col": 13, "operator": "is -> is not",
     "killed_by": "tests/test_cli.py::TestCollapseCommand::test_...", "timeout": false, "seconds": 4.1}

``killed_by`` is the first test that failed (a test file when it failed to
collect, ``exit N`` when pytest ended with code N and named no test, or the
test that was running when a timeout struck, null if it struck while the
tests were collected), and null for a survivor of Tier-1; ``seconds`` is
the mutant's wall time, both runs included.  Then it
prints one line per module on stderr: sites, killed, of them by timeout,
and survived.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import json
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = Path("src", "starchart")
# per module, the test files that cover it, those that kill fastest first
TESTS = {
    "__init__": ("tests/test_api.py",),
    "__main__": ("tests/test_cli.py",),
    "bisim": ("tests/test_bisim.py", "tests/test_certify.py", "tests/test_acceptance.py"),
    "cli": ("tests/test_cli.py", "tests/test_certify.py", "tests/test_golden_certs.py", "tests/test_golden.py",
            "tests/test_solve.py", "tests/test_acceptance.py"),
    "formats": ("tests/test_formats.py", "tests/test_golden.py", "tests/test_cli.py"),
    "layering": ("tests/test_layering.py", "tests/test_witness_table.py", "tests/test_census.py",
                 "tests/test_small_scope.py"),
    "rerouting": ("tests/test_rerouting.py", "tests/test_small_scope.py"),
    "semantics": ("tests/test_semantics.py", "tests/test_small_scope.py", "tests/test_bisim.py",
                  "tests/test_golden.py"),
    "solution": ("tests/test_solution.py", "tests/test_solve.py", "tests/test_certify.py"),
    "syntax": ("tests/test_syntax.py", "tests/test_parse_oracle.py", "tests/test_shared_nodes.py",
               "tests/test_golden.py"),
}
PYTEST = ("-m", "pytest", "-x", "-p", "no:cacheprovider", "-v", "-rfE")
TIER1 = ("--continue-on-collection-errors",)
TIMEOUT_FACTOR, TIMEOUT_SLACK = 3, 30
WORKERS = min(2, os.cpu_count() or 1)

SWAPS = {ast.Eq: "!=", ast.NotEq: "==", ast.Lt: ">=", ast.GtE: "<", ast.LtE: ">", ast.Gt: "<=",
         ast.In: "not in", ast.NotIn: "in", ast.Is: "is not", ast.IsNot: "is"}
# each comparison operator as it may be written
SPELLINGS = {ast.Eq: r"==", ast.NotEq: r"!=", ast.Lt: r"<(?!=)", ast.GtE: r">=", ast.LtE: r"<=",
             ast.Gt: r">(?!=)", ast.In: r"(?<![\w.])in\b", ast.NotIn: r"\bnot\s+in\b", ast.Is: r"\bis\b(?!\s+not\b)",
             ast.IsNot: r"\bis\s+not\b"}
FLIPS = {(int, 0): "1", (int, 1): "0", (bool, True): "False", (bool, False): "True"}


class Mutant(NamedTuple):
    file: str  # relative to the tree
    line: int
    col: int
    operator: str  # "== -> !=", "and -> or", "not dropped", "0 -> 1", ...
    edits: tuple[tuple[int, int, bytes], ...]  # (start, end, replacement) byte offsets, in order

    def apply(self, source: bytes) -> bytes:
        for start, end, text in reversed(self.edits):
            source = source[:start] + text + source[end:]
        return source


def sites(source: bytes, file: str) -> list[Mutant]:
    """Every mutant of ``source``, in the order of the text."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def start(node):  # a node's offsets count UTF-8 bytes, as ``source`` does
        return starts[node.lineno - 1] + node.col_offset

    def end(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    def mutant(operator, edits):  # at the first edit's line and column
        line = bisect.bisect_right(starts, edits[0][0])
        return Mutant(file, line, edits[0][0] - starts[line - 1], operator, tuple(edits))

    # no site in an annotation, nor in an f-string, whose nodes' offsets
    # Python 3.11 does not give reliably
    skipped = set()
    for node in ast.walk(tree):
        for part in (getattr(node, "annotation", None), getattr(node, "returns", None),
                     node if isinstance(node, ast.JoinedStr) else None):
            if part is not None:
                skipped.update(map(id, ast.walk(part)))
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for before, op, after in zip([node.left, *node.comparators], node.ops, node.comparators):
                gap = source[end(before):start(after)].decode()
                m = re.search(SPELLINGS[type(op)], gap)
                was = " ".join(m.group().split())
                found.append(mutant(f"{was} -> {SWAPS[type(op)]}",
                                    [(end(before) + m.start(), end(before) + m.end(), SWAPS[type(op)].encode())]))
        elif isinstance(node, ast.BoolOp):
            was, now = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            edits = []
            for before, after in zip(node.values, node.values[1:]):
                m = re.search(rf"\b{was}\b", source[end(before):start(after)].decode())
                edits.append((end(before) + m.start(), end(before) + m.end(), now.encode()))
            found.append(mutant(f"{was} -> {now}", edits))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            m = re.match(rb"not\s*", source[start(node):start(node.operand)])
            found.append(mutant("not dropped", [(start(node), start(node) + m.end(), b"")]))
        elif isinstance(node, ast.Constant) and (flip := FLIPS.get((type(node.value), node.value))):
            found.append(mutant(f"{node.value!r} -> {flip}", [(start(node), end(node), flip.encode())]))
    found.sort(key=lambda m: m.edits[0][0])
    for m in found:  # every mutant is still Python
        ast.parse(m.apply(source))
    return found


def module_of(name: str) -> str:
    """``cli``, ``starchart.cli`` or ``src/starchart/cli.py`` as ``cli``."""
    stem = Path(name).stem if name.endswith(".py") else name.rpartition(".")[2]
    if stem not in TESTS:
        raise ValueError(f"no module {name!r} in {SRC} (one of: {', '.join(TESTS)})")
    return stem


def run_tests(tree: Path, args: tuple[str, ...], timeout: float | None) -> tuple[bool, str | None, bool]:
    """``python args`` in the copy ``tree``: whether it passed, the first test
    that failed (or that ran when the timeout struck), and whether it timed out."""
    for cache in (tree / "src").rglob("__pycache__"):  # a test's subprocess may have cached the last mutant
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": "1"}
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen([sys.executable, *args], cwd=tree, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            out.seek(0)
            running = re.findall(r"^(\S+::.+?) ?(?:PASSED|SKIPPED|XFAIL|XPASS)?\s*(?:\[[ \d]+%\])?$",
                                 out.read().decode(errors="replace"), re.M)
            return False, running[-1] if running else None, True
        out.seek(0)
        failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out.read().decode(errors="replace"), re.M)
    if code == 0:
        return True, None, False
    return False, failed.group(1) if failed else f"exit {code}", False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, metavar="N", help="draw N sites instead of taking all")
    parser.add_argument("--seed", type=int, default=0, metavar="S", help="the seed of the draw (default 0)")
    parser.add_argument("modules", nargs="*", metavar="MODULE", help=f"modules of {SRC} (default: all)")
    args = parser.parse_args(argv)
    try:
        modules = list(dict.fromkeys(map(module_of, args.modules))) or list(TESTS)
    except ValueError as exc:
        parser.error(str(exc))
    lock = threading.Lock()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp, ThreadPoolExecutor(WORKERS) as pool:
        copies = queue.Queue()
        for i in range(WORKERS):
            shutil.copytree(REPO, Path(tmp, str(i)), ignore=shutil.ignore_patterns(
                ".git", ".hypothesis", ".pytest_cache", ".work", "__pycache__"))
            copies.put(Path(tmp, str(i)))
        # the sources as copied: the checkout may change while this runs
        source = {str(SRC / f"{name}.py"): Path(tmp, "0", SRC, f"{name}.py").read_bytes() for name in modules}
        mutants = [m for file, text in source.items() for m in sites(text, file)]
        if args.sample is not None:
            mutants = sorted(random.Random(args.seed).sample(mutants, min(args.sample, len(mutants))),
                             key=lambda m: (list(source).index(m.file), m.edits[0][0]))

        def timed(args, timeout=None, mutant=None):
            tree = copies.get()
            try:
                if mutant is not None:
                    (tree / mutant.file).write_bytes(mutant.apply(source[mutant.file]))
                t0 = time.monotonic()
                return (*run_tests(tree, args, timeout), time.monotonic() - t0)
            finally:
                if mutant is not None:
                    (tree / mutant.file).write_bytes(source[mutant.file])
                copies.put(tree)

        # the unmutated runs must pass; their times set the timeouts
        selected = {Path(m.file).stem for m in mutants}
        runs = {name: (*PYTEST, *TESTS[name]) for name in modules if name in selected}
        baseline = dict(zip([*runs, None], pool.map(timed, [*runs.values(), PYTEST + TIER1])))
        for name, (passed, test, _, seconds) in baseline.items():
            if not passed:
                print(f"error: the unmutated {name or 'Tier-1'} run fails at {test}", file=sys.stderr)
                return 1
        timeout = {name: TIMEOUT_FACTOR * seconds + TIMEOUT_SLACK for name, (*_, seconds) in baseline.items()}

        def judge(m: Mutant):
            name = Path(m.file).stem
            passed, test, timed_out, seconds = timed(runs[name], timeout[name], m)
            if passed:
                passed, test, timed_out, more = timed(PYTEST + TIER1, timeout[None], m)
                seconds += more
            record = {"file": m.file, "line": m.line, "col": m.col, "operator": m.operator,
                      "killed_by": test, "timeout": timed_out, "seconds": round(seconds, 1)}
            with lock:
                print(json.dumps(record), flush=True)
            return name, passed, timed_out

        tally = {name: [0, 0, 0] for name in modules}
        for name, passed, timed_out in pool.map(judge, mutants):
            tally[name][0] += 1
            tally[name][1] += timed_out
            tally[name][2] += passed
    for name, (count, timeouts, survived) in tally.items():
        print(f"{SRC / name}.py: {count} sites, {count - survived} killed ({timeouts} by timeout), "
              f"{survived} survived", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
