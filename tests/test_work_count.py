"""``tools/work_count.py`` prints call counts that repeat, writes nothing in
the repository, and stops on a wrong answer."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "work_count.py"
_spec = importlib.util.spec_from_file_location("work_count", TOOL)
work_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_count)


def _files() -> list[Path]:
    return sorted(p for p in REPO.rglob("*") if ".git" not in p.parts)


def test_two_runs_print_the_same_counts_and_write_nothing_in_the_repository():
    before = _files()
    runs = [subprocess.run([sys.executable, str(TOOL), "--items", "4"], capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["certify_equiv", "certify_inequiv", "solve_infer"]
    assert all(re.fullmatch(r"\S+ [1-9]\d* [1-9]\d*", line) for line in lines)
    assert _files() == before


def test_a_wrong_answer_exits_nonzero(tmp_path, capsys):
    # the copy's ``certify`` calls a pair whose normal forms meet inequivalent
    tree = tmp_path / "tree"
    for part in ("src", "perfbench", "tests"):
        shutil.copytree(REPO / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    cli = tree / "src" / "starchart" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    proved = 'Certificate("equivalent", e, f, alpha, [check], proof=NORMAL_FORMS)'
    assert text.count(proved) == 1
    cli.write_text(text.replace(proved, proved.replace('"equivalent"', '"inequivalent"')), encoding="utf-8")
    assert work_count.report(tree, 2) == 1
    out, err = capsys.readouterr()
    assert out == "" and "certify_equiv item 0: wrong answer" in err
