"""``tools/mutants.py`` edits the source text at each site, runs a toy tree's
tests on copies of it, and prints one JSON record per mutant."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", REPO / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = '''\
def sign(x: int = 0) -> bool:
    if not x == 0 and x < 0:  # a comment that says "is" and "in"
        return -1
    return 1 if x in (1, 2) or x > 2 else 0


def unused(flag=True):
    return f"{flag is None}" if flag is not None else ""
'''


def test_the_sites_are_the_comparisons_boolean_operators_nots_and_flipped_literals_outside_annotations():
    found = mutants.sites(SOURCE.encode(), "toy.py")
    assert [(m.line, m.col, m.operator) for m in found] == [
        (1, 18, "0 -> 1"), (2, 7, "not dropped"), (2, 13, "== -> !="), (2, 16, "0 -> 1"), (2, 18, "and -> or"),
        (2, 24, "< -> >="), (2, 26, "0 -> 1"), (3, 16, "1 -> 0"), (4, 11, "1 -> 0"), (4, 18, "in -> not in"),
        (4, 22, "1 -> 0"), (4, 28, "or -> and"), (4, 33, "> -> <="), (4, 42, "0 -> 1"), (7, 16, "True -> False"),
        (8, 37, "is not -> is"),
    ]
    lines = SOURCE.splitlines()
    for m in found:  # one line changes, and only at the site
        mutated = m.apply(SOURCE.encode()).decode().splitlines()
        assert [i for i, (a, b) in enumerate(zip(lines, mutated)) if a != b] == [m.line - 1]
        assert mutated[m.line - 1][:m.col] == lines[m.line - 1][:m.col]
    edited = {(m.line, m.col): m.apply(SOURCE.encode()).decode().splitlines()[m.line - 1] for m in found}
    assert edited[2, 7] == "    if x == 0 and x < 0:  # a comment that says \"is\" and \"in\""
    assert edited[4, 18] == "    return 1 if x not in (1, 2) or x > 2 else 0"
    assert edited[8, 37] == "    return f\"{flag is None}\" if flag is None else \"\""


@pytest.mark.parametrize("name", ["cli", "starchart.cli", "src/starchart/cli.py"])
def test_a_module_is_named_by_its_name_or_its_path(name):
    assert mutants.module_of(name) == "cli"


def test_every_module_of_the_package_maps_to_test_files_that_exist():
    assert sorted(mutants.TESTS) == sorted(path.stem for path in (REPO / mutants.SRC).glob("*.py"))
    assert [f for files in mutants.TESTS.values() for f in files if not (REPO / f).is_file()] == []


def test_an_unknown_module_is_refused():
    with pytest.raises(ValueError, match="no module 'toy'"):
        mutants.module_of("toy")


TOY = '''\
def negative(x):
    return x < 0


def spin(n):
    while n:
        n -= 1
'''
TOY_TESTS = '''\
from starchart.toy import negative, spin


def test_negative():
    assert [negative(-2), negative(3)] == [True, False]


def test_spin():
    spin(3)
'''


def test_a_run_prints_one_record_per_mutant_and_leaves_the_tree_as_it_was(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "starchart").mkdir(parents=True)
    (tmp_path / "src" / "starchart" / "__init__.py").write_text("")
    (tmp_path / "src" / "starchart" / "toy.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TESTS)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    monkeypatch.setattr(mutants, "REPO", tmp_path)
    monkeypatch.setattr(mutants, "TESTS", {"toy": ("tests/test_toy.py",)})
    # the mutant that loops for ever is stopped within a few seconds
    monkeypatch.setattr(mutants, "TIMEOUT_FACTOR", 1)
    monkeypatch.setattr(mutants, "TIMEOUT_SLACK", 3)
    assert mutants.main(["--sample", "5", "--seed", "0", "src/starchart/toy.py"]) == 0
    out, err = capsys.readouterr()
    records = sorted((json.loads(line) for line in out.splitlines()), key=lambda r: (r["line"], r["col"]))
    for r in records:
        assert list(r) == ["file", "line", "col", "operator", "killed_by", "timeout", "seconds"]
        assert r.pop("file") == "src/starchart/toy.py" and r.pop("seconds") > 0
    # killed, survived (``x < 1`` holds at -2 and fails at 3 too), and killed by a timeout
    assert [tuple(r.values()) for r in records] == [
        (2, 13, "< -> >=", "tests/test_toy.py::test_negative", False), (2, 15, "0 -> 1", None, False),
        (7, 13, "1 -> 0", "tests/test_toy.py::test_spin", True),
    ]
    assert err == "src/starchart/toy.py: 3 sites, 2 killed (1 by timeout), 1 survived\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
