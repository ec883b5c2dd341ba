"""``starchart solve`` on state numbers: the chart document's one reader,
the inferred witness's numbered path, and its agreement with the named
constructions (``infer_witness``, ``canonical_solution``) that it skips."""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from starchart import Prechart, canonical_solution, chart_of, infer_witness, render
from starchart import cli, layering, semantics, solution
from starchart.cli import main
from starchart.formats import chart_from_json, chart_to_json, state_ids, witness_to_json
from starchart.layering import LabelledPrechart
from test_golden import RECORDED, run_case
from test_layering import erased
from gen import fig3_right, random_expr


def run(tmp_path, *argv, files=None):
    """``(exit code, stdout, stderr)`` of ``main``, with each of ``files``
    written as JSON and its ``{name}`` in ``argv`` replaced by its path."""
    paths = {}
    for name, doc in (files or {}).items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**{k: str(p) for k, p in paths.items()}) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def oracle_charts() -> list[Prechart]:
    """300 erased charts of expressions of depth 3 to 5 over two and three
    actions, every other one joined with a disjoint ``fig3_right``, which
    has no layering witness.  Expressions with more than 37 states are
    skipped, to keep the named oracle quick."""
    rng = random.Random(4303)
    charts: list[Prechart] = []
    while len(charts) < 300:
        alphabet = ("a", "b", "c")[:rng.choice((2, 3))]
        X = chart_of(random_expr(rng, alphabet, depth=rng.randint(3, 5)), alphabet)
        if len(X.states) > 37:
            continue
        charts.append(erased(X, fig3_right() if len(charts) % 2 else None))
    return charts


ORACLE = oracle_charts()


def expected_solve(X: Prechart) -> tuple[int, str]:
    """The exit code and stdout of ``solve`` by the named constructions."""
    L = infer_witness(X)
    if L is None:
        return 1, ""
    assign = canonical_solution(L).assign
    return 0, json.dumps({name: render(assign[x]) for x, name in state_ids(X).items()},
                         indent=2, ensure_ascii=False) + "\n"


class TestOracle:
    def test_solve_prints_the_canonical_solution_of_the_inferred_witness(self, tmp_path):
        solved = 0
        for X in ORACLE:
            code, out = expected_solve(X)
            got = run(tmp_path, "solve", "{chart}", files={"chart": chart_to_json(X)})
            assert got[:2] == (code, out), chart_to_json(X)
            assert ("no layering witness" in got[2]) == (code == 1)
            solved += code == 0
        assert solved == 150  # expression charts have a witness, and joined ones none

    def test_a_witness_file_solves_the_same(self, tmp_path):
        for X in ORACLE:
            L = infer_witness(X)
            if L is None:  # every labelling fails; all bodies close a body cycle
                L = LabelledPrechart(X, dict.fromkeys(X.edges(), layering.BODY))
                code, out, err = run(tmp_path, "solve", "{chart}", "--witness", "{witness}",
                                     files={"chart": chart_to_json(X), "witness": witness_to_json(L)})
                assert (code, out) == (1, "") and err.startswith("witness does not verify: fully_specified_a")
                continue
            files = {"chart": chart_to_json(X), "witness": witness_to_json(L)}
            assert run(tmp_path, "solve", "{chart}", "--witness", "{witness}", files=files) == (
                *expected_solve(X), "")

    def test_chart_from_json_numbers_as_make_does(self):
        for X in ORACLE:
            doc = chart_to_json(X)
            fresh = made(doc)
            read = chart_from_json(doc)
            assert read == fresh
            assert read.numbered_succ() == fresh.numbered_succ() == X.numbered_succ()
        # documents and ``make`` drop an empty output before the check; a
        # prechart built directly has its outputs checked as they are
        assert made(_doc(outputs={"y": ["a"], "z": []})) == made(_doc())
        with pytest.raises(ValueError, match="^output at unknown state 'z'$"):
            Prechart(("a",), ("x",), {"z": frozenset()}, {})


def made(doc) -> Prechart:
    """``Prechart.make`` on the fields of a chart document, its transitions
    grouped by state and action in the document's order."""
    transitions: dict = {}
    for t in doc["transitions"]:
        transitions.setdefault(t["from"], {}).setdefault(t["action"], []).append(t["to"])
    return Prechart.make(doc["alphabet"], doc["states"], doc["outputs"], transitions, doc["root"])


def test_solve_builds_no_prechart_or_named_witness(monkeypatch, tmp_path):
    # ``solve`` without ``--witness`` reads the document's rows and infers
    # and solves on them: every golden ``solve {chart}`` row prints the same
    def refuse(*args, **kwargs):
        raise AssertionError("the named path ran")

    assert not hasattr(cli, "canonical_solution")
    for module, name in ((cli, "infer_witness"), (cli, "chart_from_json"), (solution, "canonical_solution")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(semantics.Prechart, "__post_init__", refuse)
    monkeypatch.setattr(LabelledPrechart, "__post_init__", refuse)
    rows = [row for row in RECORDED if row["argv"] == ["solve", "{chart}"]]
    assert len(rows) == 13
    for row in rows:
        assert run_case(row, tmp_path) == row


def _doc(**fields):
    doc = {"alphabet": ["a", "b"], "states": ["x", "y"], "root": "x", "outputs": {"y": ["a"]},
           "transitions": [_t("x", "a", "y"), _t("y", "b", "x")]}
    return {**doc, **fields}


def _t(x, a, y):
    return {"from": x, "action": a, "to": y}


# each malformed document and the error line that the reader gave before it
# read documents into state numbers, when charts went through ``Prechart.make``
ERRORS = [
    (_doc(states=["x", "y", "x"]), "duplicate states"),
    (_doc(outputs={"y": ["a"], "z": ["b"]}), "output at unknown state 'z'"),
    (_doc(outputs={"y": ["a", "c"]}), "output action outside alphabet at 'y'"),
    (_doc(transitions=[_t("x", "a", "y"), _t("z", "a", "x")]), "transition from unknown state 'z'"),
    (_doc(transitions=[_t("x", "a", "y"), _t("y", "c", "x")]), "transition action 'c' outside alphabet"),
    (_doc(transitions=[_t("x", "a", "y"), _t("y", "b", "z")]), "transition target 'z' not a state"),
    (_doc(root="z"), "root 'z' not a state"),
    # the order of the checks
    (_doc(states=["x", "y", "y"], transitions=[_t("x", "a", "q")]), "transition target 'q' not a state"),
    (_doc(transitions=[_t("x", "a", "y"), _t("y", "a", "p"), _t("x", "a", "q")]),
     "transition target 'q' not a state"),
    (_doc(states=["x", "y", "x"], outputs={"z": ["a"]}), "duplicate states"),
    (_doc(outputs={"z": ["a"]}, transitions=[_t("w", "a", "x")]), "output at unknown state 'z'"),
    (_doc(outputs={"z": []}, root="q"), "root 'q' not a state"),
    (_doc(transitions=[_t("w", "a", "x"), _t("x", "c", "y")]), "transition from unknown state 'w'"),
    (_doc(root="z", transitions=[_t("x", "c", "y")]), "transition action 'c' outside alphabet"),
    (_doc(alphabet=["a", "b b"]), "invalid action name: 'b b'"),
    (_doc(states="xy"), "'states' must be a list of strings"),
]


@pytest.mark.parametrize("doc, message", ERRORS)
def test_malformed_charts_keep_their_error_lines(doc, message, tmp_path):
    for argv in (["solve", "{chart}"], ["dot", "{chart}"], ["witness", "--infer", "{chart}"]):
        assert run(tmp_path, *argv, files={"chart": doc}) == (2, "", f"error: {message}\n"), argv
    if isinstance(doc["states"], list):  # the shape is right, so ``make`` can take the fields
        with pytest.raises(ValueError) as raised:
            made(doc)
        assert str(raised.value) == message


def test_a_labelling_that_does_not_verify_is_an_internal_error(monkeypatch, tmp_path):
    # loop elimination's labelling always verifies; were it not to, ``solve``
    # names the violated clause's states as ``infer_witness`` does
    monkeypatch.setattr(layering, "_first_violation", lambda a: layering.WitnessViolation("layered", (1, 0)))
    code, out, err = run(tmp_path, "solve", "{chart}", files={"chart": _doc()})
    assert (code, out) == (3, "")
    assert err == ("internal error: RuntimeError: loop elimination labelled the 2-state chart "
                   "with no witness: layered: ('y', 'x')\n")
