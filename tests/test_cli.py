import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starchart import (
    Atom,
    Seq,
    Star,
    Sum,
    Zero,
    atoms,
    bisimilar,
    certify,
    chart_of,
    parse,
    recheck_certificate,
    render,
)
from starchart import cli, formats, layering
from starchart.cli import _COMMANDS, PARSER, _arguments, _read, main
from starchart.formats import chart_from_json, chart_to_json, witness_to_json
from starchart.layering import syntactic_witness
from starchart.semantics import _distinguishes
from gen import fig3_right, holding_every_state, local_certify, random_expr, rewrite_steps, satisfies

A = Atom("a")
AA0 = Star(Seq(A, A), Zero())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_round_trips_canonical_form(self, capsys):
        code, out, _ = run(capsys, "parse", "a + (b)")
        assert code == 0 and out.strip() == "a + b"

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "a +")
        assert code == 2 and "error" in err

    def test_deeply_nested_input(self, capsys):
        code, out, _ = run(capsys, "parse", "(" * 30000 + "a" + ")" * 30000)
        assert code == 0 and out == "a\n"

    def test_unknown_atom_with_declared_alphabet(self, capsys):
        code, _, err = run(capsys, "parse", "d", "--alphabet", "a,b")
        assert code == 2


class TestChartCommand:
    def test_single_state_chart_json(self, capsys):
        code, out, _ = run(capsys, "chart", "a*b")
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "alphabet": ["a", "b"],
            "states": ["a*b"],
            "root": "a*b",
            "outputs": {"a*b": ["b"]},
            "transitions": [{"from": "a*b", "action": "a", "to": "a*b"}],
        }

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "chart", "a*b", "--dot")
        assert code == 0
        assert out.startswith("digraph chart {")
        assert "peripheries=2" in out and "⇒b" in out


class TestBisimCommand:
    def test_bisimilar_pair(self, capsys):
        code, out, _ = run(capsys, "bisim", "a*0", "(aa)*0")
        assert code == 0 and out.strip() == "bisimilar"

    def test_distinguishable_pair(self, capsys):
        code, out, _ = run(capsys, "bisim", "a", "b")
        assert code == 1 and out.strip() == "not-bisimilar"

    def test_witness_relation(self, capsys):
        code, out, _ = run(capsys, "bisim", "a*0", "(aa)*0", "--witness")
        lines = out.splitlines()
        assert lines[0] == "bisimilar"
        doc = json.loads("\n".join(lines[1:]))
        assert doc["bisimilar"] is True
        assert ["a*0", "(a a)*0"] in doc["relation"]

    def test_witness_formula(self, capsys):
        code, out, _ = run(capsys, "bisim", "a", "b", "--witness")
        doc = json.loads("\n".join(out.splitlines()[1:]))
        assert code == 1 and doc["bisimilar"] is False
        # ``a`` has the output ``a``, ``b`` lacks it
        assert doc["formula"] == [["out", "a"]]

    def test_witness_formula_is_the_certificates(self, capsys):
        # one refutation format: the formula that ``bisim --witness`` prints
        # is the one the certificate carries, byte for byte, and it holds at
        # the left input and fails at the right one, by brute force and by
        # replay's lazy check; every third pair declares an alphabet wider
        # than its atoms, in an order other than the sorted one
        rng = random.Random(3201)
        checked = wider = 0
        while checked < 200:
            alpha = ("a", "b") if checked % 3 else ("c", "b", "a")
            e = random_expr(rng, ("a", "b"), depth=rng.randint(2, 4))
            f = random_expr(rng, ("a", "b"), depth=rng.randint(2, 4)) if checked % 2 else Sum(
                rewrite_steps(rng, e, 2), random_expr(rng, ("a", "b"), depth=2))
            cert = certify(e, f, alpha)
            if cert.verdict != "inequivalent":
                continue
            formula = cert.to_json()["distinguishing"]["formula"]
            code, out, _ = run(capsys, "bisim", render(e), render(f), "--alphabet", ",".join(alpha), "--witness")
            assert code == 1
            assert out == "not-bisimilar\n" + json.dumps(
                {"bisimilar": False, "formula": formula}, indent=2, ensure_ascii=False) + "\n"
            assert satisfies(chart_of(e, alpha), formula) and not satisfies(chart_of(f, alpha), formula)
            assert _distinguishes(formula, e, f, alpha)
            checked += 1
            wider += len(alpha) > len(atoms(e) | atoms(f))
        assert wider >= 60


class TestWitnessCommand:
    def test_syntactic(self, capsys):
        code, out, _ = run(capsys, "witness", "--syntactic", "(aa)*0")
        doc = json.loads(out)
        assert code == 0
        tags = {(t["from"], t["to"]): t["tag"] for t in doc["transitions"]}
        assert tags == {("(a a)*0", "a(a a)*0"): "e", ("a(a a)*0", "(a a)*0"): "b"}

    def test_verify_valid_and_invalid(self, capsys, tmp_path):
        doc = witness_to_json(syntactic_witness(chart_of(AA0)))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "witness", "--verify", str(good))
        assert code == 0 and out.strip() == "valid"
        for t in doc["transitions"]:
            t["tag"] = "b"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "witness", "--verify", str(bad))
        assert code == 1 and "fully_specified_a" in out

    def test_infer_failure_on_fig3_right(self, capsys, tmp_path):
        path = tmp_path / "fig3-right.json"
        path.write_text(json.dumps(chart_to_json(fig3_right())))
        code, out, _ = run(capsys, "witness", "--infer", str(path))
        assert code == 1 and out.strip() == "no layering witness"

    def test_infer_success(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(chart_to_json(chart_of(AA0))))
        code, out, _ = run(capsys, "witness", "--infer", str(path))
        assert code == 0
        assert {t["tag"] for t in json.loads(out)["transitions"]} == {"e", "b"}

    def test_llee_weights(self, capsys):
        code, out, _ = run(capsys, "witness", "--syntactic", "(aa)*0", "--llee")
        weights = {(t["from"], t["to"]): t["weight"] for t in json.loads(out)["transitions"]}
        assert weights == {("(a a)*0", "a(a a)*0"): 1, ("a(a a)*0", "(a a)*0"): 0}


class TestSolveCommand:
    def test_solves_with_inferred_witness(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(chart_to_json(chart_of(AA0))))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assign = json.loads(out)
        for state, text in assign.items():
            assert bisimilar(parse(text, ("a",)), AA0)

    def test_no_witness_exits_1(self, capsys, tmp_path):
        path = tmp_path / "fig3-right.json"
        path.write_text(json.dumps(chart_to_json(fig3_right())))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1 and "no layering witness" in err

    def test_a_search_that_misses_an_eliminated_chart_exits_3(self, capsys, tmp_path, monkeypatch):
        # a freeze that holds every state back misses the chart's witness
        monkeypatch.setattr(layering, "_loop_spanned", holding_every_state(layering._loop_spanned))
        path = tmp_path / "stars.json"
        path.write_text(json.dumps(chart_to_json(chart_of(parse("a*(b*(c*0))", "abc")))))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 3 and "clears the 3-state chart of cycles" in err

    def test_foreign_witness_rejected(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(chart_to_json(chart_of(AA0))))
        wpath = tmp_path / "w.json"
        other = chart_of(Star(A, Zero()))
        wpath.write_text(json.dumps(witness_to_json(syntactic_witness(other))))
        code, _, err = run(capsys, "solve", str(path), "--witness", str(wpath))
        assert code == 2


class TestRerouteCommand:
    def test_merge(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(chart_to_json(chart_of(AA0))))
        code, out, _ = run(capsys, "reroute", str(path), "--merge", "(a a)*0:a(a a)*0")
        doc = json.loads(out)
        assert code == 0
        assert doc["states"] == ["a(a a)*0"]
        assert doc["transitions"] == [
            {"from": "a(a a)*0", "action": "a", "to": "a(a a)*0"}
        ]

    @pytest.mark.parametrize("merge, expected", [
        ("p:1:q", ["q", "q:q", "q:q:q"]), ("q:p:1", ["p:1", "q:q", "q:q:q"]),
        ("p:q", "error: --merge 'p:q' splits into two states x1:x2 at no ':'"),
        ("pq", "error: --merge 'pq' splits into two states x1:x2 at no ':'"),
        ("q:q:q:q", "error: --merge 'q:q:q:q' splits into two states x1:x2 at more than one ':'"),
    ], ids=["colon-in-the-left", "colon-in-the-right", "unknown-states", "no-colon", "several-splits"])
    def test_state_names_may_hold_a_colon(self, capsys, tmp_path, merge, expected):
        path = tmp_path / "colons.json"
        states = ["p:1", "q", "q:q", "q:q:q"]
        path.write_text(json.dumps({"alphabet": ["a"], "states": states, "root": "p:1", "outputs": {},
                                    "transitions": [{"from": x, "action": "a", "to": "q"} for x in states]}))
        code, out, err = run(capsys, "reroute", str(path), "--merge", merge)
        if isinstance(expected, str):
            assert (code, out, err.strip()) == (2, "", expected)
        else:
            assert code == 0 and json.loads(out)["states"] == expected


class TestCollapseCommand:
    def test_collapse_with_witness_file(self, capsys, tmp_path):
        X = chart_of(AA0)
        (tmp_path / "c.json").write_text(json.dumps(chart_to_json(X)))
        (tmp_path / "w.json").write_text(json.dumps(witness_to_json(syntactic_witness(X))))
        code, out, _ = run(
            capsys, "collapse", str(tmp_path / "c.json"), "--witness", str(tmp_path / "w.json")
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["collapsed"]["states"]) == 1
        assert doc["projection"] == {"(a a)*0": "a(a a)*0", "a(a a)*0": "a(a a)*0"}

    def test_collapse_of_an_expressible_chart_infers_its_witness_silently(self, capsys, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps(chart_to_json(chart_of(AA0))))
        code, out, err = run(capsys, "collapse", str(tmp_path / "c.json"))
        assert (code, err) == (0, "")
        assert len(json.loads(out)["collapsed"]["states"]) == 1

    def test_collapse_to_dot(self, capsys, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps(chart_to_json(chart_of(AA0))))
        code, out, err = run(capsys, "collapse", str(tmp_path / "c.json"), "--dot")
        assert (code, err) == (0, "") and out.startswith("digraph") and out.count("->") == 1

    def test_state_names_are_written_as_they_are_read(self, capsys, tmp_path):
        # not as ASCII escapes: a JSON document of the command line holds
        # its state names as the chart document gave them
        (tmp_path / "c.json").write_text(json.dumps({
            "alphabet": ["a"], "states": ["ä", "ö"], "root": "ä", "outputs": {},
            "transitions": [{"from": "ä", "action": "a", "to": "ö"}, {"from": "ö", "action": "a", "to": "ä"}],
        }), encoding="utf-8")
        code, out, _ = run(capsys, "collapse", str(tmp_path / "c.json"))
        assert code == 0 and '"ä": "ö"' in out and "\\u" not in out


class TestWitnessFileOfTheChart:
    # ``solve --witness`` and ``collapse --witness`` take a witness file
    # whose chart equals the given one, whatever the order of its rows

    @pytest.fixture
    def files(self, tmp_path):
        X = chart_of(AA0)
        (tmp_path / "c.json").write_text(json.dumps(chart_to_json(X)))
        return tmp_path, witness_to_json(syntactic_witness(X))

    @pytest.mark.parametrize("command", ["solve", "collapse"])
    def test_a_witness_of_the_chart_with_two_states_swapped_is_refused(self, capsys, files, command):
        tmp_path, doc = files
        doc["states"].reverse()
        (tmp_path / "w.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(tmp_path / "c.json"), "--witness", str(tmp_path / "w.json"))
        assert (code, out, err) == (2, "", "error: witness file does not label the given chart\n")

    @pytest.mark.parametrize("command", ["solve", "collapse"])
    def test_a_witness_listing_the_transitions_in_another_order_is_accepted(self, capsys, files, command):
        tmp_path, doc = files
        (tmp_path / "w.json").write_text(json.dumps(doc))
        expected = run(capsys, command, str(tmp_path / "c.json"), "--witness", str(tmp_path / "w.json"))
        assert expected[0] == 0
        doc["transitions"].reverse()
        (tmp_path / "w.json").write_text(json.dumps(doc))
        assert run(capsys, command, str(tmp_path / "c.json"), "--witness", str(tmp_path / "w.json")) == expected


class TestCertifyCommand:
    def test_equivalent_pair(self, capsys):
        code, out, _ = run(capsys, "certify", "a*0", "(aa)*0")
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "equivalent"
        assert len(doc["collapsed"]["outputs"]) == 1
        # both walks project onto the one state, with no rendered common expression
        assert doc["projection"] == {"left": [0], "right": [0, 0]}
        assert "common" not in doc
        assert all(c["passed"] for c in doc["checks"])

    def test_inequivalent_pair(self, capsys):
        code, out, _ = run(capsys, "certify", "a", "b")
        doc = json.loads(out)
        assert code == 1
        assert doc["verdict"] == "inequivalent"
        # a outputs a and b does not
        assert doc["distinguishing"] == {"formula": [["out", "a"]]}

    def test_reflexive_certification(self):
        rng = random.Random(103)
        for _ in range(10):
            e = random_expr(rng, depth=3)
            cert = local_certify(e, e)
            assert cert.verdict == "equivalent"
            assert bisimilar(cert.common, e)

    def test_certificates_recheck_from_serialized_form(self):
        rng = random.Random(107)
        for _ in range(10):
            e = random_expr(rng, depth=2)
            f = rewrite_steps(rng, e, 3)
            cert = certify(e, f)
            doc = json.loads(json.dumps(cert.to_json()))
            assert all(c.passed for c in recheck_certificate(doc))

    def test_verdict_is_symmetric(self):
        rng = random.Random(109)
        for _ in range(15):
            e, f = random_expr(rng, depth=2), random_expr(rng, depth=2)
            assert certify(e, f).verdict == certify(f, e).verdict


class TestDotCommand:
    def test_chart_and_witness_rendering(self, capsys, tmp_path):
        X = chart_of(AA0)
        (tmp_path / "c.json").write_text(json.dumps(chart_to_json(X)))
        (tmp_path / "w.json").write_text(json.dumps(witness_to_json(syntactic_witness(X))))
        code, out, _ = run(capsys, "dot", str(tmp_path / "c.json"))
        assert code == 0 and "penwidth" not in out
        code, out, _ = run(capsys, "dot", str(tmp_path / "w.json"))
        assert code == 0 and "penwidth=2" in out

    @pytest.mark.parametrize("untagged", [0, 1], ids=["first-untagged", "later-untagged"])
    def test_a_partly_tagged_document_is_an_input_error(self, capsys, tmp_path, untagged):
        # any tag makes the document a witness, which must tag every transition
        doc = witness_to_json(syntactic_witness(chart_of(AA0)))
        assert len(doc["transitions"]) == 2
        del doc["transitions"][untagged]["tag"]
        (tmp_path / "w.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "dot", str(tmp_path / "w.json"))
        assert (code, out, err) == (2, "", "error: witness transitions need a 'tag' field\n")

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "dot", "does-not-exist.json")
        assert code == 2

    @pytest.mark.parametrize("kind", ["chart", "witness"])
    def test_a_document_is_read_once(self, capsys, tmp_path, monkeypatch, kind):
        X = chart_of(AA0)
        doc = chart_to_json(X) if kind == "chart" else witness_to_json(syntactic_witness(X))
        (tmp_path / "d.json").write_text(json.dumps(doc))
        calls = []

        def spy(doc):
            calls.append(doc)
            return chart_from_json(doc)

        monkeypatch.setattr(cli, "chart_from_json", spy)
        monkeypatch.setattr(formats, "chart_from_json", spy)
        code, out, _ = run(capsys, "dot", str(tmp_path / "d.json"))
        assert code == 0 and ("penwidth=2" in out) == (kind == "witness")
        assert len(calls) == 1


def test_nesting_too_deep_gives_up_with_exit_4_without_a_traceback():
    # the chart of a 30 000-step sequence overflows the recursive semantics
    proc = subprocess.run(
        [sys.executable, "-m", "starchart", "chart", " ".join(["a"] * 30000)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=__import__("pathlib").Path(__file__).resolve().parent.parent,
    )
    assert proc.returncode == 4
    assert proc.stderr == "gave up: nesting too deep\n"
    assert "Traceback" not in proc.stderr


SEQUENCE, SUM = " ".join(["a"] * 30000), "+".join(["a"] * 30000)


@pytest.mark.parametrize("left, right", [(SEQUENCE, f"{SEQUENCE} + {SEQUENCE}"), (SUM, f"{SUM} + a")],
                         ids=["sequence", "sum"])
def test_certify_of_deep_inputs_gives_up_with_exit_4(left, right):
    # the first round that ``certify`` compares before it decides recurses
    # only where the semantics does, so it gives up as the walk would
    proc = subprocess.run(
        [sys.executable, "-m", "starchart", "certify", left, right],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "gave up: nesting too deep\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["solve"], ["witness", "--verify"], ["dot"], ["replay"]],
                         ids=["solve", "witness", "dot", "replay"])
def test_a_deeply_nested_json_document_gives_up_with_exit_4(argv, tmp_path):
    # the JSON reader recurses once per nesting level, so a document of
    # 200 000 nested arrays gives up before it is read as a chart, witness
    # or certificate
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "starchart", *argv, str(path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", "gave up: nesting too deep\n")


def test_a_common_expression_with_an_exponential_tree_is_certified_at_once():
    # the common expression of this pair has 4 304 distinct nodes and a
    # tree of 5.4e8; a certificate that rendered it never finished printing.
    # The child prints the local proof's certificate as ``starchart
    # certify`` prints a certificate, where ``certify`` proves this pair by
    # its normal forms
    e = render(random_expr(random.Random(88), depth=12))
    script = """
import json, sys
from starchart.cli import PARSER, _parse_exprs
from gen import local_certify
args = PARSER.parse_args(["certify", *sys.argv[1:]])
alpha, (e, f) = _parse_exprs(args, args.left, args.right)
print(json.dumps(local_certify(e, f, alpha).to_json(), ensure_ascii=False))
"""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", script, e, f"{e} + {e}"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src:tests"},
        cwd=Path(__file__).resolve().parent.parent,
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert elapsed < 5
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "equivalent"
    replayed = recheck_certificate(doc)
    assert [c.name for c in replayed] == [
        "collapsed-witness-valid", "projection-homomorphism", "roots-meet", "solution-proved"]
    assert all(c.passed for c in replayed)


def test_out_of_memory_gives_up_with_exit_4_without_a_traceback(monkeypatch, capsys):
    # running out of memory ends this way; exit 1 would read as the
    # negative verdict
    import starchart.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "certify", exhausted)
    code, out, err = run(capsys, "certify", "a", "a")
    assert (code, out, err) == (4, "", "gave up: out of memory\n")


def test_main_reuses_one_parser(monkeypatch, capsys):
    import starchart.cli as cli

    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run(capsys, "parse", "a*b")
    assert code == 0 and out == "a*b\n"


def parsed(step, argv: list[str]):
    """``step(argv)``'s namespace, less ``command``, or its exit code; and
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(step(list(argv)))
            result.pop("command", None)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_MALFORMED_ARGVS = [
    [], ["-h"], ["--help", "-h"], ["nosuch", "a"], ["-h", "certify"],
    ["certify", "a"], ["certify", "a", "b", "c"], ["certify", "-h"], ["certify", "--", "a", "b"],
    ["certify", "--alph", "a,b", "a", "b"], ["certify", "--alphabet=a,b", "a", "b"],
    ["chart", "--bogus", "a"], ["witness", "--infer", "x", "--verify", "y"],
]
_GOLDEN_ARGVS = [row["argv"] for row in json.loads(Path(__file__).with_name("golden_cli.json").read_text("utf-8"))]


@pytest.mark.parametrize("argv", _GOLDEN_ARGVS + _MALFORMED_ARGVS, ids=" ".join)
def test_main_reads_an_argv_as_the_two_level_parse_does(argv):
    # main hands a command's words straight to the command's parser; the
    # namespace, or the exit code and messages, are those of PARSER.parse_args
    assert parsed(_arguments, argv) == parsed(PARSER.parse_args, argv)


# one plain argv per command but ``witness``, whose mutually exclusive
# group only argparse reads
_PLAIN_ARGVS = [
    ["parse", "a*b", "--alphabet", "a,b"], ["chart", "--dot", "a*b"], ["bisim", "a", "--witness", "b"],
    ["solve", "chart.json", "--witness", "w.json"], ["reroute", "--merge", "0:1", "chart.json"],
    ["collapse", "chart.json", "--dot"], ["certify", "--alphabet", "a,b", "a", "b"], ["dot", "chart.json"],
    ["replay", "cert.json"],
]


def test_a_command_argv_is_parsed_once(monkeypatch, capsys):
    assert {argv[0] for argv in _PLAIN_ARGVS} == set(_COMMANDS) - {"witness"}
    wanted = [parsed(PARSER.parse_args, argv) for argv in _PLAIN_ARGVS]

    def two_level(argv):
        raise AssertionError("main ran the two-level parse")

    monkeypatch.setattr(PARSER, "parse_args", two_level)
    code, out, _ = run(capsys, "parse", "a*b")
    assert code == 0 and out == "a*b\n"

    # a plain argv makes no argparse parse at all, and a witness argv one
    class Parsed(Exception):
        pass

    def parse_known_args(self, args=None, namespace=None):
        raise Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)
    assert [parsed(_arguments, argv) for argv in _PLAIN_ARGVS] == wanted
    with pytest.raises(Parsed):
        _arguments(["witness", "--syntactic", "a*b"])


@pytest.mark.parametrize("argv, missing", [
    ([], "the following arguments are required: command"),
    (["witness", "--llee"], "one of the arguments --verify --infer --syntactic is required"),
    (["reroute", "chart.json"], "the following arguments are required: --merge"),
], ids=["command", "witness-mode", "merge"])
def test_a_missing_required_argument_is_a_usage_error(capsys, argv, missing):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.endswith(f": error: {missing}\n")


# words that a generated argv draws its positionals and option values from:
# plain ones, and ones that start with "-", look like options or are empty
_WORDS = ["a", "a*b", "b c", "x.json", "0:1", "a,b", "", "-", "-a", "-1", "--", "-h", "--dot", "--alphabet"]


def random_argv(rng: random.Random, name: str) -> list[str]:
    """An argv of command ``name`` built from its parser's own actions: the
    positionals and options in any order, each option given zero to two
    times, in its exact form, as ``--opt=value`` or abbreviated, with now
    and then one positional too few or too many, a ``-h``, ``--help`` or
    ``--``, or a trailing option with no value."""
    actions = _COMMANDS[name]._actions
    positionals = sum(1 for a in actions if not a.option_strings) + rng.choice((0, 0, 0, 0, -1, 1))
    parts = [[rng.choice(_WORDS) if rng.random() < 0.2 else rng.choice(_WORDS[:6])] for _ in range(positionals)]
    options = [a for a in actions if a.option_strings and a.dest != "help"]
    for a in options:
        for _ in range(rng.choice((0, 1, 1, 1, 2) if a.required else (0, 0, 1, 1, 2))):
            opt = a.option_strings[-1]
            form = rng.random()
            if form < 0.1:
                opt = opt[:rng.randint(3, len(opt) - 1)]
            if a.nargs == 0:
                parts.append([opt])
                continue
            value = rng.choice(_WORDS) if rng.random() < 0.2 else rng.choice(_WORDS[:6])
            parts.append([f"{opt}={value}"] if form > 0.9 else [opt, value])
    rng.shuffle(parts)
    for special in ("-h", "--help", "--"):
        if rng.random() < 0.08:
            parts.insert(rng.randint(0, len(parts)), [special])
    if options and rng.random() < 0.08:
        parts.append([rng.choice(options).option_strings[-1]])
    return [name] + [w for part in parts for w in part]


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_the_reader_gives_what_argparse_gives(name):
    # every argv, read by ``_read`` or declined by it, ends as
    # PARSER.parse_args ends it: the same namespace, or the same exit code
    # and output
    rng = random.Random(f"argv {name}")
    read = 0
    for _ in range(2_000):
        argv = random_argv(rng, name)
        assert parsed(_arguments, argv) == parsed(PARSER.parse_args, argv), argv
        read += _read(_COMMANDS[name], argv[1:]) is not None
    # both paths are common, so neither is tested by chance alone
    if name == "witness":
        assert read == 0
    else:
        assert 300 < read < 1_700, read


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "starchart", "parse", "a*b"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=__import__("pathlib").Path(__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "a*b"


def readme_synopsis() -> dict[str, set[str]]:
    """The options that the README's command block shows, per subcommand."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(starchart .*?)```", text, re.S).group(1)
    shown: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("starchart "):
            options = re.findall(r"--[a-z][a-z-]*", line.partition("#")[0])
            shown.setdefault(line.split()[1], set()).update(options)
    return shown


def test_the_readme_synopsis_shows_every_option_of_every_command():
    sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
               for name, p in sub.choices.items()}
    assert readme_synopsis() == options


# per case, the arguments, and the exit code and the end of the stderr that
# a closed stdout alone leaves as they are with no pipe closed
_CLOSED_STDOUT = {
    "flushed-at-exit": (["chart", "a"], 141, b""),
    "written-at-once": (["chart", " ".join(["a"] * 300)], 141, b""),
    "parse-error": (["parse", "a +"], 2, b"error: expected an expression (at position 3)\n"),
    "missing-file": (["solve", "missing.json"], 2, b"error: [Errno 2] No such file or directory: 'missing.json'\n"),
    "usage-error": (["chart", "--bogus", "a"], 2, b"starchart: error: unrecognized arguments: --bogus\n"),
    "no-witness": (["solve", "{fig3}"], 1, b"no layering witness\n"),
}


@pytest.mark.parametrize("case", list(_CLOSED_STDOUT), ids=list(_CLOSED_STDOUT))
@pytest.mark.parametrize("merged", [False, True], ids=["stderr-apart", "stderr-merged"])
def test_a_closed_stdout_ends_with_exit_141_and_no_traceback(case, merged, tmp_path):
    # as ``starchart chart E | head -c 0`` ends: the reader is gone before
    # the first write, so every write to the pipe fails; when stderr shares
    # the pipe, so does every error message
    argv, code, message = _CLOSED_STDOUT[case]
    (tmp_path / "fig3.json").write_text(json.dumps(chart_to_json(fig3_right())), encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "starchart", *[arg.format(fig3=tmp_path / "fig3.json") for arg in argv]],
            stdout=write_end,
            stderr=write_end if merged else subprocess.PIPE,
            env={"PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
            timeout=30,
        )
    finally:
        os.close(write_end)
    if merged:
        assert (proc.returncode, proc.stderr) == (141, None)
    else:
        assert proc.returncode == code
        assert proc.stderr.endswith(message) and (message or not proc.stderr), proc.stderr
        assert b"Traceback" not in proc.stderr


_FIELDS = ("alphabet", "states", "outputs", "transitions", "root", "from", "action", "to", "tag")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["a", "b", "y", "", "e"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text("aby", max_size=2), inner, max_size=4),
    max_leaves=8,
)
_VALID = witness_to_json(syntactic_witness(chart_of(AA0)))  # two states


@st.composite
def _mutated_witness(draw):
    """The valid two-state witness document with one field replaced or removed."""
    doc = json.loads(json.dumps(_VALID))
    target = draw(st.sampled_from([doc, *doc["transitions"]]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_JSON)
    return doc


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestMalformedInput:
    """Every input ends in an exit code, never in an escaping exception."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(doc=_JSON | _mutated_witness())
    def test_json_files(self, doc):
        left, right = _VALID["states"]
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "doc.json")
            Path(path).write_text(json.dumps(doc))
            for argv in (
                ["solve", path], ["solve", path, "--witness", path],
                ["witness", "--infer", path], ["witness", "--verify", path],
                ["collapse", path], ["collapse", path, "--witness", path],
                ["dot", path], ["reroute", path, "--merge", f"{right}:{left}"],
            ):
                assert _exit_code(argv) in (0, 1, 2, 3), argv

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        texts=st.lists(st.text("abc01*+(). ", max_size=8), min_size=2, max_size=2),
        alphabet=st.sampled_from([None, "a,b", "a,b,c", "b", "a1,b", ",", "A"]),
    )
    def test_expression_texts(self, texts, alphabet):
        flag = [] if alphabet is None else [f"--alphabet={alphabet}"]
        left, right = texts
        for argv in (
            ["parse", *flag, "--", left], ["chart", *flag, "--", left],
            ["bisim", *flag, "--", left, right], ["certify", *flag, "--", left, right],
            ["witness", *flag, f"--syntactic={left}"],
        ):
            assert _exit_code(argv) in (0, 1, 2, 3), argv

    def test_wrong_shape_names_the_field(self, capsys, tmp_path):
        for doc, field in (
            ([], "object"),
            ({"states": 5, "alphabet": ["a"]}, "'states'"),
            ({"states": [["x"]], "alphabet": ["a"]}, "'states'"),
            ({"states": ["x"], "alphabet": ["a"], "outputs": ["a"]}, "'outputs'"),
            ({"states": ["x"], "alphabet": ["a"], "outputs": {"x": "a"}}, "'outputs'"),
            ({"states": ["x"], "alphabet": ["a"], "transitions": [{"from": "x", "action": "a"}]},
             "'transitions'"),
        ):
            (tmp_path / "c.json").write_text(json.dumps(doc))
            code, _, err = run(capsys, "dot", str(tmp_path / "c.json"))
            assert code == 2 and field in err, (doc, err)

    def test_undeclared_target_is_named(self, capsys, tmp_path):
        doc = {"states": ["x"], "alphabet": ["a"], "transitions": [{"from": "x", "action": "a", "to": "y"}]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "dot", str(tmp_path / "c.json"))
        assert code == 2 and err == "error: transition target 'y' not a state\n"

    def test_solve_of_a_list_exits_2_without_a_traceback(self, tmp_path):
        (tmp_path / "c.json").write_text("[]")
        proc = subprocess.run(
            [sys.executable, "-m", "starchart", "solve", str(tmp_path / "c.json")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestChartDocuments:
    """A chart file's alphabet and tags are read as strictly as the flags."""

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_a_repeated_action_is_declared_once(self, capsys, tmp_path):
        doc = {"alphabet": ["a", "a"], "states": ["x", "y"], "root": "x",
               "transitions": [{"from": "x", "action": "a", "to": "y"},
                               {"from": "y", "action": "a", "to": "x"}]}
        code, out, _ = run(capsys, "witness", "--infer", self.write(tmp_path, doc))
        witness = json.loads(out)
        assert code == 0 and witness["alphabet"] == ["a"]
        assert [(t["from"], t["to"]) for t in witness["transitions"]] == [("x", "y"), ("y", "x")]

    def test_an_invalid_action_name_is_an_input_error(self, capsys, tmp_path):
        doc = {"alphabet": ["a b"], "states": ["x"], "root": "x",
               "transitions": [{"from": "x", "action": "a b", "to": "x"}]}
        code, out, err = run(capsys, "solve", self.write(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == "error: invalid action name: 'a b'\n"

    def test_a_transition_tagged_twice_differently_is_an_input_error(self, capsys, tmp_path):
        doc = {"alphabet": ["a"], "states": ["x", "y"], "root": "x",
               "transitions": [{"from": "x", "action": "a", "to": "y", "tag": "b"},
                               {"from": "y", "action": "a", "to": "x", "tag": "b"},
                               {"from": "x", "action": "a", "to": "y", "tag": "e"}]}
        code, out, err = run(capsys, "witness", "--verify", self.write(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == "error: transition ('x', 'a', 'y') is tagged both 'b' and 'e'\n"
        doc["transitions"][0]["tag"] = "e"  # the same tag twice is one transition
        code, out, _ = run(capsys, "witness", "--verify", self.write(tmp_path, doc))
        assert (code, out) == (0, "valid\n")
