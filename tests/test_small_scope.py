"""One small scope, every guarantee: exhaustive checks on all small expressions.

Every expression over ``a, b`` with at most ``SCOPE`` nodes
(``gen.all_exprs``) is checked against what the paper and the local
approach promise of it:

* it prints and parses back to itself;
* its chart has a layering witness, which ``infer_witness`` finds;
* the canonical solution of that witness is proved by the axioms alone,
  with no bisimilarity fallback;
* ``solve`` on its chart document prints texts that parse and verify, from
  a witness by state number that agrees field by field with that of
  ``infer_witness`` on its chart;
* the collapse of the joined syntactic witness of ``e`` and ``e + e`` is
  isomorphic to the bisimulation quotient of their joined chart (the
  collapse theorem);
* ``certify`` of it against ``e + e`` and against ``e·a`` agrees with the
  reference bisimilarity (``gen.round_by_round_bisimilarity``), and replay
  passes every check of the certificate, and of the local proof's
  certificate of each equivalent pair (``gen.local_certify``), which
  replays the canonical solution of the collapse;
* ``certify`` of it against the representative of its bisimilarity class
  in the scope, and of the representatives against each other, agrees
  with the classes, and replay passes every check of the certificate.

The counts of each scope are pinned, the collapses' merges per safe-pair
condition and the classes among them.  Tier-1 runs the scope of 5 nodes;
set ``STARCHART_SMALL_SCOPE=7`` to run the scope of 7 nodes.  A failure at
any scope is a defect of the program, never a reason to shrink the scope.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections import Counter
from itertools import combinations
from contextlib import redirect_stdout

import pytest

from starchart import (Atom, Seq, Sum, bisimilarity, canonical_solution, certify, chart_of, cli, collapse,
                       infer_witness, main, parse, quotient, recheck_certificate, render, syntactic_witness,
                       union_witness, verify_solution)
from starchart import solution as solution_module
from starchart.formats import chart_from_json, chart_to_json
from starchart.semantics import coproduct, joint_chart
from gen import all_exprs, assert_same_witness, isomorphic, local_certify, round_by_round_bisimilarity

ALPHABET = ("a", "b")
SCOPE = int(os.environ.get("STARCHART_SMALL_SCOPE", "5"))
EXPRS = all_exprs(ALPHABET, SCOPE)

# per scope: the expressions, the certificates replayed for the pairs
# (e, e + e) and (e, e·a) by kind: a normal-forms proof, the local proof,
# or a distinguishing formula, and the merges of the collapses of the
# joined witnesses of (e, e + e) by safe-pair condition, and the
# bisimilarity classes with the certificates replayed within them by kind
# and across them
PINNED = {
    5: {"exprs": 516, "proofs": {"normal-forms": 688, "local": 688, "inequivalent": 344},
        "merges": {"C1": 966, "C2": 12},
        "classes": (104, {"normal-forms": 388, "local": 24, "inequivalent": 5356})},
    7: {"exprs": 11451, "proofs": {"normal-forms": 15268, "local": 15268, "inequivalent": 7634},
        "merges": {"C1": 26300, "C2": 496, "C3": 21},
        "classes": (911, {"normal-forms": 9348, "local": 1192, "inequivalent": 910})},
}


@pytest.fixture
def no_refinement(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_solution fell back to partition refinement")

    monkeypatch.setattr(solution_module, "_coarsest", refuse)


def test_the_scope_is_the_pinned_one():
    assert len(EXPRS) == len(set(EXPRS)) == PINNED[SCOPE]["exprs"]


def test_every_expression_prints_and_parses_back():
    for e in EXPRS:
        assert parse(render(e), ALPHABET) == e


def test_every_chart_has_a_witness_whose_solution_the_axioms_prove(no_refinement):
    for e in EXPRS:
        L = infer_witness(chart_of(e, ALPHABET))
        assert L is not None, render(e)
        assert verify_solution(L.base, canonical_solution(L)) == (True, None), render(e)


def test_solve_prints_solutions_that_the_axioms_prove(no_refinement, tmp_path, monkeypatch):
    # ``solve`` solves the witness by state number that it builds from the
    # document's rows; it is that of ``infer_witness`` on the chart, whose
    # states the document lists in order
    solved = []
    terms = cli._Terms
    monkeypatch.setattr(cli, "_Terms", lambda witness, *args: solved.append(witness) or terms(witness, *args))
    path = tmp_path / "chart.json"
    for e in EXPRS:
        X = chart_of(e, ALPHABET)
        doc = chart_to_json(X)
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        solved.clear()
        with redirect_stdout(out):
            assert main(["solve", str(path)]) == 0, render(e)
        (witness,) = solved
        assert_same_witness(witness, infer_witness(X).analysis, X.states)
        assign = {x: parse(text, ALPHABET) for x, text in json.loads(out.getvalue()).items()}
        assert verify_solution(chart_from_json(doc), assign) == (True, None), render(e)


def test_every_collapse_is_the_bisimulation_quotient(monkeypatch):
    # the collapse theorem, on the joined syntactic witness of e and e + e,
    # against ``TestCollapseTheorem``'s oracle; ``collapse`` reads the
    # witness record at every merge, through ``find_pair`` and ``relabel``
    merges: Counter = Counter()
    rerouting = sys.modules["starchart.rerouting"]
    find_pair = rerouting.find_pair

    def counted(L, R):
        found = find_pair(L, R)
        merges[found[2]] += 1
        return found

    monkeypatch.setattr(rerouting, "find_pair", counted)
    for e in EXPRS:
        L, _, _ = union_witness(syntactic_witness(chart_of(e, ALPHABET)),
                                syntactic_witness(chart_of(Sum(e, e), ALPHABET)))
        assert isomorphic(collapse(L)[0].base, quotient(L.base, bisimilarity(L.base))[0]), render(e)
    assert merges == PINNED[SCOPE]["merges"]


def test_certify_agrees_with_the_reference_and_replays():
    kinds: Counter = Counter()
    for e in EXPRS:
        for f in (Sum(e, e), Seq(e, Atom("a"))):
            X, inl, inr = coproduct(chart_of(e, ALPHABET), chart_of(f, ALPHABET))
            R = round_by_round_bisimilarity(X)
            expected = R.block_index(inl[e]) == R.block_index(inr[f])
            certs = [certify(e, f, ALPHABET)]
            assert certs[0].verdict == ("equivalent" if expected else "inequivalent"), (render(e), render(f))
            if expected:  # the local proof too, which certify skips when normal forms meet
                certs.append(local_certify(e, f, ALPHABET))
            for cert in certs:
                assert all(c.passed for c in recheck_certificate(cert.to_json())), (render(e), render(f))
                kinds[cert.proof or ("local" if expected else "inequivalent")] += 1
    assert kinds == PINNED[SCOPE]["proofs"]


def test_certify_within_and_across_the_bisimilarity_classes():
    """The scope classed by the reference bisimilarity of its joint chart,
    each class represented by its first expression in ``all_exprs`` order:
    every other expression is certified equivalent to its representative,
    and representatives inequivalent to each other, and every certificate
    replays.  At 5 nodes every pair of representatives is certified; at 7
    each one only against the next, since all 414 505 pairs of the 911
    representatives would take about 80 s."""
    R = round_by_round_bisimilarity(joint_chart(EXPRS, ALPHABET))
    classes: dict = {}
    for e in EXPRS:
        classes.setdefault(R.block_index(e), []).append(e)
    kinds: Counter = Counter()

    def certified(e, f, verdict):
        cert = certify(e, f, ALPHABET)
        assert cert.verdict == verdict, (render(e), render(f))
        assert all(c.passed for c in recheck_certificate(cert.to_json())), (render(e), render(f))
        kinds[cert.proof or ("local" if verdict == "equivalent" else verdict)] += 1

    for representative, *members in classes.values():
        for e in members:
            certified(e, representative, "equivalent")
    representatives = [members[0] for members in classes.values()]
    pairs = combinations(representatives, 2) if SCOPE <= 5 else zip(representatives, representatives[1:])
    for e, f in pairs:
        certified(e, f, "inequivalent")
    assert (len(classes), kinds) == PINNED[SCOPE]["classes"]
