"""Certification and replay decide first and share one check path.

The verdict is read off the coproduct of the two charts, refined on the
state numbers of the two walks; an equivalent pair is certified on the
quotient by that decision, with no syntactic witness and no collapse, and
both inputs are checked against the common expression by one refinement
that walks only the common expression.  Replay runs the same checks on
the certificate's data, so a tampered certificate fails.  The checks on
state numbers are compared with the same checks on the joined chart, the
coproduct of both charts, which certification itself never builds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from itertools import chain

import pytest

from starchart import (Atom, PartitionRelation, Prechart, Sum, Zero, atoms, bisimilar, bisimilarity, certify,
                       chart_of, coproduct, formats, parse, quotient, recheck_certificate, render)
from starchart.bisim import _violations
from starchart.cli import (_candidate, _clauses, _common_checks, _decide, _distinguishing_violation,
                           _on_states)
from starchart.formats import iter_state_ids, state_ids, witness_from_json
from starchart.semantics import _numbered_chart, joint_chart
from gen import joined_chart, random_expr, rewrite_steps, round_by_round_bisimilarity

ALPHA = ("a", "b", "c")
# declared orders other than the sorted one, and multi-letter actions
ALPHABETS = [ALPHA, ("x", "y"), ("c", "a", "b"), ("ab", "b", "c1", "d")]

# the check names, in order, that certification and replay reported before
# they shared one path
EQUIVALENT = [
    "bisimulation-relation-valid", "roots-bisimilar", "collapsed-witness-valid",
    "collapse-minimal", "solution-verified", "common-bisimilar-left", "common-bisimilar-right",
]
REPLAYED_EQUIVALENT = EQUIVALENT[:5] + ["common-at-root"] + EQUIVALENT[5:]
INEQUIVALENT = ["bisimulation-relation-valid", "roots-not-bisimilar", "distinguishing-clause"]


def pairs(seed: int, count: int):
    """Seeded pairs: ``e`` beside an axiom rewrite, then independent draws."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        e = random_expr(rng, depth=3)
        f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 2 == 0 else random_expr(rng, depth=3)
        out.append((e, f))
    return out


def alphabet_pairs(seed: int, count: int):
    """Seeded ``(alphabet, e, f)`` over ``ALPHABETS`` by turns: ``e``
    beside an axiom rewrite, then independent draws."""
    rng = random.Random(seed)
    for i in range(count):
        alpha = ALPHABETS[i % len(ALPHABETS)]
        e = random_expr(rng, alpha, depth=rng.randint(1, 4))
        f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 2 == 0 else random_expr(rng, alpha, depth=3)
        yield alpha, e, f


def partition_of(Z: Prechart, block_of: list) -> PartitionRelation:
    """The partition of ``Z.states`` that a list of block labels by state number gives."""
    groups: dict = {}
    for x, b in zip(Z.states, block_of):
        groups.setdefault(b, []).append(x)
    return PartitionRelation.from_blocks(Z.states, groups.values())


def roundtrip(cert) -> dict:
    return json.loads(json.dumps(cert.to_json()))


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Count calls of ``starchart.<module>.<name>`` through every starchart binding."""
    calls: list = []
    original = getattr(sys.modules[f"starchart.{module}"], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "starchart" or mod_name.startswith("starchart."):
            for bound, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, bound, counting)
    return calls


class TestOneRefinementForTheCommonExpression:
    def test_agrees_with_two_bisimilar_calls(self):
        corpus = list(alphabet_pairs(401, 520))
        commons = [certify(e, f, alpha).common for alpha, e, f in corpus]
        outcomes = set()
        for i, (alpha, e, f) in enumerate(corpus):
            d = _decide(e, f, alpha)
            # another pair's common over the same alphabet
            other = next(c for c in commons[i + 1:] + commons[:i]
                         if c is not None and atoms(c) <= set(alpha))
            candidates = [e, f, Zero(), other]
            if commons[i] is not None:
                candidates += [commons[i], Sum(commons[i], Atom(alpha[i % len(alpha)]))]
            for common in candidates:
                checks = _common_checks(d, common)
                assert [c.name for c in checks] == ["common-bisimilar-left", "common-bisimilar-right"]
                got = tuple(c.passed for c in checks)
                # as one refinement of the joint chart of all three expressions
                R = round_by_round_bisimilarity(joint_chart([e, f, common], alpha))
                assert got == (R.related(e, common), R.related(f, common)), (e, f, common)
                assert got == (bisimilar(e, common, alpha), bisimilar(f, common, alpha)), (e, f, common)
                outcomes.add(got)
        # every combination occurs, so neither side is compared vacuously
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestReplayKeepsItsChecks:
    def test_every_check_passes_under_the_same_names(self):
        verdicts = set()
        for e, f in pairs(409, 100):
            cert = certify(e, f)
            replayed = recheck_certificate(roundtrip(cert))
            assert all(c.passed for c in replayed)
            names = [c.name for c in replayed]
            if cert.verdict == "equivalent":
                assert [c.name for c in cert.checks] == EQUIVALENT
                assert names == REPLAYED_EQUIVALENT
            else:
                assert [c.name for c in cert.checks] == INEQUIVALENT
                assert names == INEQUIVALENT
            verdicts.add(cert.verdict)
        assert verdicts == {"equivalent", "inequivalent"}


class TestDecideFirst:
    @pytest.fixture
    def calls(self, monkeypatch):
        # ``_walk`` walks each expression; ``_numbered_chart`` builds every
        # chart from numbered arrays: the quotient, or the joint chart of
        # ``verify_solution``'s fallback; ``_stable`` checks a partition
        counted = [("semantics", "chart_of"), ("semantics", "_walk"),
                   ("semantics", "_numbered_chart"), ("layering", "syntactic_witness"),
                   ("bisim", "bisimilar"), ("bisim", "bisimilarity"), ("rerouting", "collapse"),
                   ("layering", "enumerate_witnesses"), ("bisim", "_stable"),
                   ("bisim", "_checked_partition"), ("bisim", "check_bisimulation"),
                   ("semantics", "quotient"), ("semantics", "_quotient")]
        return {name: count_calls(monkeypatch, module, name) for module, name in counted}

    def counts(self, calls) -> dict:
        out = {name: len(c) for name, c in calls.items()}
        for c in calls.values():
            c.clear()
        return out

    def test_inequivalent_pairs_build_no_witness(self, calls):
        seen = 0
        for e, f in pairs(419, 60):
            cert = certify(e, f)
            certified = self.counts(calls)
            if cert.verdict != "inequivalent":
                continue
            recheck_certificate(roundtrip(cert))
            replayed = self.counts(calls)
            for got in (certified, replayed):
                # one walk of each side, refined on its numbers: no chart at all
                assert got == {"chart_of": 0, "_walk": 2, "_numbered_chart": 0,
                               "syntactic_witness": 0, "bisimilar": 0, "bisimilarity": 0,
                               "collapse": 0, "enumerate_witnesses": 0, "_stable": 1,
                               "_checked_partition": 0, "check_bisimulation": 0, "quotient": 0,
                               "_quotient": 0}
            seen += 1
        assert seen >= 20

    def test_equivalent_pairs_build_each_chart_once(self, calls):
        seen = 0
        for e, f in pairs(421, 60)[::2]:
            cert = certify(e, f)
            # both sides and the common expression are walked once each; the
            # partition is checked once, and the only chart built is the
            # quotient, from the decision's arrays, with no joined chart and
            # no second check; ``bisimilarity`` runs once, for
            # collapse-minimal; the witness is inferred on the quotient, with
            # neither a syntactic witness, a collapse nor the search
            expected = {"chart_of": 0, "_walk": 3, "_numbered_chart": 1, "syntactic_witness": 0,
                        "bisimilar": 0, "bisimilarity": 1, "collapse": 0, "enumerate_witnesses": 0,
                        "_stable": 1, "_checked_partition": 0, "check_bisimulation": 0, "quotient": 0,
                        "_quotient": 1}
            assert [args[0] for args in calls["bisimilarity"]] == [cert.collapsed.base]
            assert self.counts(calls) == expected
            doc = roundtrip(cert)
            recheck_certificate(doc)
            # replay builds no chart from arrays
            assert [args[0] for args in calls["bisimilarity"]] == [witness_from_json(doc["collapsed"]).base]
            assert self.counts(calls) == {**expected, "_numbered_chart": 0, "_quotient": 0}
            seen += 1
        assert seen == 30


class TestOneQuotient:
    def test_certify_builds_the_quotient_of_the_joined_chart(self):
        seen = 0
        for alpha, e, f in alphabet_pairs(463, 480):
            cert = certify(e, f, alpha)
            if cert.verdict != "equivalent":
                continue
            Z, inl, inr = coproduct(chart_of(e, alpha), chart_of(f, alpha))
            Q, projection = quotient(Z, bisimilarity(Z))
            z = projection[inl[e]]
            assert projection[inr[f]] == z
            assert cert.collapsed.base == dataclasses.replace(Q, root=z)
            seen += 1
        assert seen >= 200


class TestOneWalkDecides:
    def test_the_decision_is_the_coproduct_of_both_charts_and_its_refinement(self):
        verdicts = set()
        for alpha, e, f in alphabet_pairs(449, 520):
            d = _decide(e, f, alpha)
            X, Y = chart_of(e, alpha), chart_of(f, alpha)
            Z, inl, inr = coproduct(X, Y)
            # the chart of the decision's arrays is the coproduct
            joined = _numbered_chart(alpha, (tuple(map(d.state, range(len(d.states)))), d.outs, d.numbered))
            R = bisimilarity(Z)
            assert joined == Z
            assert [list(m) for m in (joined.outputs, joined.transitions)] == [
                list(m) for m in (Z.outputs, Z.transitions)]
            assert d.n == len(X.states)
            assert [d.state(x) for x in range(len(d.states))] == list(Z.states)
            assert list(inl.items()) == [(x, d.state(i)) for i, x in enumerate(X.states)]
            assert list(inr.items()) == [(y, d.state(d.n + i)) for i, y in enumerate(Y.states)]
            # ``block_of`` numbers the bisimilarity's blocks by least member
            assert R == round_by_round_bisimilarity(Z)
            assert d.block_of == [R.block_index(x) for x in Z.states] and d.count == len(R.blocks)
            assert d.bisimilar == R.related(inl[e], inr[f]) == bisimilar(e, f, alpha)
            # the walk's numbered successors are those a copy computes
            assert tuple(d.numbered) == joined.numbered_succ() == Prechart.make(
                alpha, Z.states, Z.outputs, Z.transitions).numbered_succ()
            verdicts.add(d.bisimilar)
        assert verdicts == {True, False}

    def test_clauses_on_numbers_are_the_violations_of_the_joined_chart(self):
        verdicts = set()
        clauses = set()
        for alpha, e, f in alphabet_pairs(457, 520):
            d = _decide(e, f, alpha)
            Z = joined_chart(e, f, alpha)
            roots = (Z.states[0], Z.states[d.n])
            merged = partition_of(Z, _candidate(d))
            # the bisimilarity with the roots' blocks joined
            assert merged == PartitionRelation.from_pairs(Z.states, chain(bisimilarity(Z).pairs(), [roots]))
            # the output partition is coarser, so many of its pairs fail a clause
            outputs: dict = {}
            by_output = [outputs.setdefault(out, len(outputs)) for out in d.outs]
            for candidate in (_candidate(d), by_output):
                P = partition_of(Z, candidate)
                for x, y in P.pairs():
                    got = [_on_states(d, v) for v in _clauses(d, candidate, Z.index(x), Z.index(y))]
                    assert got == list(_violations(Z, Z, P.related, x, y))
                    clauses.update(v.clause for v in got)
            if not d.bisimilar:
                first = next(v for x, y in chain([roots], merged.pairs())
                             for v in _violations(Z, Z, merged.related, x, y))
                assert _on_states(d, _distinguishing_violation(d, _candidate(d))) == first
            verdicts.add(d.bisimilar)
        assert verdicts == {True, False}
        assert clauses == {"output", "forth", "back"}


class TestReplayNamesOnlyTheClause:
    def test_replay_labels_states_up_to_the_last_one_the_clause_names(self, monkeypatch):
        labelled = []
        label = formats.state_label

        def counting(s):
            # joined states are (side, expression) tuples; the inner call
            # for the expression is not counted
            if isinstance(s, tuple):
                labelled.append(s)
            return label(s)

        monkeypatch.setattr(formats, "state_label", counting)
        saved = seen = 0
        for e, f in pairs(439, 80)[1::2]:
            cert = certify(e, f, ALPHA)
            if cert.verdict != "inequivalent":
                continue
            doc = roundtrip(cert)
            labelled.clear()
            assert all(c.passed for c in recheck_certificate(doc))
            Z = joined_chart(e, f, ALPHA)
            v = cert.distinguishing
            named = [s for s in (v.left, v.right, v.successor) if s is not None]
            assert labelled == list(Z.states[: 1 + max(map(Z.index, named))])
            saved += len(Z.states) - len(labelled)
            seen += 1
        assert seen >= 20 and saved > 0

    def test_lazy_ids_are_the_state_ids(self):
        X = Prechart.make(("a",), ("L:x", (0, "x"), "L:x#2", (0, "y"), "L:x#3"), {}, {})
        pairs_ = list(iter_state_ids(X.states))
        assert [name for _, name in pairs_] == ["L:x", "L:x#2", "L:x#2#2", "L:y", "L:x#3"]
        assert dict(pairs_) == state_ids(X)


class TestTamperedCertificates:
    def test_an_edited_common_fails_replay(self):
        edited = 0
        for e, f in pairs(431, 60)[::2]:
            cert = certify(e, f, ALPHA)
            doc = roundtrip(cert)
            for wrong in (Zero(), Sum(cert.common, Atom("a"))):
                if bisimilar(e, wrong, ALPHA):
                    continue
                doc["common"] = render(wrong)
                failed = {c.name for c in recheck_certificate(doc) if not c.passed}
                assert "common-at-root" in failed
                assert failed & {"common-bisimilar-left", "common-bisimilar-right"}
                edited += 1
        assert edited >= 30

    def test_an_edited_action_fails_the_distinguishing_clause(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        assert doc["distinguishing"]["clause"] == "output"
        assert doc["distinguishing"]["action"] == "b"
        assert all(c.passed for c in recheck_certificate(doc))
        doc["distinguishing"]["action"] = "a"  # both sides output a
        assert not dict((c.name, c.passed) for c in recheck_certificate(doc))["distinguishing-clause"]

    def test_an_edited_successor_or_action_fails_on_random_pairs(self):
        edited = 0
        for e, f in pairs(433, 120)[1::2]:
            cert = certify(e, f, ALPHA)
            if cert.verdict != "inequivalent":
                continue
            doc = roundtrip(cert)
            v = cert.distinguishing
            Z = joined_chart(e, f, ALPHA)
            ids = state_ids(Z)
            edits = []
            if v.clause == "output":
                # an action on which the two outputs agree
                edits += [
                    {"action": a} for a in ALPHA if (a in Z.out(v.left)) == (a in Z.out(v.right))
                ]
            else:
                # a successor neither state reaches by the action, or an
                # action by which neither reaches the successor
                near = set(Z.succ(v.left, v.action)) | set(Z.succ(v.right, v.action))
                edits += [{"successor": ids[s]} for s in Z.states if s not in near][:2]
                edits += [
                    {"action": a}
                    for a in ALPHA
                    if v.successor not in Z.succ(v.left, a) + Z.succ(v.right, a)
                ]
            for edit in edits:
                tampered = json.loads(json.dumps(doc))
                tampered["distinguishing"].update(edit)
                results = {c.name: c.passed for c in recheck_certificate(tampered)}
                assert not results["distinguishing-clause"], (render(e), render(f), edit)
                assert results["roots-not-bisimilar"]
                edited += 1
        assert edited >= 40

    def test_a_clause_on_a_pair_the_joined_classes_do_not_relate_fails(self):
        rng = random.Random(5)
        while True:
            e, f = random_expr(rng, depth=3), random_expr(rng, depth=3)
            cert = certify(e, f, ALPHA)
            if cert.verdict == "inequivalent":
                break
        doc = roundtrip(cert)
        assert all(c.passed for c in recheck_certificate(doc))
        d = _decide(e, f, ALPHA)
        Z = joined_chart(e, f, ALPHA)
        candidate = partition_of(Z, _candidate(d))
        ids = state_ids(Z)
        x, y = next((x, y) for x in Z.states for y in Z.states
                    if Z.out(x) != Z.out(y) and not candidate.related(x, y))
        action = sorted(Z.out(x) ^ Z.out(y))[0]
        doc["distinguishing"] = {"clause": "output", "left": ids[x], "right": ids[y],
                                 "action": action, "successor": None}
        results = {c.name: c.passed for c in recheck_certificate(doc)}
        assert not results["distinguishing-clause"]
        assert results["roots-not-bisimilar"]

    def test_an_output_clause_names_no_successor(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        assert doc["distinguishing"]["successor"] is None
        doc["distinguishing"]["successor"] = doc["distinguishing"]["left"]
        assert not dict((c.name, c.passed) for c in recheck_certificate(doc))["distinguishing-clause"]

    def test_a_clause_naming_an_unknown_state_fails(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        doc["distinguishing"]["left"] = "L:zz"
        results = {c.name: c.passed for c in recheck_certificate(doc)}
        assert list(results) == INEQUIVALENT
        assert not results["distinguishing-clause"]
        assert results["roots-not-bisimilar"]

    def test_a_collapsed_witness_without_a_root_fails_common_at_root(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["collapsed"]["root"] = None
        replayed = recheck_certificate(doc)
        assert [c.name for c in replayed] == REPLAYED_EQUIVALENT
        assert {c.name for c in replayed if not c.passed} == {"common-at-root"}

    def test_a_null_distinguishing_clause_fails(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        doc["distinguishing"] = None
        results = {c.name: c.passed for c in recheck_certificate(doc)}
        assert list(results) == INEQUIVALENT
        assert {name for name, passed in results.items() if not passed} == {"distinguishing-clause"}

    def test_a_null_common_expression_fails_its_three_checks(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["common"] = None
        replayed = recheck_certificate(doc)
        assert [c.name for c in replayed] == REPLAYED_EQUIVALENT
        assert {c.name for c in replayed if not c.passed} == {
            "common-at-root", "common-bisimilar-left", "common-bisimilar-right"}

    def test_a_clause_that_is_no_mapping_of_state_names_fails(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        clause = doc["distinguishing"]
        malformed = [{}, "x", {**clause, "left": []}, {**clause, "right": None},
                     {**clause, "successor": 5}]
        for wrong in malformed:
            results = {c.name: c.passed for c in recheck_certificate({**doc, "distinguishing": wrong})}
            assert list(results) == INEQUIVALENT
            assert {name for name, passed in results.items() if not passed} == {"distinguishing-clause"}

    def test_a_common_expression_that_is_no_string_fails_its_three_checks(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        for wrong in (5, ["a"], {"common": doc["common"]}):
            replayed = recheck_certificate({**doc, "common": wrong})
            assert [c.name for c in replayed] == REPLAYED_EQUIVALENT
            assert {c.name for c in replayed if not c.passed} == {
                "common-at-root", "common-bisimilar-left", "common-bisimilar-right"}

    def test_flipped_tags_fail_their_named_checks(self):
        left, right = parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))
        doc = roundtrip(certify(left, right))
        for transition in doc["collapsed"]["transitions"]:
            transition["tag"] = "b"
        replayed = recheck_certificate(doc)
        assert [c.name for c in replayed] == REPLAYED_EQUIVALENT
        assert {c.name for c in replayed if not c.passed} == {
            "collapsed-witness-valid", "solution-verified", "common-at-root"}

    def test_an_unknown_verdict_raises(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["verdict"] = "maybe"
        with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
            recheck_certificate(doc)
