"""Certification and replay decide first and share one check path.

The verdict is read off the coproduct of the two charts, refined on the
state numbers of the two walks; an equivalent pair is certified on the
quotient by that decision, with no syntactic witness and no collapse, and
its certificate carries the projections of both walks onto the quotient.
Replay of an equivalent certificate checks the local proof, the
projections as homomorphisms and the canonical solution proved by the
axioms, with no refinement; replay of an inequivalent one runs the
certifying checks again.  Either way a tampered certificate fails.  The
checks on state numbers are compared with the same checks on charts:
the joined chart, the coproduct of both charts, which certification
itself never builds, and ``is_homomorphism``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from itertools import chain

import pytest

from starchart import (PartitionRelation, Prechart, Sum, bisimilar, bisimilarity, canonical_solution, certify,
                       chart_of, coproduct, formats, is_homomorphism, parse, quotient, recheck_certificate,
                       render)
from starchart import cli
from starchart.bisim import BisimViolation, _violations
from starchart.cli import (_candidate, _clauses, _decide, _distinguishing_violation, _named_violation, _on_states,
                           _proof_checks)
from starchart.formats import iter_state_ids, state_ids
from starchart.semantics import _coproduct_walk, _numbered_chart
from starchart.solution import _proved
from gen import joined_chart, partition_from_pairs, random_expr, rewrite_steps, round_by_round_bisimilarity

ALPHA = ("a", "b", "c")
# declared orders other than the sorted one, and multi-letter actions
ALPHABETS = [ALPHA, ("x", "y"), ("c", "a", "b"), ("ab", "b", "c1", "d")]

# the check names, in order: certification guards its quotient, then runs
# the local proof's checks, which are all that the replay of an equivalent
# certificate runs
EQUIVALENT = [
    "bisimulation-relation-valid", "collapse-minimal", "collapsed-witness-valid",
    "projection-homomorphism", "roots-meet", "solution-proved",
]
REPLAYED_EQUIVALENT = EQUIVALENT[2:]
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


def failed_checks(doc) -> set:
    """The names of the checks that fail when ``doc`` is replayed, which
    must be the equivalent certificate's local-proof checks."""
    replayed = recheck_certificate(doc)
    assert [c.name for c in replayed] == REPLAYED_EQUIVALENT
    return {c.name for c in replayed if not c.passed}


def equivalent_docs(seed: int, count: int):
    """Round-tripped equivalent certificates of ``e`` beside an axiom
    rewrite of it, then beside ``e + e``; no walk has fewer than three
    states, so each projection list has an entry besides the root's."""
    rng = random.Random(seed)
    while count:
        e = random_expr(rng, depth=rng.randint(3, 4))
        f = rewrite_steps(rng, e, rng.randint(1, 3)) if count % 2 else Sum(e, e)
        doc = roundtrip(certify(e, f, ALPHA))
        if min(map(len, doc["projection"].values())) >= 3:
            assert not failed_checks(doc)
            yield doc
            count -= 1


class TestProjectionCheck:
    def test_agrees_with_is_homomorphism(self):
        rng = random.Random(401)
        outcomes = set()
        seen = 0
        for alpha, e, f in alphabet_pairs(401, 480):
            cert = certify(e, f, alpha)
            if cert.verdict != "equivalent":
                continue
            X, Y, C = chart_of(e, alpha), chart_of(f, alpha), cert.collapsed.base
            walk, n = _coproduct_walk(e, f, alpha)
            # the certificate's projection, then one entry moved to another state
            left, right = cert.projection["left"], cert.projection["right"]
            moved = [list(left), list(right)]
            side = moved[rng.randrange(2)]
            side[rng.randrange(len(side))] = rng.randrange(len(C.states))
            for h_left, h_right in ((left, right), moved):
                checks = _proof_checks(alpha, walk, n, cert.collapsed, {"left": h_left, "right": h_right}, None)
                got = dict((c.name, c.passed) for c in checks)["projection-homomorphism"]
                on_charts = [is_homomorphism({x: C.states[b] for x, b in zip(Z.states, h)}, Z, C)[0]
                             for Z, h in ((X, h_left), (Y, h_right))]
                assert got == all(on_charts), (render(e), render(f), h_left, h_right)
                outcomes.add(got)
            seen += 1
        assert seen >= 200
        assert outcomes == {True, False}


class TestLocalProofs:
    def test_the_axioms_prove_every_equivalent_pair(self):
        # 2 000 pairs of depth 3 to 8: an axiom rewrite of ``e``, then ``e + e``
        rng = random.Random(467)
        for i in range(2000):
            e = random_expr(rng, depth=3 + i % 6)
            f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 2 == 0 else Sum(e, e)
            cert = certify(e, f)
            assert cert.verdict == "equivalent"
            # the axiom stage alone, with no bisimilarity fallback
            assert _proved(cert.collapsed.base, canonical_solution(cert.collapsed).assign)
            assert all(c.passed for c in recheck_certificate(roundtrip(cert))), (render(e), render(f))


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
        # ``verify_solution``'s fallback; ``_stable`` checks a partition, and
        # ``_coarsest`` is every refinement to the largest bisimulation;
        # ``_Analysis`` is every witness analysis built
        counted = [("semantics", "chart_of"), ("semantics", "_walk"),
                   ("semantics", "_numbered_chart"), ("layering", "syntactic_witness"),
                   ("bisim", "bisimilar"), ("bisim", "bisimilarity"), ("rerouting", "collapse"),
                   ("layering", "enumerate_witnesses"), ("bisim", "_stable"),
                   ("bisim", "_checked_partition"), ("bisim", "check_bisimulation"),
                   ("semantics", "quotient"), ("semantics", "_quotient"), ("bisim", "_coarsest"),
                   ("solution", "verify_solution"), ("layering", "_Analysis")]
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
                               "_quotient": 0, "_coarsest": 1, "verify_solution": 0, "_Analysis": 0}
            seen += 1
        assert seen >= 20

    def test_equivalent_pairs_build_each_chart_once(self, calls):
        seen = 0
        for e, f in pairs(421, 60)[::2]:
            cert = certify(e, f)
            # both sides are walked once each, and no common expression is;
            # the partition is checked once, and the only chart built is the
            # quotient, from the decision's arrays, with no joined chart and
            # no second check; ``bisimilarity`` runs once, for
            # collapse-minimal, so the decision's refinement is the other
            # ``_coarsest`` call; the witness is inferred on the quotient,
            # with neither a syntactic witness, a collapse nor the search;
            # the solution is proved by the axioms alone; the inferred witness
            # is analysed once, and inference, the solution and the check
            # table share that analysis
            expected = {"chart_of": 0, "_walk": 2, "_numbered_chart": 1, "syntactic_witness": 0,
                        "bisimilar": 0, "bisimilarity": 1, "collapse": 0, "enumerate_witnesses": 0,
                        "_stable": 1, "_checked_partition": 0, "check_bisimulation": 0, "quotient": 0,
                        "_quotient": 1, "_coarsest": 2, "verify_solution": 0, "_Analysis": 1}
            assert [args[0] for args in calls["bisimilarity"]] == [cert.collapsed.base]
            assert self.counts(calls) == expected
            assert all(c.passed for c in recheck_certificate(roundtrip(cert)))
            # replay walks each side once and refines nothing: no partition,
            # no bisimilarity and no fallback, and it builds no chart from
            # arrays; it analyses the witness it reads once
            assert self.counts(calls) == {**expected, "_numbered_chart": 0, "_quotient": 0,
                                          "bisimilarity": 0, "_stable": 0, "_coarsest": 0}
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
            # the certificate's projections are the quotient's, as positions
            assert cert.projection == {side: [Q.index(projection[x]) for x in injection.values()]
                                       for side, injection in (("left", inl), ("right", inr))}
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
            assert merged == partition_from_pairs(Z.states, chain(bisimilarity(Z).pairs(), [roots]))
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
    def test_replay_labels_only_the_states_the_clause_names(self, monkeypatch):
        labelled = []
        label = formats.state_label

        def counting(s):
            # joined states are (side, expression) tuples; the inner call
            # for the expression is not counted
            if isinstance(s, tuple):
                labelled.append(s)
            return label(s)

        monkeypatch.setattr(formats, "state_label", counting)
        monkeypatch.setattr(cli, "state_label", counting)
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
            named = {s for s in (v.left, v.right, v.successor) if s is not None}
            assert sorted(labelled, key=Z.index) == sorted(named, key=Z.index)
            saved += len(Z.states[: 1 + max(map(Z.index, named))]) - len(labelled)
            seen += 1
        assert seen >= 20 and saved > 0

    def test_the_clause_resolves_as_the_rendered_ids_did(self):
        # the lookup of the rendered ids, every joined state up to the last
        # one the clause names, is the oracle
        def rendered(d, v):
            names = {v["left"], v["right"], v["successor"]} - {None}
            number = {name: x for x, (_, name) in enumerate(iter_state_ids(map(d.state, range(len(d.states)))))
                      if name in names}
            if len(number) != len(names):
                return None
            return BisimViolation(v["clause"], number[v["left"]], number[v["right"]], v["action"],
                                  number.get(v["successor"]))

        compared = resolved = 0
        for alphabet in ALPHABETS:
            rng = random.Random(457)
            for _ in range(25):
                e, f = (random_expr(rng, alphabet, depth=3) for _ in range(2))
                cert = certify(e, f, alphabet)
                if cert.verdict != "inequivalent":
                    continue
                d, clause = _decide(e, f, alphabet), roundtrip(cert)["distinguishing"]
                ids = [name for _, name in iter_state_ids(map(d.state, range(len(d.states))))]
                for name in ids + ["L:(" + ids[0][2:] + ")", ids[0] + "#2", "R:" + ids[0][2:]]:
                    for key in ("left", "right", "successor"):
                        v = {**clause, key: name}
                        got = _named_violation(d, v, {})
                        assert got == rendered(d, v) == _named_violation(d, v, {render(e): e, render(f): f})
                        compared += 1
                        resolved += got is not None
        assert compared > 1000 and 0 < resolved < compared

    def test_lazy_ids_are_the_state_ids(self):
        X = Prechart.make(("a",), ("L:x", (0, "x"), "L:x#2", (0, "y"), "L:x#3"), {}, {})
        pairs_ = list(iter_state_ids(X.states))
        assert [name for _, name in pairs_] == ["L:x", "L:x#2", "L:x#2#2", "L:y", "L:x#3"]
        assert dict(pairs_) == state_ids(X)


class TestTamperedCertificates:
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

    @pytest.mark.parametrize("name", ["L:(a)", "L:a#2", "L:a +", "M:a", "L:", ""])
    def test_a_name_that_is_no_rendered_state_fails(self, name):
        # non-canonical spelling, a suffix, no expression, an unknown side
        doc = roundtrip(certify(parse("b a", ("a", "b")), parse("b b", ("a", "b"))))
        assert doc["distinguishing"]["successor"] == "L:a"
        for key in ("left", "successor"):
            tampered = {**doc, "distinguishing": {**doc["distinguishing"], key: name}}
            results = {c.name: c.passed for c in recheck_certificate(tampered)}
            assert list(results) == INEQUIVALENT
            assert {name for name, passed in results.items() if not passed} == {"distinguishing-clause"}

    def test_a_null_distinguishing_clause_fails(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        doc["distinguishing"] = None
        results = {c.name: c.passed for c in recheck_certificate(doc)}
        assert list(results) == INEQUIVALENT
        assert {name for name, passed in results.items() if not passed} == {"distinguishing-clause"}

    def test_a_clause_that_is_no_mapping_of_state_names_fails(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        clause = doc["distinguishing"]
        malformed = [{}, "x", {**clause, "left": []}, {**clause, "right": None},
                     {**clause, "successor": 5}]
        for wrong in malformed:
            results = {c.name: c.passed for c in recheck_certificate({**doc, "distinguishing": wrong})}
            assert list(results) == INEQUIVALENT
            assert {name for name, passed in results.items() if not passed} == {"distinguishing-clause"}

    def test_a_moved_projection_entry_fails_the_homomorphism(self):
        moved = 0
        for doc in equivalent_docs(431, 30):
            size = len(doc["collapsed"]["states"])
            for side in ("left", "right"):
                tampered = json.loads(json.dumps(doc))
                h = tampered["projection"][side]
                x = len(h) - 1  # not the root, whose image roots-meet also checks
                h[x] = (h[x] + 1) % size
                assert failed_checks(tampered) == {"projection-homomorphism"}, (doc["inputs"], side)
                moved += 1
        assert moved == 60

    def test_a_short_projection_list_fails_the_homomorphism(self):
        for doc in equivalent_docs(433, 10):
            for side in ("left", "right"):
                tampered = json.loads(json.dumps(doc))
                tampered["projection"][side].pop()
                assert failed_checks(tampered) == {"projection-homomorphism"}
        # one entry moved across: the joined list is the same, and so are the
        # roots' images, but the right list no longer starts at its root
        doc = roundtrip(certify(parse("a*0", ("a",)), parse("(a a)*0", ("a",))))
        assert doc["projection"] == {"left": [0], "right": [0, 0]}
        doc["projection"] = {"left": [0, 0], "right": [0]}
        assert failed_checks(doc) == {"projection-homomorphism"}

    def test_projection_entries_that_are_no_ints_fail_the_homomorphism(self):
        # each stands for an entry it equals or reads as, so only its type is wrong
        replaced = 0
        for doc in equivalent_docs(435, 10):
            for side in ("left", "right"):
                h = doc["projection"][side]
                for x in range(1, len(h)):
                    for wrong in {0: ["0", False, 0.0], 1: [True, "1"]}.get(h[x], [str(h[x])]):
                        tampered = json.loads(json.dumps(doc))
                        tampered["projection"][side][x] = wrong
                        assert failed_checks(tampered) == {"projection-homomorphism"}, (side, x, wrong)
                        replaced += 1
        assert replaced >= 40

    def test_a_moved_root_image_fails_roots_meet(self):
        for doc in equivalent_docs(437, 10):
            size = len(doc["collapsed"]["states"])
            root = doc["collapsed"]["states"].index(doc["collapsed"]["root"])
            for other in set(range(size)) - {root}:
                tampered = json.loads(json.dumps(doc))
                for h in tampered["projection"].values():
                    h[0] = other
                # the roots still meet, but elsewhere: no homomorphism maps them there
                assert failed_checks(tampered) == {"projection-homomorphism", "roots-meet"}

    def test_a_collapsed_witness_with_no_root_fails_roots_meet(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["collapsed"]["root"] = None
        assert failed_checks(doc) == {"roots-meet"}

    def test_flipped_tags_fail_their_named_checks(self):
        left, right = parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))
        doc = roundtrip(certify(left, right))
        everything = json.loads(json.dumps(doc))
        for transition in everything["collapsed"]["transitions"]:
            transition["tag"] = "b"
        assert failed_checks(everything) == {"collapsed-witness-valid", "solution-proved"}
        # one tag flipped, on certificates with several tags
        flipped = 0
        for doc in equivalent_docs(439, 30):
            for i, transition in enumerate(doc["collapsed"]["transitions"]):
                tampered = json.loads(json.dumps(doc))
                tampered["collapsed"]["transitions"][i]["tag"] = {"e": "b", "b": "e"}[transition["tag"]]
                if all(c.passed for c in recheck_certificate(tampered)):
                    continue  # another witness of the same chart
                assert failed_checks(tampered) == {"collapsed-witness-valid", "solution-proved"}
                flipped += 1
        assert flipped >= 30

    def test_a_dropped_output_fails_the_homomorphism(self):
        dropped = 0
        for doc in equivalent_docs(441, 30):
            for state, actions in doc["collapsed"]["outputs"].items():
                tampered = json.loads(json.dumps(doc))
                tampered["collapsed"]["outputs"][state] = actions[1:]
                assert failed_checks(tampered) == {"projection-homomorphism"}
                dropped += 1
        assert dropped >= 20

    def test_a_mismatched_collapsed_alphabet_fails_the_homomorphism(self):
        # each still holds every action of the chart, which stays a chart
        for doc in equivalent_docs(443, 10):
            for alphabet in (ALPHA[::-1], ("b", "a", "c"), ALPHA + ("d",), ("d",) + ALPHA):
                tampered = json.loads(json.dumps(doc))
                tampered["collapsed"]["alphabet"] = list(alphabet)
                assert failed_checks(tampered) == {"projection-homomorphism"}, alphabet

    @pytest.mark.parametrize("field, value", [("alphabet", ["a"]), ("root", "nope")])
    def test_a_collapsed_document_that_is_no_chart_fails_every_check(self, field, value):
        # an alphabet that drops an action a transition uses, a root that names no state
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["collapsed"][field] = value
        assert failed_checks(doc) == set(REPLAYED_EQUIVALENT)

    def test_a_version_1_document_fails_without_raising(self):
        # a version-1 certificate rendered the common expression in place of the projections
        cert = certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b")))
        doc = {key: value for key, value in roundtrip(cert).items() if key != "projection"}
        doc["common"] = render(cert.common)
        assert failed_checks(doc) == {"projection-homomorphism", "roots-meet"}

    def test_a_projection_of_no_two_int_lists_fails(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        h = doc["projection"]
        for wrong in (None, [], "x", [h["left"], h["right"]], {"left": h["left"]}, {"right": h["right"]},
                      {"left": 0, "right": 0}, {"left": [], "right": []},
                      {"left": tuple(h["left"]), "right": h["right"]}):
            assert failed_checks({**doc, "projection": wrong}) == {"projection-homomorphism", "roots-meet"}, wrong

    def test_an_unknown_verdict_raises(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["verdict"] = "maybe"
        with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
            recheck_certificate(doc)
