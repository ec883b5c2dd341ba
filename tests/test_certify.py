"""Certification and replay decide first and share one check path.

The verdict is read off the coproduct of the two charts, refined on the
state numbers of the two walks; an equivalent pair is certified on the
quotient by that decision, with no syntactic witness and no collapse, and
its certificate carries the projections of both walks onto the quotient.
Replay of an equivalent certificate checks the local proof, the
projections as homomorphisms and the canonical solution proved by the
axioms, with no refinement; replay of an inequivalent one model-checks
its Hennessy–Milner formula on the derivatives of both inputs that the
formula reaches, with no walk.  Either way a tampered certificate fails.
The checks on state numbers are compared with the same checks on charts:
the joined chart, the coproduct of both charts, which certification
itself never builds, ``is_homomorphism``, and a brute-force model
checker on each input's chart.

An equivalent pair whose normal forms meet is certified by them alone, and
its replay runs ``normal-forms-equal`` with no walk; the tests of the local
proof certify through ``gen.local_certify``, which takes the local proof for
every equivalent pair.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from starchart import (Prechart, Sum, atoms, bisimilar, bisimilarity, canonical_solution, certify, chart_of,
                       coproduct, is_homomorphism, parse, quotient, recheck_certificate, render, verify_witness)
from starchart import bisim, cli, semantics, solution
from starchart.bisim import _coarsest, _decide, _distinguishing_formula
from starchart.cli import _proof_checks
from starchart.formats import witness_to_json
from starchart.semantics import _coproduct_walk, _distinguishes, _first_round, _numbered_chart, _outputs
from starchart.solution import _proved, _witness_proved
from test_golden_certs import RECORDED as GOLDEN_ROWS, corpus as golden_corpus, sha256
from gen import (assert_same_witness, joined_chart, local_certify, named_witness, random_expr, rewrite_steps,
                 round_by_round_bisimilarity, satisfies, wstar_pair)

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
# an inequivalent pair's one check is the formula's, which replay runs too:
# a formula that holds at one input and fails at the other proves them
# inequivalent whatever partition the decision held
INEQUIVALENT = ["distinguishing-formula"]
REPLAYED_INEQUIVALENT = INEQUIVALENT


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


def outermost_steps(monkeypatch) -> list:
    """Record each expression that ``semantics.expr_step`` is asked to step
    from outside, not the operational rules recursing into subterms."""
    stepped, depth = [], [0]
    step = semantics.expr_step

    def recording(e):
        if not depth[0]:
            stepped.append(e)
        depth[0] += 1
        try:
            return step(e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(semantics, "expr_step", recording)
    return stepped


def failed_formula(doc) -> set:
    """The names of the checks that fail when ``doc`` is replayed, which
    must be the inequivalent certificate's formula check alone."""
    replayed = recheck_certificate(doc)
    assert [c.name for c in replayed] == REPLAYED_INEQUIVALENT
    return {c.name for c in replayed if not c.passed}


def inequivalent_pairs(seed: int, count: int, alphabet=ALPHA):
    """Seeded inequivalent pairs, with their round-tripped certificates, by
    turns: independent draws, then ``e`` beside an axiom rewrite of it
    joined with a small draw, which often differ only past a few steps."""
    rng = random.Random(seed)
    while count:
        e = random_expr(rng, alphabet, depth=rng.randint(2, 4))
        if count % 2:
            f = random_expr(rng, alphabet, depth=rng.randint(2, 4))
        else:
            f = Sum(rewrite_steps(rng, e, 2), random_expr(rng, alphabet, depth=2))
        cert = certify(e, f, alphabet)
        if cert.verdict == "inequivalent":
            yield e, f, roundtrip(cert)
            count -= 1


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
        doc = roundtrip(local_certify(e, f, ALPHA))
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
            cert = local_certify(e, f, alpha)
            if cert.verdict != "equivalent":
                continue
            L = named_witness(alpha, cert.collapsed)
            X, Y, C = chart_of(e, alpha), chart_of(f, alpha), L.base
            walk, n = _coproduct_walk(e, f, alpha)
            # the certificate's projection, then one entry moved to another state
            left, right = cert.projection["left"], cert.projection["right"]
            moved = [list(left), list(right)]
            side = moved[rng.randrange(2)]
            side[rng.randrange(len(side))] = rng.randrange(len(C.states))
            for h_left, h_right in ((left, right), moved):
                checks = _proof_checks(walk, n, L.analysis, {"left": h_left, "right": h_right})
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
            cert = local_certify(e, f)
            assert cert.verdict == "equivalent"
            # the axiom stage alone, with no bisimilarity fallback
            L = named_witness(cert.alphabet, cert.collapsed)
            assign = canonical_solution(L).assign
            w = L.analysis
            assert _proved((w.alphabet, w.outs, w.numbered), [assign[x] for x in L.base.states])
            assert all(c.passed for c in recheck_certificate(roundtrip(cert))), (render(e), render(f))

    def test_certify_and_replay_build_no_expression_solution(self, monkeypatch):
        # the canonical solution is proved on normal forms built from the
        # witness; only a read of ``common`` builds an expression
        def refuse(*args):
            raise AssertionError("an expression solution was built")

        monkeypatch.setattr(solution, "canonical_solution", refuse)
        monkeypatch.setattr(solution, "_starred", refuse)
        equivalent = 0
        for e, f in golden_corpus():
            cert = local_certify(e, f)
            if cert.verdict != "equivalent":
                continue
            assert [c.name for c in cert.checks] == EQUIVALENT and all(c.passed for c in cert.checks)
            replayed = recheck_certificate(roundtrip(cert))
            assert [c.name for c in replayed] == REPLAYED_EQUIVALENT and all(c.passed for c in replayed)
            equivalent += 1
        assert equivalent >= 100


class TestReplayKeepsItsChecks:
    def test_every_check_passes_under_the_same_names(self):
        verdicts = set()
        for e, f in pairs(409, 100):
            cert = local_certify(e, f)
            replayed = recheck_certificate(roundtrip(cert))
            assert all(c.passed for c in replayed)
            names = [c.name for c in replayed]
            if cert.verdict == "equivalent":
                assert [c.name for c in cert.checks] == EQUIVALENT
                assert names == REPLAYED_EQUIVALENT
            else:
                assert [c.name for c in cert.checks] == INEQUIVALENT
                assert names == REPLAYED_INEQUIVALENT
            verdicts.add(cert.verdict)
        assert verdicts == {"equivalent", "inequivalent"}


class TestDecideFirst:
    @pytest.fixture
    def calls(self, monkeypatch):
        # ``_layers`` is every charting walk, and ``_walk`` one run to its
        # end; ``_numbered_chart`` builds every chart from numbered arrays:
        # the quotient, or the joint chart of ``verify_solution``'s
        # fallback; ``_stable`` checks a partition, and ``_coarsest`` is
        # every refinement to the largest bisimulation; ``_Analysis`` is
        # every witness analysis built, and ``LabelledPrechart`` every
        # labelling of a chart by name; ``_witness_of_rows`` reads numbered
        # rows into a witness; the named formats' readers and ``state_ids``
        # are every state name written or read
        counted = [("formats", "chart_from_json"), ("formats", "witness_from_json"), ("formats", "state_ids"),
                   ("semantics", "chart_of"), ("semantics", "_layers"), ("semantics", "_walk"),
                   ("semantics", "_numbered_chart"), ("layering", "syntactic_witness"),
                   ("bisim", "bisimilar"), ("bisim", "bisimilarity"), ("rerouting", "collapse"),
                   ("layering", "enumerate_witnesses"), ("bisim", "_stable"),
                   ("bisim", "_checked_partition"), ("bisim", "check_bisimulation"),
                   ("semantics", "quotient"), ("semantics", "_quotient"), ("bisim", "_coarsest"),
                   ("solution", "verify_solution"), ("layering", "_Analysis"),
                   ("layering", "LabelledPrechart"), ("cli", "_witness_of_rows")]
        return {name: count_calls(monkeypatch, module, name) for module, name in counted}

    def counts(self, calls) -> dict:
        out = {name: len(c) for name, c in calls.items()}
        for c in calls.values():
            c.clear()
        return out

    def test_inequivalent_pairs_build_no_witness(self, calls):
        seen = early = 0
        for e, f in pairs(419, 60):
            cert = certify(e, f)
            certified = self.counts(calls)
            if cert.verdict != "inequivalent":
                continue
            assert all(c.passed for c in recheck_certificate(roundtrip(cert)))
            replayed = self.counts(calls)
            # one walk of each side, refined on its numbers: no chart at all
            # and no partition check; the refinement to the largest
            # bisimulation runs only when no round separated the roots early
            refined = certified.pop("_coarsest")
            assert certified == {"chart_from_json": 0, "witness_from_json": 0, "state_ids": 0,
                                 "chart_of": 0, "_layers": 2, "_walk": 0, "_numbered_chart": 0,
                                 "syntactic_witness": 0, "bisimilar": 0, "bisimilarity": 0,
                                 "collapse": 0, "enumerate_witnesses": 0, "_stable": 0,
                                 "_checked_partition": 0, "check_bisimulation": 0, "quotient": 0,
                                 "_quotient": 0, "verify_solution": 0, "_Analysis": 0, "LabelledPrechart": 0,
                                 "_witness_of_rows": 0}
            assert refined in (0, 1)
            # replay model-checks the formula on derivatives: no walk, no
            # refinement and no check of a partition
            assert replayed == dict.fromkeys(calls, 0)
            seen += 1
            early += not refined
        assert seen >= 20 and early >= seen * 3 // 4

    def test_roots_with_different_outputs_are_decided_on_their_own_steps(self, calls, monkeypatch):
        stepped = outermost_steps(monkeypatch)
        alpha = ("a", "b")
        e, f = parse("a", alpha), parse("a b", alpha)
        d = _decide(e, f, alpha)
        # round 0 separates them on their outputs, read from the syntax:
        # neither walk steps anything
        assert stepped == [] and len(d.rounds) == 1 and not d.bisimilar
        self.counts(calls)
        cert = certify(e, f, alpha)
        assert cert.distinguishing == [["out", "a"]]
        counted = self.counts(calls)
        assert counted["_coarsest"] == counted["_stable"] == 0

    def test_equivalent_pairs_build_each_chart_once(self, calls):
        seen = 0
        for e, f in pairs(421, 60)[::2]:
            cert = local_certify(e, f)
            # both sides are walked once each, and no common expression is;
            # the partition is checked once, and the quotient is built once,
            # from the decision's arrays, as arrays: no chart, no labelling
            # by name and no second check; loop elimination tags its steps
            # with neither a syntactic witness, a collapse nor the search,
            # and the rows that the certificate emits are read back once by
            # replay's reader, whose one analysis the check table shares;
            # collapse-minimal refines those rows, so the decision's
            # refinement is the other ``_coarsest`` call; the solution is
            # proved by the axioms alone
            expected = {"chart_from_json": 0, "witness_from_json": 0, "state_ids": 0,
                        "chart_of": 0, "_layers": 2, "_walk": 0, "_numbered_chart": 0, "syntactic_witness": 0,
                        "bisimilar": 0, "bisimilarity": 0, "collapse": 0, "enumerate_witnesses": 0,
                        "_stable": 1, "_checked_partition": 0, "check_bisimulation": 0, "quotient": 0,
                        "_quotient": 1, "_coarsest": 2, "verify_solution": 0, "_Analysis": 1,
                        "LabelledPrechart": 0, "_witness_of_rows": 1}
            # certify checks the very document that it emits
            assert [args[1] for args in calls["_witness_of_rows"]] == [roundtrip(cert)["collapsed"]]
            assert self.counts(calls) == expected
            assert all(c.passed for c in recheck_certificate(roundtrip(cert)))
            # writing the certificate names no state; replay walks each side
            # once, to its end, and refines nothing: no partition, no
            # bisimilarity and no fallback; it builds no chart and no
            # labelling, and reads the certificate's numbered rows into one
            # witness by state number, whose analysis it builds once
            assert self.counts(calls) == {**expected, "_walk": 2, "_quotient": 0, "_stable": 0, "_coarsest": 0}
            seen += 1
        assert seen == 30


def a_chain(k: int):
    """``a`` sequenced ``k`` times, as ``starchart`` reads ``aa…a``."""
    return parse("a" * k, ("a",))


class TestLayeredDecision:
    def test_formulas_are_those_of_all_rounds(self, monkeypatch):
        # 1 000 seeded pairs over two alphabets, depths 2 to 6, every fourth
        # an axiom rewrite; then ``c`` against ``c*c``, which round 1
        # separates once the roots are stepped, and a chain pair deeper than
        # the work bound lets the layered check go: the formula is the one
        # that every round of the full refinement gives, and replays
        refined = count_calls(monkeypatch, "bisim", "_coarsest")
        rng = random.Random(487)
        cases = []
        for i in range(1000):
            alpha = ALPHABETS[i % 2]
            e = random_expr(rng, alpha, depth=2 + i % 5)
            f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 4 == 0 else random_expr(rng, alpha, depth=2 + i % 5)
            cases.append((alpha, e, f))
        cases += [(("c",), parse("c", ("c",)), parse("c*c", ("c",))), (("a",), a_chain(30), a_chain(31))]
        verdicts, early, handed_over = Counter(), 0, []
        for alpha, e, f in cases:
            refined.clear()
            cert = certify(e, f, alpha)
            handed_over.append(len(refined))
            (_, outs, numbered), n = _coproduct_walk(e, f, alpha)
            rounds, _ = _coarsest(outs, numbered)
            assert (cert.verdict == "equivalent") == (rounds[-1][0] == rounds[-1][n])
            if cert.verdict == "inequivalent":
                assert cert.distinguishing == _distinguishing_formula(alpha, outs, numbered, rounds, n), (
                    render(e), render(f))
                early += not refined
            assert all(c.passed for c in recheck_certificate(roundtrip(cert))), (render(e), render(f))
            verdicts[cert.verdict] += 1
        # the layered check separated the next to last; the last was handed
        # to the full refinement, and both are inequivalent
        assert handed_over[-2:] == [0, 1] and cert.verdict == "inequivalent"
        assert verdicts["equivalent"] >= 250 and verdicts["inequivalent"] >= 600
        assert early >= verdicts["inequivalent"] * 9 // 10

    def test_the_decision_agrees_with_the_full_refinement(self):
        # 5 000 seeded pairs over four alphabets, every other an axiom
        # rewrite, and every golden pair: the verdict, the formula and an
        # equivalent pair's blocks are those that ``_coarsest`` gives on the
        # whole joined walks, and the states and outputs that the decision
        # holds, read from the syntax where a state was not stepped, are the
        # walks' own
        cases = list(alphabet_pairs(491, 5000))
        cases += [(tuple(sorted(atoms(e) | atoms(f))), e, f) for e, f in golden_corpus()]
        verdicts, rounds_taken = Counter(), Counter()
        for alpha, e, f in cases:
            d = _decide(e, f, alpha)
            (states, outs, numbered), n = _coproduct_walk(e, f, alpha)
            rounds, _ = _coarsest(outs, numbered)
            assert d.bisimilar == (rounds[-1][0] == rounds[-1][n]), (render(e), render(f))
            if d.bisimilar:
                assert d.block_of == rounds[-1]
            else:
                assert _distinguishing_formula(alpha, d.outs, d.numbered, d.rounds, d.n) == (
                    _distinguishing_formula(alpha, outs, numbered, rounds, n)), (render(e), render(f))
                rounds_taken[len(d.rounds)] += 1
            m = len(d.states) - d.n
            assert (d.states, d.outs) == ((*states[:d.n], *states[n:n + m]), [*outs[:d.n], *outs[n:n + m]])
            verdicts[d.bisimilar] += 1
        assert verdicts[True] >= 2500 and verdicts[False] >= 2500
        assert rounds_taken[1] >= 1500 and rounds_taken[2] >= 500 and max(rounds_taken) >= 4

    @pytest.fixture
    def checked(self, monkeypatch):
        """Decide a pair, and count the round entries past round 0 that the
        layered check numbers before the full refinement takes over."""
        events = []
        signed, coarsest = bisim._signed, bisim._coarsest

        def numbering(*args):
            blocks = signed(*args)
            events.append(len(blocks))
            return blocks

        def refining(*args):
            events.append(None)
            return coarsest(*args)

        monkeypatch.setattr(bisim, "_signed", numbering)
        monkeypatch.setattr(bisim, "_coarsest", refining)

        def decide(e, f):
            events.clear()
            verdict = _decide(e, f, tuple(sorted(atoms(e) | atoms(f)))).bisimilar
            assert None in events  # handed over
            return verdict, sum(events[:events.index(None)])

        return decide

    @pytest.mark.parametrize("size", [10, 50, 150])
    def test_the_check_stops_at_its_work_bound(self, checked, size):
        # each walk of ``e = (w)*0`` against ``e + e`` and of the chains
        # reads its root's outputs on layer 0, then on each later layer
        # steps one state and one transition and reads one state's outputs,
        # so the check's round entries, 2 + 4 + … + 2(d + 1) by layer d,
        # pass the 2 + 6d outputs, states and transitions walked at layer 4
        # (30 > 26), whatever the size: rounds 1 to 3 number 2 + 4 + 6 = 12
        # entries in all, before the full refinement takes over
        assert checked(*wstar_pair(size)) == (True, 12)
        assert checked(a_chain(size), a_chain(size + 1)) == (False, 12)

    def test_walks_that_end_unseparated_hand_over_at_once(self, checked):
        # a walk ends on the layer after its last discovery, when it has
        # stepped what that discovery found, and the check hands over once
        # both walks have ended.  ``a b*0`` and ``(a b)*0`` both end on
        # layer 2, where round 2 does not yet separate them (round 3 would):
        # each root has a round 1 and a round 2 entry, and each state 1 step
        # away a round 1 entry, 6 in all.  ``(a a)*0`` ends on layer 2 as
        # well, but ``a*0`` on layer 1, with no state 1 step away: 5 in all,
        # and so for ``e = (a + b)*0`` and ``e + e``, whose six transitions
        # would let the check go on
        ab = ("a", "b")
        assert checked(parse("a b*0", ab), parse("(a b)*0", ab)) == (False, 6)
        assert checked(parse("a*0", ("a",)), parse("(a a)*0", ("a",))) == (True, 5)
        e = parse("(a + b)*0", ab)
        assert checked(e, Sum(e, e)) == (True, 5)

    def test_the_bound_counts_the_entries_of_both_sides(self, checked):
        # ``a*0``'s walk ends on layer 1 and ``(a a a a a a a a)*0``'s runs
        # on: the check hands over after the same entries in either order
        e, f = parse("a*0", ("a",)), parse("(a a a a a a a a)*0", ("a",))
        assert checked(e, f) == checked(f, e) == (True, 5)

    def test_large_inputs_certify_in_a_child_within_a_time_limit(self):
        # a deep equivalent pair, which the work bound hands to the full
        # refinement, and chains of 200 against 201 states, under a timeout:
        # a bound that let the check run on fails here instead of hanging
        script = """
import io, sys
from contextlib import redirect_stdout
from starchart import render
from starchart.cli import main
from gen import wstar_pair
e, f = wstar_pair(150)
for argv in (["certify", render(e), render(f)], ["certify", "a" * 200, "a" * 201]):
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    print(code)
"""
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                              env={"PYTHONPATH": "src:tests"}, cwd=root)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == ["0", "1"]


class TestOneQuotient:
    def test_certify_builds_the_quotient_of_the_joined_chart(self):
        seen = 0
        for alpha, e, f in alphabet_pairs(463, 480):
            cert = local_certify(e, f, alpha)
            if cert.verdict != "equivalent":
                continue
            Z, inl, inr = coproduct(chart_of(e, alpha), chart_of(f, alpha))
            Q, projection = quotient(Z, bisimilarity(Z))
            z = projection[inl[e]]
            assert projection[inr[f]] == z
            # the certificate's chart is ``Q``, its states numbered in order
            number = Q.index
            assert named_witness(alpha, cert.collapsed).base == Prechart.make(
                alpha, range(len(Q.states)), {number(x): out for x, out in Q.outputs.items()},
                {number(x): {a: map(number, ys) for a, ys in row.items()} for x, row in Q.transitions.items()},
                number(z))
            # the certificate's projections are the quotient's, as positions
            assert cert.projection == {side: [Q.index(projection[x]) for x in injection.values()]
                                       for side, injection in (("left", inl), ("right", inr))}
            seen += 1
        assert seen >= 200


class TestOneWalkDecides:
    def test_the_decision_is_the_coproduct_of_both_charts_and_its_refinement(self):
        verdicts = set()
        for alpha, e, f in alphabet_pairs(449, 520):
            (states, outs, numbered), n = _coproduct_walk(e, f, alpha)
            rounds, count = _coarsest(outs, numbered)
            block_of = rounds[-1]
            tagged = [(0 if x < n else 1, y) for x, y in enumerate(states)]
            X, Y = chart_of(e, alpha), chart_of(f, alpha)
            Z, inl, inr = coproduct(X, Y)
            # the chart of the joined walks' arrays is the coproduct
            joined = _numbered_chart(alpha, (tuple(tagged), outs, numbered))
            R = bisimilarity(Z)
            assert joined == Z
            assert [list(m) for m in (joined.outputs, joined.transitions)] == [
                list(m) for m in (Z.outputs, Z.transitions)]
            assert n == len(X.states)
            assert tagged == list(Z.states)
            assert list(inl.items()) == [(x, tagged[i]) for i, x in enumerate(X.states)]
            assert list(inr.items()) == [(y, tagged[n + i]) for i, y in enumerate(Y.states)]
            # ``block_of`` numbers the bisimilarity's blocks by least member
            assert R == round_by_round_bisimilarity(Z)
            assert block_of == [R.block_index(x) for x in Z.states] and count == len(R.blocks)
            d = _decide(e, f, alpha)
            verdict = block_of[0] == block_of[n]
            assert verdict == R.related(inl[e], inr[f]) == bisimilar(e, f, alpha) == d.bisimilar
            # the walk's numbered successors are those a copy computes
            assert tuple(numbered) == joined.numbered_succ() == Prechart.make(
                alpha, Z.states, Z.outputs, Z.transitions).numbered_succ()
            if verdict:
                # an equivalent pair's decision refines the whole joined walks
                # to the largest bisimulation, on which ``bisim --witness``
                # reads the relation
                assert (d.states, d.outs, d.numbered, d.n, d.rounds, d.count) == (
                    states, outs, numbered, n, rounds, count)
            verdicts.add(verdict)
        assert verdicts == {True, False}


def reached_states(Z: Prechart, formula, roots) -> set:
    """The states of ``Z`` at which some diamond node of ``formula`` is
    decided, from its root at ``roots``: those that the lazy check must
    step, since an output node reads the syntax."""
    seen, stack, stepped = set(), [(len(formula) - 1, x) for x in roots], set()
    while stack:
        i, x = stack.pop()
        if (i, x) in seen:
            continue
        seen.add((i, x))
        kind, *args = formula[i]
        if kind == "dia":
            stepped.add(x)
            stack += [(args[1], y) for y in Z.succ(x, args[0])]
        elif kind != "out":
            stack += [(j, x) for j in ([args[0]] if kind == "not" else args[0])]
    return stepped


class TestDistinguishingFormulas:
    def test_the_lazy_check_agrees_with_the_oracle(self):
        # 1 000 inequivalent pairs over four alphabets: the formula holds at
        # ``e`` and fails at ``f`` on their charts, by brute force, and so on
        # ``e + e`` and ``f + f``, which are bisimilar to them
        nodes, kinds = [], Counter()
        for alphabet in ALPHABETS:
            for e, f, doc in inequivalent_pairs(457 + len(alphabet), 250, alphabet):
                formula = doc["distinguishing"]["formula"]
                assert satisfies(chart_of(e, alphabet), formula), (render(e), render(f), formula)
                assert not satisfies(chart_of(f, alphabet), formula), (render(e), render(f), formula)
                assert satisfies(chart_of(Sum(e, e), alphabet), formula)
                assert not satisfies(chart_of(Sum(f, f), alphabet), formula)
                assert _distinguishes(formula, e, f, alphabet)
                assert _distinguishes(formula, Sum(e, e), Sum(f, f), alphabet)
                assert not _distinguishes(formula, f, e, alphabet)
                n = len(_coproduct_walk(e, f, alphabet)[0][0])
                assert len(formula) <= n * n
                nodes.append(len(formula))
                kinds.update(kind if kind != "and" else f"and of {min(len(args[0]), 2)}" for kind, *args in formula)
        assert len(nodes) == 1000 and max(nodes) >= 6
        assert set(kinds) == {"out", "not", "dia", "and of 0", "and of 2"}

    def test_replay_steps_only_the_states_the_formula_reaches(self, monkeypatch):
        stepped = outermost_steps(monkeypatch)
        saved = 0
        for e, f, doc in inequivalent_pairs(439, 40):
            Z, n = joined_chart(e, f, ALPHA), _coproduct_walk(e, f, ALPHA)[1]
            stepped.clear()
            assert all(c.passed for c in recheck_certificate(doc))
            reached = reached_states(Z, doc["distinguishing"]["formula"], (Z.states[0], Z.states[n]))
            # each derivative reached by a diamond is stepped, at most once
            # per node, and nothing else is, not even a state whose outputs
            # an output node reads; states are expressions, whichever side
            # they are on
            assert {x for _, x in reached} == set(stepped)
            assert len(stepped) <= len(doc["distinguishing"]["formula"]) * len(reached)
            saved += len({x for _, x in Z.states}) - len(set(stepped))
        assert saved > 0

    def test_a_chain_deeper_than_the_recursion_limit_certifies_and_replays(self):
        # right-nested a(a(...)): the formula is 300 diamonds deep, so a
        # recursive derivation or evaluation would fail at this limit
        script = """
import json, sys
from starchart import Atom, Seq, certify, recheck_certificate
def chain(k):
    e = Atom("a")
    for _ in range(k - 1):
        e = Seq(Atom("a"), e)
    return e
sys.setrecursionlimit(150)
cert = certify(chain(300), chain(301), ("a",))
doc = json.loads(json.dumps(cert.to_json()))
print(cert.verdict, len(doc["distinguishing"]["formula"]),
      all(c.passed for c in cert.checks), all(c.passed for c in recheck_certificate(doc)))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PYTHONPATH": "src"}, cwd=Path(__file__).resolve().parent.parent)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == ["inequivalent", "300", "True", "True"]


def certificate_bytes(cert) -> int:
    """The size of the certificate as ``starchart certify`` prints it."""
    return len(json.dumps(cert.to_json(), ensure_ascii=False).encode("utf-8"))


class TestCertificateSize:
    def test_the_seed_88_certificate_is_small(self):
        # the quotient of this pair has 193 states and 629 transitions;
        # named by rendered expressions, they took 713 147 bytes
        e = random_expr(random.Random(88), depth=12)
        cert = local_certify(e, Sum(e, e))
        assert len(named_witness(cert.alphabet, cert.collapsed).base.states) == 193
        assert certificate_bytes(cert) < 60_000

    def test_bytes_grow_linearly_in_the_quotient(self):
        # an odd word's cycle is its own quotient, of n states and n
        # transitions; the inputs and the walks grow linearly with it, so
        # each state or transition added costs about the same bytes, where
        # a name per state would cost more with every state added
        sizes = []
        for n in range(11, 200, 20):
            cert = local_certify(*wstar_pair(n))
            C = named_witness(cert.alphabet, cert.collapsed).base
            assert len(C.states) == n
            sizes.append((len(C.states) + sum(1 for _ in C.edges()), certificate_bytes(cert)))
        steps = [(b2 - b1) / (s2 - s1) for (s1, b1), (s2, b2) in zip(sizes, sizes[1:])]
        assert max(steps) < 1.5 * min(steps) and max(steps) < 40, steps


class TestTamperedCertificates:
    def test_an_edited_action_fails_the_distinguishing_formula(self):
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        assert doc["distinguishing"] == {"formula": [["out", "b"]]}
        assert not failed_formula(doc)
        doc["distinguishing"]["formula"][0][1] = "a"  # both sides output a
        assert failed_formula(doc) == {"distinguishing-formula"}

    def test_edited_formulas_fail_on_random_pairs(self):
        # the polarity flipped at the root, by a negation wrapped around it or
        # the root's negation removed, always fails; an action edited in one
        # node fails exactly when the oracle says the formula no longer
        # distinguishes the inputs
        flipped = edited = 0
        for alphabet in ALPHABETS:
            for e, f, doc in inequivalent_pairs(433 + len(alphabet), 30, alphabet):
                formula = doc["distinguishing"]["formula"]
                root = len(formula) - 1
                flips = [formula + [["not", root]]]
                if formula[root][0] == "not":
                    flips.append(formula[:root] + [formula[formula[root][1]]])
                for tampered in flips:
                    assert failed_formula({**doc, "distinguishing": {"formula": tampered}}) == {
                        "distinguishing-formula"}
                    flipped += 1
                X, Y = chart_of(e, alphabet), chart_of(f, alphabet)
                for i, (kind, *args) in enumerate(formula):
                    if kind not in ("out", "dia"):
                        continue
                    for a in set(alphabet) - {args[0]}:
                        tampered = json.loads(json.dumps(formula))
                        tampered[i][1] = a
                        distinguishes = satisfies(X, tampered) and not satisfies(Y, tampered)
                        got = failed_formula({**doc, "distinguishing": {"formula": tampered}})
                        assert got == (set() if distinguishes else {"distinguishing-formula"}), (formula, tampered)
                        edited += not distinguishes
        assert flipped >= 120 and edited >= 100

    def test_the_formula_of_the_swapped_pair_fails(self):
        # the formula holds at the left input and fails at the right one, so
        # with the inputs swapped it is evidence for no pair of the certificate
        for _, _, doc in inequivalent_pairs(5, 20):
            inputs = doc["inputs"]
            swapped = {**doc, "inputs": {"left": inputs["right"], "right": inputs["left"]}}
            assert failed_formula(swapped) == {"distinguishing-formula"}

    @pytest.mark.parametrize("formula", [
        [], [[]], [["out"]], [["out", "b", 0]], [["out", 1]], [["box", "b", 0]],
        [["out", "b"], ["out", "zz"], ["not", 1], ["and", [0, 2]]],
        [["out", "b"], ["dia", "zz", 0], ["not", 1], ["and", [0, 2]]],
        [["out", "b"], ["not", 1]], [["not", 0]], [["out", "b"], ["not", True]], [["out", "b"], ["not", -1]],
        [["out", "b"], ["not", "0"]], [["out", "b"], ["not", 0], ["not", 1, 1]], [["out", "b"], ["and", 0]],
        [["out", "b"], ["and", [0, 2]]], [["out", "b"], ["and", [False]]],
        [["out", "b"], ["dia", "a", 1]], [["out", "b"], ["dia", "a"]], ["out", "b"], [("out", "b")],
        [{"kind": "out"}], [None], "out b", {"0": ["out", "b"]},
    ], ids=lambda formula: json.dumps(formula))
    def test_a_malformed_formula_fails(self, formula):
        # the empty list, unknown kinds and lengths, an action outside the
        # alphabet, a self, forward, negative, bool or string child index,
        # a node that is no list; read leniently, several would distinguish
        # the inputs, as ``b ∧ ¬⟨zz⟩b`` and ``¬¬b`` do
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        assert failed_formula({**doc, "distinguishing": {"formula": formula}}) == {"distinguishing-formula"}

    def test_a_null_distinguishing_clause_fails(self):
        # a null or missing distinguishing value carries no formula
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        for distinguishing in (None, {"formula": None}):
            assert failed_formula({**doc, "distinguishing": distinguishing}) == {"distinguishing-formula"}
        assert failed_formula({key: value for key, value in doc.items() if key != "distinguishing"}) == {
            "distinguishing-formula"}

    def test_a_clause_that_is_no_mapping_of_state_names_fails(self):
        # a distinguishing value that is no ``{"formula": [...]}`` mapping,
        # the clause of state names that the earlier format carried among them
        doc = roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))
        clause = {"clause": "output", "left": "L:a + b", "right": "R:a", "action": "b", "successor": None}
        for distinguishing in ({}, "x", [], clause, {**clause, "left": []}, {**clause, "successor": 5}):
            assert failed_formula({**doc, "distinguishing": distinguishing}) == {"distinguishing-formula"}

    def test_a_moved_projection_entry_fails_the_homomorphism(self):
        moved = 0
        for doc in equivalent_docs(431, 30):
            size = len(doc["collapsed"]["outputs"])
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
        doc = roundtrip(local_certify(parse("a*0", ("a",)), parse("(a a)*0", ("a",))))
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
            size, root = len(doc["collapsed"]["outputs"]), doc["collapsed"]["root"]
            for other in set(range(size)) - {root}:
                tampered = json.loads(json.dumps(doc))
                for h in tampered["projection"].values():
                    h[0] = other
                # the roots still meet, but elsewhere: no homomorphism maps them there
                assert failed_checks(tampered) == {"projection-homomorphism", "roots-meet"}

    def test_a_collapsed_witness_with_no_root_fails_roots_meet(self):
        doc = roundtrip(local_certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["collapsed"]["root"] = None
        assert failed_checks(doc) == {"roots-meet"}

    def test_flipped_tags_fail_their_named_checks(self):
        left, right = parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))
        doc = roundtrip(local_certify(left, right))
        everything = json.loads(json.dumps(doc))
        for row in everything["collapsed"]["transitions"]:
            row[3] = "b"
        assert failed_checks(everything) == {"collapsed-witness-valid", "solution-proved"}
        # one tag flipped, on certificates with several tags
        flipped = 0
        for doc in equivalent_docs(439, 30):
            for i, (_, _, _, tag) in enumerate(doc["collapsed"]["transitions"]):
                tampered = json.loads(json.dumps(doc))
                tampered["collapsed"]["transitions"][i][3] = {"e": "b", "b": "e"}[tag]
                if all(c.passed for c in recheck_certificate(tampered)):
                    continue  # another witness of the same chart
                assert failed_checks(tampered) == {"collapsed-witness-valid", "solution-proved"}
                flipped += 1
        assert flipped >= 30

    def test_a_dropped_output_fails_the_homomorphism(self):
        dropped = 0
        for doc in equivalent_docs(441, 30):
            for state, actions in enumerate(doc["collapsed"]["outputs"]):
                if not actions:
                    continue
                tampered = json.loads(json.dumps(doc))
                tampered["collapsed"]["outputs"][state] = actions[1:]
                assert failed_checks(tampered) == {"projection-homomorphism"}
                dropped += 1
        assert dropped >= 20

    def test_permuted_actions_fail_the_homomorphism(self):
        # the rows and outputs with the actions renamed by a permutation of
        # the alphabet: ``C`` stays a chart whose witness verifies and whose
        # solution is proved, but the projections, which are onto, map onto
        # it only if the renaming leaves it the same chart
        permuted = 0
        for doc in equivalent_docs(443, 10):
            collapsed = doc["collapsed"]
            chart = lambda c: ({(i, a, j) for i, a, j, _ in c["transitions"]}, [set(o) for o in c["outputs"]])
            for order in itertools.permutations(ALPHA):
                rename = dict(zip(ALPHA, order))
                tampered = json.loads(json.dumps(doc))
                for row in tampered["collapsed"]["transitions"]:
                    row[1] = rename[row[1]]
                tampered["collapsed"]["outputs"] = [sorted(map(rename.get, o)) for o in collapsed["outputs"]]
                if chart(tampered["collapsed"]) == chart(collapsed):
                    assert not failed_checks(tampered)
                    continue
                assert failed_checks(tampered) == {"projection-homomorphism"}, order
                permuted += 1
        assert permuted >= 30

    def test_a_repeated_row_is_read_once(self):
        doc = roundtrip(local_certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        rows = doc["collapsed"]["transitions"]
        assert not failed_checks({**doc, "collapsed": {**doc["collapsed"], "transitions": rows + rows[:1]}})

    @pytest.mark.parametrize("edit", [
        # rows: a state number that is a bool (each reads as a right one),
        # out of range, negative, a float or a string; a row too short or
        # too long, or no list (an object, a number or null); an action
        # outside the alphabet or no string; a tag that is neither entry
        # nor body; one transition tagged both ways
        {"row": [False, "a", 1, "e"]}, {"row": [0, "a", True, "e"]}, {"row": [0, "a", 2, "e"]},
        {"row": [-1, "a", 1, "e"]}, {"row": [0.0, "a", 1, "e"]}, {"row": ["0", "a", 1, "e"]},
        {"row": [0, "a", 1]}, {"row": [0, "a", 1, "e", "e"]}, {"row": {"from": 0, "action": "a", "to": 1}},
        {"row": 0}, {"row": None},
        {"row": [0, "c", 1, "e"]}, {"row": [0, ["a"], 1, "e"]}, {"row": [0, None, 1, "e"]},
        {"row": [0, "a", 1, "x"]}, {"row": [0, "a", 1, ["e"]]}, {"row": [0, "a", 1, None]},
        {"extra": [0, "a", 1, "b"]},
        # the root: no state number, out of range, a bool, a float, a name
        {"root": 2}, {"root": -1}, {"root": True}, {"root": 0.0}, {"root": "L:(a b)*0"},
        # the outputs: an action outside the alphabet, no list of strings,
        # the name-keyed object that version 2 wrote, too few for the rows
        {"outputs": [["c"], []]}, {"outputs": [[1], []]}, {"outputs": [["a"], None]}, {"outputs": {}},
        {"outputs": None}, {"outputs": [[]]},
        # the transitions: no list
        {"transitions": None}, {"transitions": {}},
    ], ids=lambda edit: json.dumps(edit))
    def test_a_collapsed_document_that_is_no_chart_fails_every_check(self, edit):
        # none is a witness in numbered rows: every proof check fails, and nothing raises
        doc = roundtrip(local_certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        collapsed = doc["collapsed"]
        assert collapsed == {"root": 0, "outputs": [[], []], "transitions": [[0, "a", 1, "e"], [1, "b", 0, "b"]]}
        if "row" in edit:
            collapsed["transitions"][0] = edit["row"]
        elif "extra" in edit:
            collapsed["transitions"].append(edit["extra"])
        else:
            collapsed.update(edit)
        assert failed_checks(doc) == set(REPLAYED_EQUIVALENT)

    def test_a_collapsed_witness_with_state_names_fails_every_check(self):
        # the named ``collapsed`` of version 2, under a current version
        left, right = parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))
        cert = local_certify(left, right)
        for collapsed in (witness_to_json(named_witness(cert.alphabet, cert.collapsed)), [], "x"):
            assert failed_checks({**roundtrip(cert), "collapsed": collapsed}) == set(REPLAYED_EQUIVALENT)

    @pytest.mark.parametrize("version", ["missing", None, 1, 2, 4, "3", 3.0, True, [3]])
    def test_a_document_of_another_version_raises_naming_it(self, version):
        # versions 1 and 2 wrote no version; either verdict, whatever it carries besides
        for doc in (roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b")))),
                    roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))):
            assert doc.pop("version") == 3
            if version != "missing":
                doc["version"] = version
            with pytest.raises(ValueError, match="'version'"):
                recheck_certificate(doc)

    @pytest.mark.parametrize("doc", [1, [], "x", None, ["version", 3]])
    def test_a_document_that_is_no_object_raises(self, doc):
        with pytest.raises(ValueError, match="^a certificate must be a JSON object$"):
            recheck_certificate(doc)

    def test_a_projection_of_no_two_int_lists_fails(self):
        doc = roundtrip(local_certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        h = doc["projection"]
        for wrong in (None, [], "x", [h["left"], h["right"]], {"left": h["left"]}, {"right": h["right"]},
                      {"left": 0, "right": 0}, {"left": [], "right": []},
                      {"left": tuple(h["left"]), "right": h["right"]}):
            assert failed_checks({**doc, "projection": wrong}) == {"projection-homomorphism", "roots-meet"}, wrong

    @pytest.mark.parametrize("doc, field", [
        ({"version": 3}, "verdict"),
        ({"version": 3, "verdict": "equivalent"}, "alphabet"),
        ({"version": 3, "verdict": "equivalent", "alphabet": ["a"]}, "inputs"),
    ])
    def test_a_missing_field_raises_naming_it(self, doc, field):
        # as a malformed one does: no bare KeyError
        with pytest.raises(ValueError, match=f"'{field}'"):
            recheck_certificate(doc)

    def test_an_unknown_verdict_raises(self):
        doc = roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        doc["verdict"] = "maybe"
        with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
            recheck_certificate(doc)

    def test_a_missing_collapsed_fails_every_proof_check(self):
        doc = roundtrip(local_certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b"))))
        assert failed_checks({**doc, "collapsed": None}) == set(REPLAYED_EQUIVALENT)
        assert failed_checks({key: value for key, value in doc.items() if key != "collapsed"}) == set(
            REPLAYED_EQUIVALENT)

    @pytest.mark.parametrize("alphabet", ["ab", None, ("a", "b"), ["a", 1], [["a"], "b"], ["a b", "b"], ["a", ""]])
    def test_an_alphabet_that_is_no_list_of_action_names_raises(self, alphabet):
        # a string, no list, a list holding no string or no action name; a
        # tuple is no JSON value
        for doc in (roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b")))),
                    roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))):
            with pytest.raises(ValueError):
                recheck_certificate({**doc, "alphabet": alphabet})

    @pytest.mark.parametrize("inputs", [1, None, [], "a", ["a", "a"], {"left": 1, "right": "a"},
                                        {"left": "a", "right": None}, {"left": "a"}, {}])
    def test_inputs_that_are_no_mapping_of_two_strings_raise(self, inputs):
        # as for the alphabet, an input error names its field
        for doc in (roundtrip(certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b")))),
                    roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))):
            with pytest.raises(ValueError, match="'inputs'"):
                recheck_certificate({**doc, "inputs": inputs})

    def test_a_repeated_action_is_read_once(self):
        # as ``--alphabet a,b,b`` declares the alphabet a, b
        for doc in (roundtrip(local_certify(parse("(a b)*0", ("a", "b")), parse("(a b)*0 + (a b)*0", ("a", "b")))),
                    roundtrip(certify(parse("a + b", ("a", "b")), parse("a", ("a", "b"))))):
            assert all(c.passed for c in recheck_certificate({**doc, "alphabet": ["a", "b", "b"]}))


class TestTheNamedWitnessIsTheOracle:
    def test_edited_rows_get_the_verdicts_of_the_named_witness(self):
        # every equivalent golden certificate with each row's tag flipped in
        # turn, each row dropped in turn, and each state given every output
        # in turn (an output inside a loop is a goto): replay reads the rows
        # into one witness by state number, which agrees field by field with
        # the record of the labelling by name built from the same rows, and
        # its witness and solution verdicts are those of that labelling
        edited = invalid = 0
        for e, f in golden_corpus():
            doc = roundtrip(local_certify(e, f))
            if doc["verdict"] != "equivalent":
                continue
            rows, outputs = doc["collapsed"]["transitions"], doc["collapsed"]["outputs"]
            flipped = [[*row[:3], {"e": "b", "b": "e"}[row[3]]] for row in rows]
            edits = [{"transitions": rows[:i] + [flipped[i]] + rows[i + 1:]} for i in range(len(rows))]
            edits += [{"transitions": rows[:i] + rows[i + 1:]} for i in range(len(rows))]
            edits += [{"outputs": outputs[:i] + [doc["alphabet"]] + outputs[i + 1:]} for i in range(len(outputs))]
            for edit in edits:
                collapsed = {**doc["collapsed"], **edit}
                got = {c.name: c.passed for c in recheck_certificate({**doc, "collapsed": collapsed})}
                L = named_witness(tuple(doc["alphabet"]), collapsed)
                rows_witness = cli._witness_of_rows(L.base.alphabet, collapsed)
                assert_same_witness(rows_witness, L.analysis, L.base.states)
                valid = verify_witness(L)[0]
                assert got["collapsed-witness-valid"] == valid, (doc["inputs"], edit)
                assert got["solution-proved"] == (valid and _witness_proved(L.analysis))
                edited += 1
                invalid += not valid
        # 1 484 edits, of which 653 are no witness
        assert edited > 1400 and invalid > 600 and edited - invalid > 700


def refuse_calls(monkeypatch, module: str, name: str) -> None:
    """Make ``starchart.<module>.<name>`` raise through every starchart binding."""
    original = getattr(sys.modules[f"starchart.{module}"], name)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{module}.{name} was called")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "starchart" or mod_name.startswith("starchart."):
            for bound, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, bound, refuse)


def normal_forms_doc(e, f, alphabet) -> dict:
    """The certificate that ``certify`` writes when the normal forms of ``e``
    and ``f`` meet, whatever they are: evidence for replay to judge."""
    cert = cli.Certificate("equivalent", e, f, alphabet, [cli.Check("normal-forms-equal", True)],
                           proof="normal-forms")
    return roundtrip(cert)


class TestNormalFormCertificates:
    def test_certify_proves_by_normal_forms_exactly_when_they_meet(self):
        # and by the local proof otherwise: the input selects the proof
        proofs = Counter()
        for e, f in golden_corpus():
            cert = certify(e, f)
            forms = solution._NormalForms()
            n, m = forms.of(e), forms.of(f)
            meet = n == m or forms.folded(n) == forms.folded(m)
            doc = roundtrip(cert)
            if cert.verdict == "inequivalent":
                assert "proof" not in doc and [c.name for c in cert.checks] == INEQUIVALENT
                proofs["inequivalent"] += 1
            elif meet:
                assert [c.name for c in cert.checks] == ["normal-forms-equal"]
                assert (doc["proof"], doc["collapsed"], doc["projection"]) == ("normal-forms", None, None)
                # both inputs are proved equal to the left one
                assert cert.common is e
                assert [c.name for c in recheck_certificate(doc)] == ["normal-forms-equal"]
                proofs["normal-forms"] += 1
            else:
                assert "proof" not in doc and [c.name for c in cert.checks] == EQUIVALENT
                assert doc == roundtrip(local_certify(e, f))
                proofs["local"] += 1
            assert all(c.passed for c in recheck_certificate(doc))
        assert proofs == {"inequivalent": 156, "normal-forms": 164}

    @pytest.mark.parametrize("left, right", [
        ("b*((b + b)*b)", "b + b*(b*b)"),
        ("(0 b + b 0)*0", "b 0 b*b(0*b b)"),
        ("a*(a*0(b a))", "(a a)*(0*0)(b + b*a)"),
    ])
    def test_pairs_whose_folded_forms_differ_get_the_local_proof(self, left, right):
        alpha = ("a", "b")
        e, f = parse(left, alpha), parse(right, alpha)
        forms = solution._NormalForms()
        assert forms.folded(forms.of(e)) != forms.folded(forms.of(f))
        cert = certify(e, f, alpha)
        assert cert.verdict == "equivalent" and cert.proof is None
        assert [c.name for c in cert.checks] == EQUIVALENT and all(c.passed for c in cert.checks)
        replayed = recheck_certificate(roundtrip(cert))
        assert [c.name for c in replayed] == REPLAYED_EQUIVALENT and all(c.passed for c in replayed)

    def test_replay_walks_charts_and_refines_nothing(self, monkeypatch):
        docs = [roundtrip(cert) for cert in (certify(e, f) for e, f in golden_corpus()) if cert.proof]
        for module, name in (("semantics", "_layers"), ("bisim", "_coarsest"), ("cli", "_witness_of_rows"),
                             ("semantics", "_numbered_chart"), ("semantics", "chart_of"),
                             ("layering", "_Analysis"), ("bisim", "_stable")):
            refuse_calls(monkeypatch, module, name)
        for doc in docs:
            assert [(c.name, c.passed) for c in recheck_certificate(doc)] == [("normal-forms-equal", True)]
        assert len(docs) == 164

    def test_an_edited_action_fails_normal_forms_equal(self):
        alpha = ("a", "b", "c")
        doc = roundtrip(certify(parse("a b + a c", alpha), parse("a c + a b", alpha)))
        assert doc["proof"] == "normal-forms"
        doc["inputs"]["right"] = "a c + a a"
        assert [(c.name, c.passed) for c in recheck_certificate(doc)] == [("normal-forms-equal", False)]
        # each action of each right input edited in turn: whenever the
        # edited pair is not bisimilar, the check fails
        failed = 0
        for e, f in golden_corpus():
            doc = roundtrip(certify(e, f))
            if "proof" not in doc:
                continue
            text = doc["inputs"]["right"]
            for i, ch in enumerate(text):
                if ch not in doc["alphabet"]:
                    continue
                for a in set(doc["alphabet"]) - {ch}:
                    edited = text[:i] + a + text[i + 1:]
                    (check,) = recheck_certificate({**doc, "inputs": {**doc["inputs"], "right": edited}})
                    if not bisimilar(e, parse(edited, tuple(doc["alphabet"])), tuple(doc["alphabet"])):
                        assert not check.passed, (doc["inputs"], edited)
                        failed += 1
        assert failed > 900

    @pytest.mark.parametrize("proof", [None, "local", "normal-form", "Normal-Forms", 1, True, ["normal-forms"], {}])
    def test_an_unknown_proof_raises_naming_it(self, proof):
        alpha = ("a", "b")
        doc = roundtrip(certify(parse("a + b", alpha), parse("b + a", alpha)))
        with pytest.raises(ValueError, match="'proof'"):
            recheck_certificate({**doc, "proof": proof})
        # a local certificate with a proof named, too
        doc = roundtrip(local_certify(parse("(a b)*0", alpha), parse("(a b)*0 + (a b)*0", alpha)))
        with pytest.raises(ValueError, match="'proof'"):
            recheck_certificate({**doc, "proof": proof})
        # an inequivalent certificate's proof is never read
        doc = roundtrip(certify(parse("a + b", alpha), parse("a", alpha)))
        assert all(c.passed for c in recheck_certificate({**doc, "proof": proof}))

    def test_a_reader_that_does_not_fold_fails_folded_certificates(self, monkeypatch):
        # as a reader that compares plain normal forms alone reads the
        # certificates whose forms meet only once folded: it fails closed
        docs = [roundtrip(cert) for cert in (certify(e, f) for e, f in golden_corpus()) if cert.proof]
        monkeypatch.setattr(solution._NormalForms, "folded", lambda self, n: n)
        replayed = [recheck_certificate(doc) for doc in docs]
        assert Counter(check.passed for (check,) in replayed) == {True: 158, False: 6}

    def test_a_deleted_proof_fails_every_local_check(self):
        # as a reader without the normal-forms proof reads the certificate:
        # it fails closed
        for e, f in golden_corpus():
            doc = roundtrip(certify(e, f))
            if doc.get("proof") == "normal-forms":
                del doc["proof"]
                assert failed_checks(doc) == set(REPLAYED_EQUIVALENT)

    def test_an_accepted_normal_forms_certificate_is_sound(self):
        # the normal-forms certificate of 600 rewrite pairs and 600
        # independent draws, over two alphabets, whatever their verdict:
        # whenever replay accepts one, a refinement that shares no code with
        # the decision relates the roots of the joined chart
        rng = random.Random(491)
        accepted = rejected = 0
        for i in range(1200):
            alpha = ALPHABETS[i % 2]
            e = random_expr(rng, alpha, depth=rng.randint(1, 4))
            f = rewrite_steps(rng, e, rng.randint(1, 4)) if i % 2 == 0 else random_expr(rng, alpha, depth=3)
            (check,) = recheck_certificate(normal_forms_doc(e, f, alpha))
            assert check.name == "normal-forms-equal"
            if check.passed:
                Z = joined_chart(e, f, alpha)
                R = round_by_round_bisimilarity(Z)
                assert R.related(Z.states[0], Z.states[len(chart_of(e, alpha).states)]), (render(e), render(f))
                accepted += 1
            else:
                rejected += 1
        assert accepted >= 500 and rejected >= 500

    def test_the_emitted_document_is_the_certificates_copy(self):
        # editing what ``to_json`` returns leaves the certificate as it was
        alpha = ("a", "b")
        cert, twin = (local_certify(parse("(a b)*0", alpha), parse("(a b)*0 + (a b)*0", alpha)) for _ in range(2))
        before = roundtrip(cert)
        d = cert.to_json()
        d["collapsed"]["transitions"][0][3] = "b"
        d["projection"]["left"][0] = 1
        # ``common`` is first built after the edit, from the certificate's own rows
        assert render(cert.common) == render(twin.common) == "(a b)*0"
        assert cert.projection == before["projection"] and roundtrip(cert) == before
        # and a formula's nodes, an ``and`` node's children included
        e, f = parse("a(a + b)", alpha), parse("a a + a b", alpha)
        cert = certify(e, f, alpha)
        before = roundtrip(cert)
        d = cert.to_json()
        formula = d["distinguishing"]["formula"]
        assert ["and", [1, 0]] in formula
        formula[0][1] = "b"
        next(node for node in formula if node[0] == "and")[1][0] = 0
        assert roundtrip(cert) == before and cert.distinguishing == before["distinguishing"]["formula"]
        assert [(c.name, c.passed) for c in recheck_certificate(roundtrip(cert))] == [("distinguishing-formula", True)]


def gated(e, f) -> bool:
    """Whether ``certify`` tries the normal forms of ``e`` and ``f`` before
    it decides: their roots agree on the first round of refinement."""
    return _outputs(e) == _outputs(f) and _first_round(e) == _first_round(f)


class TestProveBeforeDeciding:
    def test_the_golden_pairs_take_the_pinned_paths(self):
        paths = Counter()
        for e, f in golden_corpus():
            cert = certify(e, f)
            paths["/".join(filter(None, (cert.verdict, cert.proof, str(gated(e, f)))))] += 1
        assert paths == {"equivalent/normal-forms/True": 164, "inequivalent/False": 155, "inequivalent/True": 1}

    def test_equivalent_golden_pairs_certify_without_the_decision(self, monkeypatch):
        refuse_calls(monkeypatch, "bisim", "_decide")
        rows = [(pair, row) for pair, row in zip(golden_corpus(), GOLDEN_ROWS) if row["verdict"] == "equivalent"]
        for (e, f), row in rows:
            assert sha256(certify(e, f)) == row["sha256"]
        assert len(rows) == 164

    def test_gated_off_golden_pairs_certify_without_normal_forms(self, monkeypatch):
        refuse_calls(monkeypatch, "cli", "_normal_forms_check")
        rows = [(pair, row) for pair, row in zip(golden_corpus(), GOLDEN_ROWS) if not gated(*pair)]
        for (e, f), row in rows:
            assert sha256(certify(e, f)) == row["sha256"]
        assert len(rows) == 155

    def test_the_verdict_agrees_with_an_independent_refinement(self):
        # an equivalent verdict no longer passes through the decision, so it
        # is checked against a refinement that shares no code with it: 600
        # rewrite pairs and 600 independent draws, over two alphabets
        rng = random.Random(727)
        verdicts = Counter()
        for i in range(1200):
            alpha = ALPHABETS[i % 2]
            e = random_expr(rng, alpha, depth=rng.randint(1, 4))
            f = rewrite_steps(rng, e, rng.randint(1, 4)) if i % 4 < 2 else random_expr(rng, alpha, depth=3)
            Z = joined_chart(e, f, alpha)
            related = round_by_round_bisimilarity(Z).related(Z.states[0], Z.states[len(chart_of(e, alpha).states)])
            verdict = certify(e, f, alpha).verdict
            assert verdict == ("equivalent" if related else "inequivalent"), (render(e), render(f))
            verdicts[verdict] += 1
        assert verdicts["equivalent"] >= 600 and verdicts["inequivalent"] >= 500
