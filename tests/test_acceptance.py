"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All randomness is seeded; desk scale throughout (alphabet <= 3, expression
depth <= 5, charts well under 50 states).
"""

import json
import random
import time

from starchart import (
    Atom,
    Seq,
    Star,
    Sum,
    Zero,
    bisimilar,
    bisimilarity,
    canonical_solution,
    certify,
    chart_of,
    check_bisimulation,
    collapse,
    coproduct,
    enumerate_witnesses,
    infer_witness,
    is_homomorphism,
    kernel_partition,
    recheck_certificate,
    restrict_relation,
    rerouting,
    size_bound,
    syntactic_witness,
    unfold,
    verify_solution,
    verify_witness,
)
from starchart.rerouting import Splitting
from gen import (
    AXIOM_NAMES,
    all_exprs,
    all_labellings,
    axiom_instances,
    fig3_left,
    fig3_right,
    random_chart,
    random_expr,
    rewrite_steps,
    same_partition,
)

A = Atom("a")
SUITE_START = time.time()


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_axiom_soundness():
    started = time.time()
    rng = random.Random(20260801)
    failures = 0
    for name in AXIOM_NAMES:
        for _ in range(500):
            e1, e2, e3 = (random_expr(rng, depth=3) for _ in range(3))
            lhs, rhs = axiom_instances(name, e1, e2, e3)
            if not bisimilar(lhs, rhs):
                failures += 1
    elapsed = time.time() - started
    report(
        1,
        "every axiom scheme is sound for bisimilarity (9 x 500 instances)",
        failures == 0 and elapsed < 30,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_02_rsp_soundness():
    universe = all_exprs(("a",), max_nodes=5)
    fixed_pairs = [
        (A, Zero()),
        (A, A),
        (Zero(), A),
        (Seq(A, A), A),
        (Sum(A, A), A),
        (A, Seq(A, A)),
        (Seq(A, A), Zero()),
        (Star(A, A), A),
        (A, Sum(A, Zero())),
        (Sum(A, Zero()), Seq(A, A)),
    ]
    violations = 0
    premise_hits = 0
    for e, f in fixed_pairs:
        target = Star(e, f)
        for g in universe:
            if bisimilar(g, Sum(Seq(e, g), f)):
                premise_hits += 1
                if not bisimilar(g, target):
                    violations += 1
    report(
        2,
        "the unique-fixed-point rule holds on all small expressions over {a}",
        violations == 0 and premise_hits > 0,
        f"{len(universe)} expressions, {premise_hits} premise hits, {violations} violations",
    )


def test_criterion_03_fundamental_theorem():
    rng = random.Random(20260803)
    bad = sum(
        1
        for _ in range(500)
        if not bisimilar((e := random_expr(rng, depth=5)), unfold(e))
    )
    report(3, "every expression is bisimilar to its one-step unfolding (500 random)", bad == 0)


def test_criterion_04_size_bound():
    rng = random.Random(20260804)
    bad = 0
    for _ in range(500):
        e = random_expr(rng, depth=5)
        if len(chart_of(e).states) > size_bound(e):
            bad += 1
    report(4, "chart sizes never exceed the inductive bound (500 random)", bad == 0)


def test_criterion_05_expression_charts_are_well_layered():
    rng = random.Random(20260805)
    bad = 0
    for _ in range(500):
        e = random_expr(rng, depth=5)
        if verify_witness(syntactic_witness(chart_of(e))) != (True, None):
            bad += 1
    report(5, "the structural witness always verifies (500 random)", bad == 0)


def test_criterion_06_witness_count_ground_truth():
    X = chart_of(Star(Seq(A, A), Zero()))
    brute = [L for L in all_labellings(X) if verify_witness(L)[0]]
    searched = enumerate_witnesses(X)
    solutions = [canonical_solution(L) for L in brute]
    agree = all(
        bisimilar(solutions[0].assign[x], solutions[1].assign[x]) for x in X.states
    ) if len(solutions) == 2 else False
    report(
        6,
        "the two-state cycle has exactly two witnesses, with agreeing solutions",
        len(brute) == 2 and len(searched) == 2 and agree,
        f"{len(brute)} by brute force",
    )


def _witness_corpus(rng: random.Random, size: int):
    corpus = []
    while len(corpus) < size:
        X = random_chart(
            rng,
            n_states=rng.randint(3, 5),
            alphabet=("a", "b"),
            edge_prob=0.35,
            out_prob=0.2,
        )
        if sum(1 for _ in X.edges()) > 10:
            continue
        corpus.append(X)
    return corpus


def test_criterion_07_canonical_solution_correctness():
    rng = random.Random(20260807)
    bad = 0
    for _ in range(200):
        e = random_expr(rng, depth=4)
        L = syntactic_witness(chart_of(e))
        solution = canonical_solution(L)
        if verify_solution(L.base, solution) != (True, None):
            bad += 1
        elif not bisimilar(solution.assign[L.base.root], e):
            bad += 1
    multi = 0
    disagreements = 0
    for X in _witness_corpus(rng, 50):
        witnesses = enumerate_witnesses(X, limit=8)
        if len(witnesses) < 2:
            continue
        multi += 1
        solutions = [canonical_solution(L) for L in witnesses]
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                for x in X.states:
                    if not bisimilar(solutions[i].assign[x], solutions[j].assign[x]):
                        disagreements += 1
    report(
        7,
        "canonical solutions verify, match their root, and agree across witnesses",
        bad == 0 and disagreements == 0 and multi > 0,
        f"{bad} bad solutions, {multi} multi-witness charts, {disagreements} disagreements",
    )


def test_criterion_08_rerouting_preserves_bisimilarity():
    rng = random.Random(20260808)
    done = 0
    bad = 0
    while done < 200:
        e = random_expr(rng, depth=3)
        f = rewrite_steps(rng, e, rng.randrange(4))
        X, _, _ = coproduct(chart_of(e, ("a", "b", "c")), chart_of(f, ("a", "b", "c")))
        R = bisimilarity(X)
        merges = {}
        for block in R.blocks:
            if len(block) > 1 and rng.random() < 0.9:
                survivor = rng.choice(block)
                for other in block:
                    if other != survivor and rng.random() < 0.7:
                        merges[other] = survivor
        splitting = Splitting.merging(X, merges)
        if not merges and rng.random() < 0.7:
            continue  # keep most instances nontrivial
        done += 1
        U = rerouting(X, splitting)
        if check_bisimulation(X, U, restrict_relation(R, U.states)) != (True, None):
            bad += 1
    report(8, "restricted relations survive reroutings with kernels inside them (200 random)", bad == 0)


def test_criterion_09_collapse_closure():
    rng = random.Random(20260809)
    bad = []
    for _ in range(200):
        e = random_expr(rng, depth=4)
        L = syntactic_witness(chart_of(e))
        R = bisimilarity(L.base)
        result, projection = collapse(L)
        ok = (
            verify_witness(result) == (True, None)
            and bisimilarity(result.base).is_identity
            and is_homomorphism(projection, L.base, result.base) == (True, None)
            and same_partition(kernel_partition(projection, L.base.states), R)
            and bisimilar(canonical_solution(result).assign[projection[L.base.root]], e)
        )
        if not ok:
            bad.append(e)
    report(9, "collapse stays well-layered, minimal, and solution-correct (200 random)", not bad)


def test_criterion_10_fig3_negative_control():
    left_chart, left_witness = fig3_left()
    inferred = infer_witness(left_chart)
    right = fig3_right()
    brute_left = [L for L in all_labellings(left_chart) if verify_witness(L)[0]]
    brute_right = [L for L in all_labellings(right) if verify_witness(L)[0]]
    ok = (
        verify_witness(left_witness) == (True, None)
        and inferred is not None
        and len(brute_left) > 0
        and infer_witness(right) is None
        and len(brute_right) == 0
    )
    report(
        10,
        "the rerouted four-state chart loses its witness, its source does not",
        ok,
        f"{len(brute_left)} left / {len(brute_right)} right labellings valid",
    )


def test_criterion_11_end_to_end_certification():
    rng = random.Random(20260811)
    bad_equivalent = 0
    for _ in range(100):
        e = random_expr(rng, depth=3)
        f = rewrite_steps(rng, e, rng.randint(1, 5))
        cert = certify(e, f)
        doc = json.loads(json.dumps(cert.to_json()))
        if cert.verdict != "equivalent" or not all(
            c.passed for c in recheck_certificate(doc)
        ):
            bad_equivalent += 1
    bad_inequivalent = 0
    found = 0
    while found < 20:
        e, f = random_expr(rng, depth=3), random_expr(rng, depth=3)
        if bisimilar(e, f):
            continue
        found += 1
        cert = certify(e, f)
        doc = json.loads(json.dumps(cert.to_json()))
        clause_ok = (
            cert.verdict == "inequivalent"
            and cert.distinguishing is not None
            and all(c.passed for c in cert.checks)
            and all(c.passed for c in recheck_certificate(doc))
        )
        if not clause_ok:
            bad_inequivalent += 1
    elapsed = time.time() - SUITE_START
    report(
        11,
        "certification round-trips 100 rewritten pairs and refutes 20 others",
        bad_equivalent == 0 and bad_inequivalent == 0 and elapsed < 300,
        f"suite at {elapsed:.0f}s",
    )
