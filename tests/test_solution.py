import random
import sys

import pytest

from starchart import (
    Atom,
    InvalidWitnessError,
    LabelledPrechart,
    Prechart,
    Seq,
    Star,
    Sum,
    Zero,
    bisimilar,
    canonical_solution,
    certify,
    chart_of,
    check_bisimulation,
    enumerate_witnesses,
    expr_step,
    infer_witness,
    parse,
    render,
    simplify,
    syntactic_witness,
    unfold,
    verify_solution,
    verify_witness,
)
from starchart import layering
from starchart import solution as solution_module
from starchart.solution import MeasureError, _NormalForms, _first_unsolved
from gen import deadline, distinct_nodes, doubling_chain, per_equation_check, random_chart, random_expr
from test_golden_certs import corpus as golden_corpus

A, B = Atom("a"), Atom("b")
AA0 = Star(Seq(A, A), Zero())
X1 = Seq(A, AA0)


class TestUnfold:
    def test_atom(self):
        assert unfold(B) == Sum(B, Zero())

    def test_zero_keeps_both_halves(self):
        assert unfold(Zero()) == Sum(Zero(), Zero())

    def test_star(self):
        assert unfold(Star(A, B)) == Sum(B, Seq(A, Star(A, B)))

    def test_fundamental_theorem_spot(self):
        rng = random.Random(61)
        for _ in range(60):
            e = random_expr(rng, depth=4)
            assert bisimilar(e, unfold(e))


def single_state(outputs, self_loop_tag=None):
    """A one-state chart with the given outputs and an optional a-self-loop."""
    transitions = {"x": {"a": ["x"]}} if self_loop_tag else {}
    X = Prechart.make(("a", "b"), ("x",), {"x": set(outputs)}, transitions, root="x")
    tags = {("x", "a", "x"): self_loop_tag} if self_loop_tag else {}
    return LabelledPrechart(X, tags)


class TestCanonicalSolution:
    def test_entry_self_loop_with_output(self):
        L = single_state("b", self_loop_tag="e")
        s = canonical_solution(L)
        assert s.assign["x"] == Star(Sum(A, Zero()), Sum(B, Zero()))
        assert bisimilar(s.assign["x"], Star(A, B))

    def test_output_only_state(self):
        L = single_state("a")
        s = canonical_solution(L)
        assert s.assign["x"] == Star(Zero(), Sum(A, Zero()))
        assert bisimilar(s.assign["x"], A)

    def test_two_state_cycle_root(self):
        L = syntactic_witness(chart_of(AA0))
        s = canonical_solution(L)
        assert verify_solution(L.base, s) == (True, None)
        assert bisimilar(s.assign[AA0], AA0)

    def test_rejects_invalid_witness(self):
        X = chart_of(AA0)
        with pytest.raises(InvalidWitnessError):
            canonical_solution(LabelledPrechart(X, {e: "b" for e in X.edges()}))

    def test_entry_jump_witness_solves(self):
        # body step into a state of higher loop level: the companion's
        # anchor-hit must terminate the recursion
        X = Prechart.make(
            ("a",),
            ("x", "y", "w"),
            {},
            {"x": {"a": ["y"]}, "y": {"a": ["w"]}, "w": {"a": ["y"]}},
            root="x",
        )
        L = LabelledPrechart(
            X, {("x", "a", "y"): "b", ("y", "a", "w"): "e", ("w", "a", "y"): "b"}
        )
        assert verify_witness(L) == (True, None)
        s = canonical_solution(L)
        assert verify_solution(X, s) == (True, None)

    # MeasureError texts as they read when every check formatted its message
    # up front, whether or not it failed
    STAR_ABC = "Star(left=Seq(left=Atom(action='a'), right=Atom(action='b')), right=Atom(action='c'))"
    B_STAR_ABC = f"Seq(left=Atom(action='b'), right={STAR_ABC})"
    STAR_ABB0 = ("Star(left=Seq(left=Seq(left=Atom(action='a'), right=Atom(action='b')), "
                 "right=Atom(action='b')), right=Zero())")

    @pytest.mark.parametrize("text, flattened, what", [
        ("(a b)*c", "loop", f"entry {STAR_ABC}->{B_STAR_ABC}"),
        ("(a b)*c", "body", f"body {B_STAR_ABC}->{STAR_ABC}"),
        ("(a b b)*0", "body",
         f"body Seq(left=Seq(left=Atom(action='b'), right=Atom(action='b')), right={STAR_ABB0})"
         f"->Seq(left=Atom(action='b'), right={STAR_ABB0}) under {STAR_ABB0}"),
    ])
    def test_a_failed_descent_names_its_step(self, monkeypatch, text, flattened, what):
        lengths = layering._Analysis.lengths

        def flatten(a):
            en, bd = lengths.func(a)
            return ([0] * len(en), bd) if flattened == "loop" else (en, [0] * len(bd))

        monkeypatch.setattr(layering._Analysis, "lengths", property(flatten))
        L = syntactic_witness(chart_of(parse(text, ("a", "b", "c"))))
        with pytest.raises(MeasureError) as failure:
            canonical_solution(L)
        assert str(failure.value) == f"solution recursion failed to decrease: {what}"

    def test_companion_memo_is_keyed_on_state_and_anchor(self):
        L = syntactic_witness(chart_of(AA0))
        s = canonical_solution(L)
        assert (X1, AA0) in s.companion


class TestVerifySolution:
    def test_inclusion_map_is_a_solution(self):
        rng = random.Random(67)
        for _ in range(25):
            e = random_expr(rng, depth=3)
            X = chart_of(e)
            assert verify_solution(X, {x: x for x in X.states}) == (True, None)

    def test_constant_zero_fails_at_the_root(self):
        X = chart_of(A)
        ok, bad = verify_solution(X, {A: Zero()})
        assert not ok and bad == A

    def test_partial_assignment_rejected(self):
        X = chart_of(AA0)
        with pytest.raises(ValueError):
            verify_solution(X, {AA0: AA0})

    def test_canonical_solutions_verify(self):
        rng = random.Random(71)
        for _ in range(25):
            e = random_expr(rng, depth=3)
            L = syntactic_witness(chart_of(e))
            s = canonical_solution(L)
            assert verify_solution(L.base, s) == (True, None)

    def test_root_agreement(self):
        rng = random.Random(73)
        for _ in range(25):
            e = random_expr(rng, depth=3)
            X = chart_of(e)
            s = canonical_solution(syntactic_witness(X))
            assert bisimilar(s.assign[X.root], e)

    def test_solution_iff_graph_is_a_bisimulation(self):
        # a solution's graph, read into the chart of the assigned
        # expressions, is a bisimulation, and conversely for non-solutions
        X = chart_of(AA0)
        good = {x: x for x in X.states}
        assert _graph_passes(X, good)
        bad = {AA0: A, X1: X1}
        assert verify_solution(X, bad)[0] is False
        assert not _graph_passes(X, bad)

    def test_solution_iff_graph_is_a_bisimulation_randomized(self):
        rng = random.Random(151)
        for _ in range(25):
            e = random_expr(rng, depth=3)
            X = chart_of(e)
            s = canonical_solution(syntactic_witness(X))
            assert verify_solution(X, s)[0] == _graph_passes(X, s.assign)
            # corrupt one assignment; the two judgements must still agree
            broken = dict(s.assign)
            victim = rng.choice(X.states)
            broken[victim] = Sum(broken[victim], Atom(rng.choice(X.alphabet or ("a",))))
            alphabet = tuple(sorted(set(X.alphabet) | {"a"}))
            Y = chart_of(e, alphabet)
            broken = {x: broken.get(x, s.assign[x]) for x in Y.states}
            assert verify_solution(Y, broken)[0] == _graph_passes(Y, broken)

    def test_cross_witness_agreement_on_the_cycle(self):
        X = chart_of(AA0)
        witnesses = enumerate_witnesses(X)
        assert len(witnesses) == 2
        solutions = [canonical_solution(L) for L in witnesses]
        for x in X.states:
            assert bisimilar(solutions[0].assign[x], solutions[1].assign[x])


class TestOneRefinementPerCheck:
    """``verify_solution`` returns what one ``bisimilar`` per state returns."""

    @staticmethod
    def corruptions(rng, X, assign):
        yield assign
        victims = list(X.states)
        for _ in range(4):
            broken = dict(assign)
            for victim in rng.sample(victims, rng.randint(1, min(2, len(victims)))):
                kind = rng.randrange(4)
                if kind == 0:
                    broken[victim] = Atom("z")  # outside the chart's alphabet
                elif kind == 1:
                    broken[victim] = Zero()
                elif kind == 2:
                    broken[victim] = assign[rng.choice(victims)]
                else:
                    broken[victim] = Sum(assign[victim], Atom(rng.choice(("a", "b"))))
            yield broken

    def assert_agree(self, rng, X, assign):
        for candidate in self.corruptions(rng, X, assign):
            assert verify_solution(X, candidate) == per_equation_check(X, candidate)

    def test_expression_charts(self):
        rng = random.Random(163)
        for _ in range(40):
            X = chart_of(random_expr(rng, depth=rng.randint(2, 4)))
            self.assert_agree(rng, X, canonical_solution(syntactic_witness(X)).assign)
            self.assert_agree(rng, X, {x: x for x in X.states})

    def test_charts_with_inferred_witnesses(self):
        rng = random.Random(167)
        checked = 0
        while checked < 20:
            L = infer_witness(random_chart(rng, n_states=rng.randint(1, 5), rooted=True))
            if L is None:
                continue
            checked += 1
            self.assert_agree(rng, L.base, canonical_solution(L).assign)

    def test_the_failing_state_is_the_first_in_state_order(self):
        X = chart_of(AA0)
        z = Atom("z")
        assert verify_solution(X, {AA0: Zero(), X1: z}) == (False, AA0)
        # the root's equation a.z holds; the other one, a.(a.z) for z, fails
        assert verify_solution(X, {AA0: Seq(A, z), X1: z}) == (False, X1)


def reparsed(assign, alphabet=("a", "b", "c", "z")):
    """The assignment rendered and parsed afresh, as a replay reads it.

    The same trees, with no node shared with the original or between
    states.
    """
    return {x: parse(render(e), alphabet) for x, e in assign.items()}


def solved_charts(rng, syntactic, inferred):
    """Charts with their canonical solutions: syntactic witnesses of random
    expressions of depth 2-6, then inferred witnesses of random charts of at
    most 6 states."""
    for _ in range(syntactic):
        # skewed towards small depths: parsed afresh, a depth-6 solution can
        # have 10^5 tree nodes
        X = chart_of(random_expr(rng, depth=min(rng.randint(2, 6), rng.randint(2, 6))))
        yield X, canonical_solution(syntactic_witness(X)).assign
    while inferred:
        L = infer_witness(random_chart(rng, n_states=rng.randint(1, 6), rooted=True))
        if L is not None:
            inferred -= 1
            yield L.base, canonical_solution(L).assign


class TestTheAxiomStage:
    """The normal-form stage accepts only true equations; canonical solutions need no more."""

    def test_it_never_accepts_what_the_per_equation_check_rejects(self):
        rng = random.Random(2295)
        checked = accepted = rejected = 0
        for X, assign in solved_charts(rng, syntactic=420, inferred=100):
            for candidate in TestOneRefinementPerCheck.corruptions(rng, X, assign):
                candidate = reparsed(candidate)
                expected = per_equation_check(X, candidate)
                if _first_unsolved(X, candidate, _NormalForms().of) is None:
                    assert expected == (True, None)
                    accepted += 1
                assert verify_solution(X, candidate) == expected
                checked += 1
                rejected += not expected[0]
        # 2 600 candidates: 883 proved, 1 667 rejected, and 50 that hold
        # although the axioms do not prove them, so the refinement decides
        assert accepted > 800 and rejected > 1500 and checked - accepted - rejected > 40

    @pytest.mark.parametrize("X, candidate", [
        # a step outside the chart's alphabet
        (Prechart.make(("a",), ("x",), {"x": {"a"}}, {}, root="x"), {"x": "a + z 0"}),
        # left distributivity, c(b + d) = cb + cd, which bisimilarity refutes
        (Prechart.make(
            ("a", "b", "c", "d"),
            ("x", "y", "u", "w"),
            {"u": {"b"}, "w": {"d"}},
            {"x": {"a": ["y"]}, "y": {"c": ["u", "w"]}},
            root="x",
        ), {"x": "a(c(b + d))", "y": "cb + cd", "u": "b", "w": "d"}),
    ])
    def test_it_uses_no_unsound_law(self, X, candidate):
        candidate = {x: parse(text, ("a", "b", "c", "d", "z")) for x, text in candidate.items()}
        assert _first_unsolved(X, candidate, _NormalForms().of) is not None
        assert verify_solution(X, candidate) == per_equation_check(X, candidate) == (False, "x")

    @pytest.fixture
    def no_refinement(self, monkeypatch):
        def refuse(X):
            raise AssertionError("verify_solution fell back to partition refinement")

        monkeypatch.setattr(solution_module, "bisimilarity", refuse)

    def test_canonical_solutions_need_no_refinement(self, no_refinement):
        for X, assign in solved_charts(random.Random(2296), syntactic=150, inferred=100):
            assert verify_solution(X, assign) == (True, None)
            assert verify_solution(X, reparsed(assign)) == (True, None)

    def test_collapsed_certificate_charts_need_no_refinement(self, no_refinement):
        equivalent = 0
        for e, f in golden_corpus():
            cert = certify(e, f)
            if cert.verdict != "equivalent":
                continue
            equivalent += 1
            X, s = cert.collapsed.base, canonical_solution(cert.collapsed)
            assert verify_solution(X, s) == (True, None)
            assert verify_solution(X, reparsed(s.assign, X.alphabet)) == (True, None)
        assert equivalent >= 100

    def test_the_worst_case_pair_needs_no_refinement(self, no_refinement):
        alphabet = ("a", "b", "c")
        e = parse(
            "(0*((c*0 + c)*((c + b)*(a + a))) + 0 a)*((((a*c + b*c)*((0 + b) + b + b))"
            "*(c*a 0*a b))*((b*(a b) + c + a*a) + a))",
            alphabet,
        )
        cert = certify(e, Sum(e, e))
        assert _tree_and_dag_nodes(cert.common) == (8191, 113)
        X, s = cert.collapsed.base, canonical_solution(cert.collapsed)
        assert verify_solution(X, s) == (True, None)
        assert verify_solution(X, reparsed(s.assign, alphabet)) == (True, None)

    def test_it_does_not_recurse(self, no_refinement):
        # a chain's solution nests 3 expression nodes per state
        n = 5000
        X = Prechart.make(
            ("a",), range(n), {n - 1: {"a"}}, {i: {"a": [i + 1]} for i in range(n - 1)}, root=0
        )
        s = canonical_solution(LabelledPrechart(X, {(i, "a", i + 1): "b" for i in range(n - 1)}))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert verify_solution(X, s) == (True, None)
        finally:
            sys.setrecursionlimit(limit)


def _tree_and_dag_nodes(e):
    """Nodes of ``e`` as a tree, and its distinct subterms."""
    tree, distinct, stack = 0, set(), [e]
    while stack:
        x = stack.pop()
        tree += 1
        distinct.add(x)
        if isinstance(x, (Sum, Seq, Star)):
            stack += (x.left, x.right)
    return tree, len(distinct)


def _graph_passes(X, assign):
    # the finite stand-in for the graph of the assignment into expressions
    # modulo equivalence: the graph closed under bisimilarity on the
    # expression side, checked against the chart of all assigned expressions
    from starchart import bisimilarity

    alphabet = X.alphabet
    states: dict = {}
    for target in assign.values():
        for x in chart_of(target, alphabet).states:
            states.setdefault(x, expr_step(x))
    Y = Prechart.make(
        alphabet,
        tuple(states),
        {x: outs for x, (outs, _) in states.items()},
        {x: {a: succ[a] for a in alphabet if a in succ} for x, (_, succ) in states.items()},
    )
    classes = bisimilarity(Y)
    relation = [
        (x, g) for x in X.states for g in classes.blocks[classes.block_index(assign[x])]
    ]
    ok, _ = check_bisimulation(X, Y, relation)
    return ok


class TestSimplify:
    def test_unit_sums_and_zero_sequences(self):
        assert simplify(Sum(A, Zero())) == A
        assert simplify(Sum(Zero(), A)) == A
        assert simplify(Seq(Zero(), A)) == Zero()

    def test_right_zero_sequence_is_kept(self):
        assert simplify(Seq(A, Zero())) == Seq(A, Zero())

    def test_cleans_canonical_output(self):
        s = canonical_solution(single_state("b", self_loop_tag="e"))
        assert simplify(s.assign["x"]) == Star(A, B)

    def test_preserves_bisimilarity(self):
        rng = random.Random(79)
        for _ in range(40):
            e = random_expr(rng, depth=4)
            assert bisimilar(e, simplify(e))

    def test_linear_in_the_dag(self):
        # the trees of e_64 have ~10^20 nodes; simplify visits each node once
        with deadline(1, "simplifying e_64"):
            clean = doubling_chain(64, Seq(A, Zero()))
            assert simplify(clean) is clean
            messy = doubling_chain(64, Sum(Zero(), Seq(Sum(A, Zero()), Zero())))
            simplified = simplify(messy)
            assert simplified == clean and len(distinct_nodes(simplified)) == 3 * 64 + 3

    def test_deep_chains_do_not_recurse(self):
        e = A
        for _ in range(30000):
            e = Seq(Sum(e, Zero()), Sum(Zero(), B))
        assert render(simplify(e)) == "a" + " b" * 30000
