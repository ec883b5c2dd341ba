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
    chart_of,
    check_bisimulation,
    enumerate_witnesses,
    expr_step,
    infer_witness,
    parse,
    render,
    syntactic_witness,
    unfold,
    verify_solution,
    verify_witness,
)
from starchart import layering
from starchart import solution as solution_module
from starchart.solution import MeasureError, _NormalForms, _proved, _starred, _Terms, _witness_proved
from gen import (joined_chart, local_certify, named_witness, per_equation_check, random_chart, random_expr,
                 rewrite_steps, round_by_round_bisimilarity)
from test_golden_certs import corpus as golden_corpus
from test_layering import erased

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
        assert s.assign["x"] == Star(A, B)
        assert bisimilar(s.assign["x"], Star(A, B))

    def test_output_only_state(self):
        L = single_state("a")
        s = canonical_solution(L)
        # 0*a = a: a state with no entry step is solved by its second sum
        assert s.assign["x"] == A

    @pytest.mark.parametrize("first, second", [
        (([], []), ([("a", None)], [])),
        (([], []), ([], [])),
        (([("a", None)], []), ([("b", None)], [])),
        (([], [("a", None)]), ([], [("b", None)])),
    ])
    def test_both_builders_drop_a_head_of_zero(self, first, second):
        # 0*t = t, in the expression and in the normal form of the same term
        forms = _NormalForms()
        e = _starred(first, second)
        assert (type(e) is Star) == any(first)
        assert forms.of(e) == forms.starred(first, second)

    def test_root_solutions_of_erased_charts_keep_their_size(self):
        # seeds 0-59 of erased depth-10 charts; with a head of 0 kept on every
        # state with no entry step they were 121 at the upper median, and
        # 63 105 661 at the largest
        sizes = []
        for seed in range(60):
            X = erased(chart_of(random_expr(random.Random(seed), depth=10)))
            sizes.append(_tree_size(canonical_solution(infer_witness(X)).assign[X.root]))
        sizes.sort()
        assert (sizes[30], sizes[-1]) == (83, 48_376_863)

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


def proved(X, assign) -> bool:
    """``_proved`` on a chart and an assignment by name."""
    return _proved((X.alphabet, [X.out(x) for x in X.states], X.numbered_succ()), [assign[x] for x in X.states])


class TestTheAxiomStage:
    """The normal-form stage accepts only true equations; canonical solutions need no more."""

    def test_it_never_accepts_what_the_per_equation_check_rejects(self):
        rng = random.Random(2295)
        checked = accepted = rejected = 0
        for X, assign in solved_charts(rng, syntactic=420, inferred=100):
            for candidate in TestOneRefinementPerCheck.corruptions(rng, X, assign):
                candidate = reparsed(candidate)
                expected = per_equation_check(X, candidate)
                if proved(X, candidate):
                    assert expected == (True, None)
                    accepted += 1
                assert verify_solution(X, candidate) == expected
                checked += 1
                rejected += not expected[0]
        # 2 600 candidates: 903 proved, 1 667 rejected, and 30 that hold
        # although the axioms do not prove them, so the refinement decides
        assert (checked, accepted, rejected) == (2600, 903, 1667)

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
        assert not proved(X, candidate)
        assert verify_solution(X, candidate) == per_equation_check(X, candidate) == (False, "x")

    @pytest.fixture
    def no_refinement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify_solution fell back to partition refinement")

        monkeypatch.setattr(solution_module, "_coarsest", refuse)

    def test_canonical_solutions_need_no_refinement(self, no_refinement):
        for X, assign in solved_charts(random.Random(2296), syntactic=150, inferred=100):
            assert verify_solution(X, assign) == (True, None)
            assert verify_solution(X, reparsed(assign)) == (True, None)

    def test_collapsed_certificate_charts_need_no_refinement(self, no_refinement):
        equivalent = 0
        for e, f in golden_corpus():
            cert = local_certify(e, f)
            if cert.verdict != "equivalent":
                continue
            equivalent += 1
            L = named_witness(cert.alphabet, cert.collapsed)
            X, s = L.base, canonical_solution(L)
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
        cert = local_certify(e, Sum(e, e))
        assert _tree_and_dag_nodes(cert.common) == (4693, 85)
        L = named_witness(cert.alphabet, cert.collapsed)
        X, s = L.base, canonical_solution(L)
        assert verify_solution(X, s) == (True, None)
        assert verify_solution(X, reparsed(s.assign, alphabet)) == (True, None)

    def test_it_does_not_recurse(self, no_refinement):
        # a chain's solution nests 2 binary expression nodes per state
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


def has_unit_summand(e) -> bool:
    """Whether ``e`` holds a sum with a ``0`` side or a sequence ``0·f``.

    Iterative, and each shared subterm is visited once.
    """
    seen, stack = set(), [e]
    while stack:
        x = stack.pop()
        if id(x) in seen or not isinstance(x, (Sum, Seq, Star)):
            continue
        seen.add(id(x))
        if isinstance(x, Sum) and Zero() in (x.left, x.right) or isinstance(x, Seq) and x.left == Zero():
            return True
        stack += (x.left, x.right)
    return False


class TestNormalFormSteps:
    """Derivatives taken on normal forms are the normal forms of the derivatives."""

    def test_they_are_those_of_the_expressions(self):
        rng = random.Random(2298)
        for i in range(2100):
            e = random_expr(rng, depth=1 + i % 7)
            forms = _NormalForms()
            outs, succ = expr_step(e)
            assert forms.step(forms.of(e)) == (outs, {a: {forms.of(f) for f in fs} for a, fs in succ.items()})

    def test_witnesses_build_the_normal_forms_of_their_canonical_solutions(self):
        # each state's solution and each companion, built straight as a
        # normal form, is the normal form of the expression built for it;
        # the expressions carry no unit summand
        rng = random.Random(2299)
        witnesses = 0
        for _ in range(300):
            X = chart_of(random_expr(rng, depth=min(rng.randint(2, 6), rng.randint(2, 6))))
            for L in (syntactic_witness(X), infer_witness(X)):
                forms = _NormalForms()
                terms = _Terms(L.analysis, forms.starred)
                s = canonical_solution(L)
                built = [terms.term(x) for x in range(len(X.states))]
                assert built == [forms.of(s.assign[x]) for x in X.states]
                assert not any(map(has_unit_summand, s.assign.values()))
                for (x, z), t in s.companion.items():
                    assert terms.memo[X.index(x), X.index(z)] == forms.of(t)
                    assert not has_unit_summand(t)
                assert _witness_proved(L.analysis)
                witnesses += 1
        assert witnesses == 600

    def test_stepping_does_not_recurse(self):
        # 5 000 stars nested in their heads; each steps its head first
        e = Star(Zero(), A)
        for _ in range(5000):
            e = Star(e, Zero())
        forms = _NormalForms()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            stepped = forms.step(forms.of(e))
        finally:
            sys.setrecursionlimit(limit)
        assert stepped == (frozenset(), {"a": {forms.of(Star(Star(Zero(), A), Zero()))}})


def _folded_meet(e, f) -> bool:
    forms = _NormalForms()
    return forms.folded(forms.of(e)) == forms.folded(forms.of(f))


class TestFoldedNormalForms:
    """Folding star unfoldings keeps normal forms sound and meets more pairs."""

    @pytest.mark.parametrize("left, right", [
        ("0*a", "a"),  # 0*t = t
        ("a*c", "a a*c + c"),  # the unfolding, read right to left
        ("(a a*c + c)c b", "a*c c b"),  # likewise, once sequenced
        ("a*b + b", "a*b"),  # absorption
    ])
    def test_unfoldings_fold(self, left, right):
        e, f = parse(left, ("a", "b", "c")), parse(right, ("a", "b", "c"))
        forms = _NormalForms()
        assert forms.of(e) != forms.of(f)
        assert _folded_meet(e, f)

    def test_a_star_is_no_prefix_of_itself(self):
        # ``a a*b`` lacks the tail ``b`` of the unfolding ``a a*b + b``
        assert not _folded_meet(parse("a*b", ("a", "b")), parse("a a*b", ("a", "b")))

    @pytest.mark.parametrize("alphabet, depth, seed", [(("a", "b"), 3, 611), (("a", "b", "c"), 4, 613)])
    def test_folded_forms_that_meet_are_bisimilar(self, alphabet, depth, seed):
        # axiom rewrites and independent draws, over both verdicts: whenever
        # the folded forms meet, a refinement that shares no code with
        # ``_NormalForms`` relates the roots of the joined chart
        rng = random.Random(seed)
        met = folded = apart = 0
        for i in range(3000):
            e = random_expr(rng, alphabet, depth=depth)
            f = rewrite_steps(rng, e, rng.randint(1, 3)) if i % 3 == 0 else random_expr(rng, alphabet, depth=depth)
            forms = _NormalForms()
            n, m = forms.of(e), forms.of(f)
            if forms.folded(n) == forms.folded(m):
                Z = joined_chart(e, f, alphabet)
                R = round_by_round_bisimilarity(Z)
                assert R.related(Z.states[0], Z.states[len(chart_of(e, alphabet).states)]), (render(e), render(f))
                met += 1
                folded += n != m
            elif not bisimilar(e, f, alphabet):
                apart += 1
        assert met > 1000 and folded > 50 and apart > 1500

    @pytest.mark.parametrize("n", [25, 50, 100])
    def test_folding_interns_ids_linear_in_nested_unfoldings(self, n):
        # ``h (h*t) + t`` nested ``n`` times in its tail folds to ``n``
        # nested stars, interning at most five ids per level
        t = star = Atom("c")
        for k in range(n):
            h = A if k % 2 else Seq(A, B)
            t, star = Sum(Seq(h, Star(h, t)), t), Star(h, star)
        forms = _NormalForms()
        nf = forms.of(t)
        before = len(forms.keys)
        got = forms.folded(nf)
        assert n < len(forms.keys) - before <= 5 * n
        assert got == forms.of(star)


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


def _tree_size(e) -> int:
    """Nodes of ``e`` as a tree, folded over its DAG, each distinct node once."""
    size, stack = {}, [e]
    while stack:
        x = stack[-1]
        children = (x.left, x.right) if isinstance(x, (Sum, Seq, Star)) else ()
        pending = [c for c in children if id(c) not in size]
        if pending:
            stack += pending
            continue
        size[id(x)] = 1 + sum(size[id(c)] for c in children)
        stack.pop()
    return size[id(e)]


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
